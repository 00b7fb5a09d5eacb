"""Trust-boundary taint pass (DESIGN.md §9): bytes from a GLOBE_UNTRUSTED
source must pass a GLOBE_SANITIZER before they reach a GLOBE_TRUSTED_SINK
parameter or the return of a sink function."""

from __future__ import annotations

import re

from . import driver
from .dataflow import Dataflow, SinkPath
from .ir import FILTER, Finding

ANNOT_UNTRUSTED = "untrusted"
ANNOT_SANITIZER = "sanitizer"
ANNOT_SINK = "trusted_sink"

NAME = "taint"
ANNOTS = {ANNOT_UNTRUSTED, ANNOT_SANITIZER, ANNOT_SINK}

HEADLINE = "TAINT: untrusted data reaches trusted sink without sanitization"
OK = "every untrusted-byte path is sanitized or has a justified suppression"


class Analyzer(Dataflow):
    CLEAN = ANNOT_SANITIZER
    SINK = ANNOT_SINK
    # Accessor methods whose results are treated as metadata, not content:
    # calling .status() on a tainted Result yields an error description, not
    # the untrusted payload.  Kept deliberately short — anything not listed
    # propagates taint.
    FILTER_METHODS = frozenset({"is_ok", "status", "code", "size", "empty",
                                "length"})

    def __init__(self, prog, _registry=None):
        super().__init__(prog)

    def sinks_at(self, cs, callee, f):
        if callee in (None, FILTER):
            return
        for i, paths in self.sum[callee.qname].sink_params.items():
            if i >= len(cs.args):
                continue
            # If the parameter is itself sink-annotated (a chainless path
            # ending at the callee), that IS the boundary — do not also
            # report the paths it forwards to further down.
            direct = [p for p in paths
                      if p.sink == callee.qname and not p.chain]
            yield i, direct or paths

    def finding(self, f, line, atom, path: SinkPath, chain):
        return Finding(
            "taint", f"{f.qname} | {atom[0]} -> {path.sink}",
            detail=[f"  source: {atom[0]}",
                    f"          reaches taint at {atom[1]}:{atom[2]}",
                    f"  sink:   {path.sink} ({path.file}:{path.line})",
                    "  path:"]
            + [f"    {fn} at {fl}:{ln}" for fn, fl, ln in chain])


def render(fd: Finding) -> str:
    return "\n".join([HEADLINE] + fd.detail
                     + [f"  suppression key: {fd.key}"])


def matches(fd: Finding, source, sink):
    src_desc, sink_name = fd.key.split(" | ", 1)[1].rsplit(" -> ", 1)
    return (not source or source in src_desc) and (not sink or sink in sink_name)


def stats(an, used, new):
    n_annot = sum(1 for f in an.prog.funcs.values()
                  if f.annots or any(p.annots for p in f.params))
    return (f"[taint] frontend={used} functions={len(an.prog.funcs)} "
            f"annotated={n_annot} findings={len(an.findings)} "
            f"suppressed={len(an.findings) - len(new)} new={len(new)}")


def run_list(args, p):
    prog, _used = driver.build_program(driver.tree_paths(args), args.frontend,
                                       args.compile_commands, p)
    for q in sorted(prog.funcs):
        f = prog.funcs[q]
        tags = sorted(f.annots)
        ptags = [f"{p.name or i}:{'|'.join(sorted(p.annots))}"
                 for i, p in enumerate(f.params) if p.annots]
        if tags or ptags:
            print(f"{q}  [{', '.join(tags)}]  {' '.join(ptags)}  "
                  f"({f.file}:{f.line})")
    return 0


MODES = {"list": ("dump annotated functions and exit", run_list)}

EXPECT_RE = re.compile(
    r"//\s*TAINT-EXPECT:\s*(clean|flag(?:\s+source=(\S+))?(?:\s+sink=(\S+))?)")
