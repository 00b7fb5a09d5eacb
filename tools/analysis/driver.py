"""Command-line driver shared by the three passes: argument parsing, source
collection, frontend selection with fallback, baselines, and the fixture
self-test (plus the framework checks every pass's self-test runs).

A pass is a module providing:

  NAME        short name: log prefix, fixture dir tests/<NAME>/fixtures,
              baseline file tools/<NAME>_baseline.txt
  ANNOTS      annotation kinds the pass reads (lexer.MACROS values)
  BODY        optional (lite body parser, libclang body walker); default
              is the shared statement linearizer
  REGISTRY    optional (flag, default path, loader, fixture-line regex)
  EXPECT_RE   fixture expectation regex: (clean|flag..., a, b)
  MODES       {"list": (help, fn(args, pass)), ...} extra dump modes
  Analyzer(prog, registry) with run() and findings
  matches(finding, a, b), render(finding), stats(an, used, new), OK
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
import tempfile

from . import libclang, lite
from .ir import Finding
from .lexer import MACROS, strip_comments

REPO = lite.REPO


# --------------------------------------------------------------------------
# Program construction
# --------------------------------------------------------------------------

def collect_sources(root):
    out = []
    for base, _dirs, files in os.walk(root):
        for fn in sorted(files):
            if fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                out.append(os.path.join(base, fn))
    return out


def _bodies(p):
    return getattr(p, "BODY", (None, None))


def build_program(paths, frontend, cc_dir, p):
    """-> (Program, frontend used).  `auto` tries libclang, then lite."""
    lite_body, clang_body = _bodies(p)
    if frontend in ("clang", "auto"):
        try:
            return libclang.build_program(paths, cc_dir, p.ANNOTS,
                                          clang_body), "clang"
        except ImportError:
            if frontend == "clang":
                raise SystemExit(
                    "frontend 'clang' requested but python libclang is not "
                    "importable (pip install libclang); use --frontend lite")
            print(f"[{p.NAME}] libclang unavailable; using lite frontend",
                  file=sys.stderr)
        except RuntimeError as e:
            if frontend == "clang":
                raise SystemExit(f"clang frontend failed: {e}")
            print(f"[{p.NAME}] clang frontend failed ({e}); using lite "
                  "frontend", file=sys.stderr)
    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(collect_sources(path))
        else:
            files.append(path)
    return lite.build_program(files, p.ANNOTS, lite_body), "lite"


def tree_paths(args):
    return args.paths or [os.path.join(REPO, "src")]


def load_registry(p, args):
    reg = getattr(p, "REGISTRY", None)
    return reg[2](getattr(args, reg[0][2:])) if reg else None


def analyze(args, p):
    prog, used = build_program(tree_paths(args), args.frontend,
                               args.compile_commands, p)
    an = p.Analyzer(prog, load_registry(p, args))
    an.run()
    return an, used


# --------------------------------------------------------------------------
# Baselines
# --------------------------------------------------------------------------

def load_baseline(path):
    """Lines: `<finding key>  # justification` (justification required)."""
    entries = {}
    if not os.path.exists(path):
        return entries
    for lineno, raw in enumerate(open(path, encoding="utf-8"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" not in line:
            raise SystemExit(
                f"{path}:{lineno}: baseline entry lacks a justification "
                "comment — every suppression must say why")
        key = line.split("#", 1)[0].strip()
        entries[key] = {"line": lineno, "used": False}
    return entries


def apply_baseline(findings, path, strict, render):
    """Prints unsuppressed findings and stale entries -> (rc, new)."""
    baseline = load_baseline(path)
    new = []
    for fd in findings:
        ent = baseline.get(fd.key)
        if ent is not None:
            ent["used"] = True
        else:
            new.append(fd)
    rc = 0
    for fd in new:
        print(render(fd))
        print()
        rc = 1
    for k, e in baseline.items():
        if not e["used"]:
            print(f"STALE BASELINE: `{k}` no longer matches any finding — "
                  f"remove it from {os.path.relpath(path, REPO)}")
            if strict:
                rc = 1
    return rc, new


def render(fd: Finding, headlines, default) -> str:
    lines = [headlines.get(fd.kind, default)]
    if fd.file:
        lines.append(f"  at {fd.file}:{fd.line}")
    lines.extend(fd.detail)
    lines.append(f"  suppression key: {fd.key}")
    return "\n".join(lines)


def run_tree(args, p):
    an, used = analyze(args, p)
    rc, new = apply_baseline(an.findings, args.baseline, args.strict_baseline,
                             p.render)
    print(p.stats(an, used, new))
    if rc == 0:
        print(f"[{p.NAME}] OK: {p.OK}")
    return rc


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------

def _framework_checks():
    """Checks of the shared lexer, lite frontend and baseline machinery
    -> list of failure messages."""
    failures = []
    # Every annotation macro the headers define is in the lexer's table.
    for hdr in ("thread", "taint", "bounds"):
        path = os.path.join(REPO, "src", "util", f"{hdr}_annotations.hpp")
        for m in re.findall(r"#define\s+(GLOBE_\w+)", open(path).read()):
            if m not in MACROS:
                failures.append(f"lexer: {m} (src/util/{hdr}_annotations.hpp)"
                                " is missing from lexer.MACROS")

    def parse(src):
        prog = lite.Program()
        lite.parse_text(strip_comments(src), "src/fx/fx.hpp", prog, set())
        return prog

    prog = parse("class C { util::Mutex mu_; int m_ GLOBE_GUARDED_BY(mu_); };")
    if prog.funcs:
        failures.append("frontend: a GLOBE_GUARDED_BY member parsed as "
                        f"function(s) {sorted(prog.funcs)}")
    prog = parse("class GLOBE_SCOPED_CAPABILITY G { G(int x); };")
    if sorted(prog.funcs) != ["G::G"]:
        failures.append("frontend: GLOBE_SCOPED_CAPABILITY class ctor parsed "
                        f"as {sorted(prog.funcs)}, want ['G::G']")
    prog = parse("class C {\n  std::vector<int> a_ GLOBE_BOUNDED;\n"
                 "  std::vector<int> b_{1, 2};\n};")
    if prog.fields.get("C") != {"a_": "vector", "b_": "vector"} \
            or not prog.field_info["C"]["a_"]["bounded"]:
        failures.append("frontend: bounded / brace-initialised members "
                        f"harvested as {prog.field_info.get('C')}")

    # Baselines: a matching entry suppresses, an unmatched one is stale
    # (fatal under --strict-baseline), an unjustified one is rejected.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "baseline.txt")
        with open(path, "w") as fh:
            fh.write("# header\nf | a -> b  # why\nf | gone -> b  # why\n")
        found = [Finding("k", "f | a -> b")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc_lax, new = apply_baseline(found, path, False, str)
            rc_strict, _ = apply_baseline(found, path, True, str)
        if new or rc_lax != 0:
            failures.append("baseline: a matching entry did not suppress "
                            f"its finding (rc={rc_lax})")
        if "STALE BASELINE: `f | gone -> b`" not in out.getvalue() \
                or rc_strict != 1:
            failures.append("baseline: stale entry not reported or not fatal "
                            f"under --strict-baseline (rc={rc_strict})")
        with open(path, "w") as fh:
            fh.write("f | a -> b\n")
        try:
            load_baseline(path)
            failures.append("baseline: an entry without a justification was "
                            "accepted")
        except SystemExit:
            pass
    return failures


def run_self_test(args, p):
    fixture_dir = os.path.join(REPO, "tests", p.NAME, "fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"no fixture directory at {fixture_dir}", file=sys.stderr)
        return 2
    use_clang = args.frontend == "clang"
    if use_clang:
        try:
            libclang.load()
        except ImportError:
            print("frontend 'clang' requested for self-test but libclang "
                  "is unavailable", file=sys.stderr)
            return 2
    lite_body, clang_body = _bodies(p)
    reg = getattr(p, "REGISTRY", None)
    fixtures = sorted(f for f in os.listdir(fixture_dir) if f.endswith(".cpp"))
    failures = _framework_checks()
    for fx in fixtures:
        path = os.path.join(fixture_dir, fx)
        raw = open(path, encoding="utf-8").read()
        expects = p.EXPECT_RE.findall(raw)
        if not expects:
            failures.append(f"{fx}: no {p.NAME.upper()}-EXPECT comment")
            continue
        if use_clang:
            try:
                prog = libclang.build_program_single(
                    path, [fixture_dir], p.ANNOTS, clang_body)
            except Exception as e:  # noqa: BLE001 - report as test failure
                failures.append(f"{fx}: clang parse failed: {e}")
                continue
        else:
            prog = lite.build_program([path], p.ANNOTS, lite_body)
        registry = {lid: int(v) for v, lid in reg[3].findall(raw)} \
            if reg else None
        an = p.Analyzer(prog, registry)
        an.run()
        keys = "; ".join(fd.key for fd in an.findings)
        if any(e[0] == "clean" for e in expects):
            if an.findings:
                failures.append(
                    f"{fx}: expected clean, got {len(an.findings)} "
                    "finding(s):\n"
                    + "\n".join("    " + fd.key for fd in an.findings))
            continue
        flags = [e[1:] for e in expects if e[0].startswith("flag")]
        unmatched = [f"{' '.join(e[0].split()[1:])}" for e in expects
                     if e[0].startswith("flag")
                     and not any(p.matches(fd, *e[1:]) for fd in an.findings)]
        extra = [fd.key for fd in an.findings
                 if not any(p.matches(fd, *fl) for fl in flags)]
        if unmatched:
            failures.append(f"{fx}: expected finding not produced: "
                            f"{'; '.join(unmatched)}\n    got: "
                            + (keys or "nothing"))
        if extra:
            failures.append(f"{fx}: unexpected finding(s): "
                            + "; ".join(extra))
    frontend = "clang" if use_clang else "lite"
    print(f"[{p.NAME}] self-test ({frontend}): {len(fixtures)} fixtures, "
          f"{len(failures)} failure(s)")
    for msg in failures:
        print("  FAIL " + msg)
    if len(fixtures) < 15:
        print(f"  FAIL corpus too small: {len(fixtures)} fixtures (< 15)")
        return 1
    return 1 if failures else 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def main(p, doc):
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files/dirs (default: src/)")
    ap.add_argument("--frontend", choices=("auto", "clang", "lite"),
                    default="auto")
    ap.add_argument("--compile-commands", default=os.path.join(REPO, "build"),
                    help="directory containing compile_commands.json")
    reg = getattr(p, "REGISTRY", None)
    if reg:
        ap.add_argument(reg[0], default=os.path.join(REPO, "tools", reg[1]))
    ap.add_argument("--baseline", default=os.path.join(
        REPO, "tools", f"{p.NAME}_baseline.txt"))
    ap.add_argument("--strict-baseline", action="store_true",
                    help="stale baseline entries are errors")
    ap.add_argument("--self-test", action="store_true")
    for mode, (helptext, _fn) in p.MODES.items():
        ap.add_argument(f"--{mode}", action="store_true", help=helptext)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        if args.frontend == "auto":
            args.frontend = "lite"
        return run_self_test(args, p)
    for mode, (_help, fn) in p.MODES.items():
        if getattr(args, mode):
            return fn(args, p)
    return run_tree(args, p)
