"""Resource-bound pass (DESIGN.md §14): untrusted sizes must pass a
GLOBE_LENGTH_GUARD before an allocation, and long-lived container members
must carry a declared, enforced bound (GLOBE_BOUNDED + a rank in
tools/capacity_bounds.txt)."""

from __future__ import annotations

import os
import re

from . import driver
from .dataflow import Dataflow, SinkPath
from .ir import FILTER, Finding, all_calls, subsys_of

ANNOT_UNTRUSTED = "untrusted"
ANNOT_GUARD = "length_guard"

NAME = "bounds"
ANNOTS = {ANNOT_UNTRUSTED, ANNOT_GUARD}

# --- analysis 1 tables ------------------------------------------------------

# Receiver methods whose first argument is an element count that the callee
# will allocate for.
RECV_ALLOC_METHODS = {"resize", "reserve"}
# Count-construction types: `T x(n, fill)` with a literal fill allocates n
# elements.  (The iterator-pair and copy forms are input-bounded and the
# 1-arg form is ambiguous with copy construction, so only the 2-arg
# count+literal-fill shape is a sink — it is also the only shape the tree
# uses for wire-sized buffers.)
CTOR_ALLOC_TYPES = {"vector", "basic_string", "string", "deque", "Bytes",
                    "Buffer"}

# --- analysis 2 tables ------------------------------------------------------

# Subsystems whose every class holds long-lived state.
GROWTH_SUBSYS = {"cache", "replication", "obs"}
# Elsewhere, class names that mark server-side long-lived state.
LONGLIVED_RE = re.compile(
    r"(Server|Dispatcher|Proxy|Tier|Framer|Pool|Registry|Replicator|"
    r"Coordinator|Maintainer|Collector|Aggregator|Auditor|Evaluator|"
    r"Tracer|Cache|Node|Client|SingleFlight|Resolver)")

GROWTH_METHODS = {"push_back", "emplace_back", "emplace", "try_emplace",
                  "insert", "push", "append", "push_front", "emplace_front"}
# Containers whose operator[] inserts a missing key: any `m[k]` is growth,
# whether assigned (`m[k] = v`), bound to a reference (`T& x = m[k]`),
# incremented (`++m[k]`) or written through (`m[k].f = v`).
MAP_TYPES = {"map", "unordered_map"}
CONTAINER_TYPES = {"vector", "deque", "list", "map", "multimap",
                   "unordered_map", "set", "multiset", "unordered_set",
                   "queue", "priority_queue", "string", "basic_string",
                   "Bytes"}
# Enforcement evidence: a shrink/eviction call or a size check on the member
# anywhere in the class shows the declared bound is actually enforced.
SHRINK_METHODS = {"erase", "pop_front", "pop_back", "pop", "clear",
                  "resize", "shrink_to_fit"}
EVIDENCE_METHODS = SHRINK_METHODS | {"size", "empty", "length"}

HEADLINE = {
    "alloc": "BOUNDS: untrusted size reaches an allocation without a "
             "length guard",
    "growth": "BOUNDS: long-lived container member grows without a "
              "declared bound",
    "growth-unenforced": "BOUNDS: GLOBE_BOUNDED member has no enforced "
                         "capacity check",
}
OK = ("every untrusted size passes a length guard and every long-lived "
      "container has a declared, enforced bound (modulo justified baseline)")


def _literal_arg(arg) -> bool:
    return not arg.refs and not arg.calls


class Analyzer(Dataflow):
    CLEAN = ANNOT_GUARD
    # Accessor methods whose results are metadata, not attacker-chosen
    # sizes: `out.resize(in.size())` allocates only as much as the input
    # actually holds, which is the same input-bounded guarantee Reader::need
    # enforces.  find()-family results are positions within the receiver,
    # bounded by its size, so `path.resize(path.find('?'))` is equally
    # input-bounded.
    FILTER_METHODS = frozenset({
        "is_ok", "status", "code", "size", "empty", "length", "find",
        "rfind", "find_first_of", "find_last_of", "find_first_not_of",
        "find_last_not_of"})

    def __init__(self, prog, capacity=None):
        super().__init__(prog)
        self.capacity = capacity or {}

    # -- analysis 1: untrusted-size allocation -----------------------------

    def sinks_at(self, cs, callee, f):
        for i, desc in self._implicit_allocs(cs):
            yield i, [SinkPath(desc, f.file, cs.line)]
        if callee in (None, FILTER):
            return
        csum = self.sum[callee.qname]
        for i, paths in csum.sink_params.items():
            # a callee that validates the size itself is no sink for it
            if i < len(cs.args) and not (csum.cleans_all or i in csum.cleans):
                yield i, paths

    def _implicit_allocs(self, cs):
        """Yields (arg_index, desc) for allocation-sized arguments of cs."""
        name = cs.name
        if name in RECV_ALLOC_METHODS and cs.recv is not None and cs.args:
            yield 0, f"alloc:{name}"
        elif name == "assign" and cs.recv is not None and len(cs.args) == 2 \
                and _literal_arg(cs.args[1]):
            # count form `assign(n, fill)`; the iterator form has a
            # non-literal second argument and is input-bounded.
            yield 0, "alloc:assign"
        elif name == "make_unique" and cs.array_form and len(cs.args) == 1:
            yield 0, "alloc:make_unique"
        elif len(cs.chain) >= 2 and cs.chain[-1] == cs.chain[-2] \
                and name in CTOR_ALLOC_TYPES and len(cs.args) == 2 \
                and _literal_arg(cs.args[1]):
            yield 0, f"alloc:{name}-ctor"

    def finding(self, f, line, atom, path: SinkPath, chain):
        return Finding(
            "alloc", f"{f.qname} | {atom[0]} -> {path.sink}", f.file, line,
            [f"  source: {atom[0]}",
             f"          reaches taint at {atom[1]}:{atom[2]}",
             f"  alloc:  {path.sink} at {path.file}:{path.line}",
             "  path:"]
            + [f"    {fn} at {fl}:{ln}" for fn, fl, ln in chain]
            + ["  fix: validate the size with a GLOBE_LENGTH_GUARD "
               "clamp (util::checked_count) before allocating"])

    # -- analysis 2: unbounded-growth state --------------------------------

    def _watched(self, f) -> bool:
        if not f.cls:
            return False
        return subsys_of(f.file) in GROWTH_SUBSYS \
            or bool(LONGLIVED_RE.search(f.cls))

    def growth_events(self):
        """{(cls, member) -> {"id", "info", "sites": [(q, file, line, how)]}}"""
        events = {}

        def note(f, member, line, how, types=CONTAINER_TYPES):
            info = self.prog.field_info.get(f.cls, {}).get(member)
            if info is None or info["type"] not in types:
                return
            if member in f.local_types:
                return  # shadowed by a parameter or local
            mid = f"{subsys_of(info['file'])}.{f.cls}.{member}"
            ev = events.setdefault((f.cls, member),
                                   {"id": mid, "info": info, "sites": []})
            ev["sites"].append((f.qname, f.file, line, how))

        for f in self.prog.funcs.values():
            if not f.has_body or not self._watched(f):
                continue
            for st in f.stmts:
                for cs in all_calls(st):
                    if cs.name in GROWTH_METHODS and cs.recv \
                            and len(cs.recv_path) == 1:
                        note(f, cs.recv, cs.line, cs.name)
                if st.compound and st.lhs and not st.lhs_is_member:
                    note(f, st.lhs, st.line, "+=")
                for base in st.subscripts:
                    note(f, base, st.line, "operator[]", MAP_TYPES)
        return events

    def _has_enforcement(self, cls: str, member: str) -> bool:
        for f in self.prog.funcs.values():
            if f.cls != cls or not f.has_body:
                continue
            for st in f.stmts:
                for cs in all_calls(st):
                    if cs.recv == member and len(cs.recv_path) == 1 \
                            and cs.name in EVIDENCE_METHODS:
                        return True
                if st.lhs == member and not st.lhs_is_member \
                        and not st.compound and st.decl_type is None:
                    return True  # wholesale reset (`ring_ = {}`)
        return False

    def finish(self):
        for (cls, member), ev in sorted(self.growth_events().items()):
            mid, info = ev["id"], ev["info"]
            declared = info["bounded"] or mid in self.capacity
            sites = [f"    {q} at {fl}:{ln} ({how})"
                     for q, fl, ln, how in ev["sites"][:6]]
            if not declared:
                self.findings.append(Finding(
                    kind="growth", key=f"{mid} | unbounded-growth",
                    file=info["file"], line=info["line"],
                    detail=[f"  member: {mid} "
                            f"({info['file']}:{info['line']})",
                            "  growth:"] + sites
                    + ["  fix: annotate GLOBE_BOUNDED, enforce a capacity, "
                       "and rank it in tools/capacity_bounds.txt"]))
                continue
            if self.capacity.get(mid) == 0:
                continue  # configuration-time growth: ceiling is the config
            if not self._has_enforcement(cls, member):
                self.findings.append(Finding(
                    kind="growth-unenforced",
                    key=f"{mid} | bounded-unenforced",
                    file=info["file"], line=info["line"],
                    detail=[f"  member: {mid} "
                            f"({info['file']}:{info['line']}) declares a "
                            "bound but the class never shrinks or "
                            "size-checks it",
                            "  growth:"] + sites
                    + ["  fix: add the eviction/capacity check, or rank the "
                       "member capacity 0 if it only grows during trusted "
                       "configuration"]))


# --------------------------------------------------------------------------
# Registry, reporting, modes
# --------------------------------------------------------------------------

def load_capacity(path):
    """Lines: `<capacity> <subsys>.<Class>.<member>  # note`.  Capacity 0
    means the member grows only during trusted configuration."""
    caps = {}
    if not os.path.exists(path):
        return caps
    for lineno, raw in enumerate(open(path, encoding="utf-8"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SystemExit(f"{path}:{lineno}: expected "
                             f"`<capacity> <memberid>`, got: {raw.strip()}")
        try:
            cap = int(parts[0])
        except ValueError:
            raise SystemExit(f"{path}:{lineno}: capacity must be an integer")
        if cap < 0:
            raise SystemExit(f"{path}:{lineno}: capacity must be >= 0")
        if parts[1] in caps:
            raise SystemExit(f"{path}:{lineno}: duplicate member {parts[1]}")
        caps[parts[1]] = cap
    return caps


REGISTRY = ("--capacity", "capacity_bounds.txt", load_capacity,
            re.compile(r"//\s*BOUNDS-CAPACITY:\s*(\d+)\s+(\S+)"))


def render(fd: Finding) -> str:
    return driver.render(fd, HEADLINE, "BOUNDS: finding")


def matches(fd: Finding, kind, detail):
    return fd.kind == kind and (not detail or detail in fd.key)


def stats(an, used, new):
    n_guard = sum(1 for f in an.prog.funcs.values() if ANNOT_GUARD in f.annots)
    n_bounded = sum(1 for fields in an.prog.field_info.values()
                    for info in fields.values() if info["bounded"])
    return (f"[bounds] frontend={used} functions={len(an.prog.funcs)} "
            f"guards={n_guard} bounded_members={n_bounded} "
            f"growth_members={len(an.growth_events())} "
            f"findings={len(an.findings)} "
            f"suppressed={len(an.findings) - len(new)} new={len(new)}")


def run_list(args, this):
    prog, used = driver.build_program(driver.tree_paths(args), args.frontend,
                                      args.compile_commands, this)
    capacity = load_capacity(args.capacity)
    an = Analyzer(prog, capacity)
    print(f"# GLOBE_LENGTH_GUARD functions ({used} frontend)")
    for q in sorted(prog.funcs):
        f = prog.funcs[q]
        if ANNOT_GUARD in f.annots:
            print(f"{q}  ({f.file}:{f.line})")
    print()
    print("# growth members (long-lived classes)")
    for (cls, member), ev in sorted(an.growth_events().items()):
        info = ev["info"]
        cap = capacity.get(ev["id"], "UNRANKED")
        tag = "GLOBE_BOUNDED" if info["bounded"] else "unannotated"
        print(f"{ev['id']}  type={info['type']} cap={cap} {tag}  "
              f"({info['file']}:{info['line']})")
        for q, fl, ln, how in ev["sites"]:
            print(f"    grows in {q} at {fl}:{ln} ({how})")
    return 0


MODES = {"list": ("dump guards, bounded members, growth sites", run_list)}

EXPECT_RE = re.compile(
    r"//\s*BOUNDS-EXPECT:\s*(clean|flag\s+kind=(\S+)(?:\s+detail=(\S+))?)")
