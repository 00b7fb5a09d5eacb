"""Per-function IR both frontends produce, and the call resolution every
pass runs over it."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Arg:
    """One argument expression: identifier references + nested calls."""
    refs: list = field(default_factory=list)
    calls: list = field(default_factory=list)


@dataclass
class CallSite:
    line: int = 0
    chain: list = field(default_factory=list)      # e.g. ["Oid", "matches_key"]
    explicit: bool = False                         # qualified with :: (no receiver)
    array_form: bool = False                       # make_unique<T[]>-style call
    recv: str | None = None                        # receiver variable, if any
    recv_path: list = field(default_factory=list)  # receiver chain idents
    args: list = field(default_factory=list)       # list[Arg]
    lambdas: list = field(default_factory=list)    # lifted lambda qnames in args
    lambda_target: str | None = None               # IIFE / direct lambda call

    @property
    def name(self):
        return self.chain[-1] if self.chain else ""


@dataclass
class Stmt:
    line: int = 0
    is_return: bool = False
    lhs: str | None = None
    lhs_is_member: bool = False                  # write through x.f / x->f / x[i]
    subscripts: list = field(default_factory=list)  # x in every `x[...]`
    compound: bool = False                       # += style: taint accumulates
    decl_type: str | None = None                 # declared type of lhs, if a decl
    refs: list = field(default_factory=list)     # rhs identifier references
    calls: list = field(default_factory=list)    # rhs calls (top level)


@dataclass
class Param:
    name: str | None = None
    type: str | None = None
    annots: set = field(default_factory=set)


@dataclass
class Func:
    qname: str = ""
    file: str = ""
    line: int = 0
    cls: str | None = None
    annots: set = field(default_factory=set)
    params: list = field(default_factory=list)   # list[Param]
    stmts: list = field(default_factory=list)    # linearized body (taint, bounds)
    events: list = field(default_factory=list)   # event body (conc)
    has_body: bool = False
    local_types: dict = field(default_factory=dict)  # var -> type name
    requires: set = field(default_factory=set)   # GLOBE_REQUIRES lock chains


@dataclass
class Program:
    funcs: dict = field(default_factory=dict)    # qname -> Func
    by_name: dict = field(default_factory=dict)  # unqualified -> [qname]
    # class -> {field -> type}, through smart pointers and optional: the
    # receiver typing every pass resolves calls with
    fields: dict = field(default_factory=dict)
    # class -> {field -> {"type","file","line","bounded"}}, "type" as
    # declared: the growth table of the bounds pass, where an
    # `optional<map>` member is no container
    field_info: dict = field(default_factory=dict)
    mutexes: dict = field(default_factory=dict)  # lockid -> info dict
    member_owner: dict = field(default_factory=dict)  # member -> [lockid]

    def add(self, f: Func):
        prev = self.funcs.get(f.qname)
        if prev is None:
            self.funcs[f.qname] = f
            self.by_name.setdefault(f.qname.split("::")[-1], []).append(f.qname)
            return
        # Merge declaration + definition: annotations union (positionally for
        # params), body/param-names from whichever has them.
        prev.annots |= f.annots
        prev.requires |= f.requires
        for i, p in enumerate(f.params):
            if i < len(prev.params):
                prev.params[i].annots |= p.annots
                if prev.params[i].name is None:
                    prev.params[i].name = p.name
                if prev.params[i].type is None:
                    prev.params[i].type = p.type
            else:
                prev.params.append(p)
        if f.has_body and not prev.has_body:
            prev.stmts, prev.events, prev.has_body = f.stmts, f.events, True
            prev.file, prev.line = f.file, f.line
            prev.local_types.update(f.local_types)

    def add_field(self, cls, name, ftype, declared, file, line, bounded):
        info = self.field_info.setdefault(cls, {})
        if name not in info:
            info[name] = {"type": declared, "file": file, "line": line,
                          "bounded": bounded}
        elif bounded:
            info[name]["bounded"] = True
        self.fields.setdefault(cls, {}).setdefault(name, ftype)

    def register_mutex(self, subsys, cls, member, kind, file, line):
        lockid = f"{subsys}.{cls}.{member}"
        if lockid not in self.mutexes:
            self.mutexes[lockid] = {"cls": cls, "member": member,
                                    "kind": kind, "file": file, "line": line}
            self.member_owner.setdefault(member, []).append(lockid)

    def lock_by_cls(self, cls, member):
        for lid, info in self.mutexes.items():
            if info["cls"] == cls and info["member"] == member:
                return lid
        return None


def subsys_of(relpath: str) -> str:
    parts = relpath.replace("\\", "/").split("/")
    if parts[0] == "src" and len(parts) >= 3:
        return parts[1]
    return "test"


@dataclass
class Finding:
    kind: str
    key: str                # baseline suppression key
    file: str = ""
    line: int = 0
    detail: list = field(default_factory=list)


FILTER = "FILTER"  # resolve() verdict for a metadata accessor (size(), ...)


class CallGraph:
    """Call-site resolution over a Program.  Subclasses are the passes'
    analyzers; they set FILTER_METHODS (accessors whose result carries no
    payload) and define signature() (the effects two same-named candidates
    must agree on before a name-only call may resolve to either)."""

    FILTER_METHODS: frozenset = frozenset()
    # Method names of std:: containers/strings.  A receiver call with one of
    # these names and an UNKNOWN receiver type (`em.insert(...)` on a local
    # the frontend couldn't type) must never fall back to name-only
    # resolution — that is how `bytes.insert(...)` would alias onto some
    # project class's `insert` and import its effects.  Receiver calls
    # whose type IS known still resolve normally (so `locator_.insert(...)`
    # finds LocationClient::insert through the field-type step).
    # The std::atomic members belong here too: the tree's `.load()` and
    # `.store()` receivers are mostly untyped.
    STD_METHODS = frozenset({
        "insert", "erase", "assign", "append", "push_back", "pop_back",
        "emplace", "emplace_back", "find", "count", "at", "substr", "clear",
        "resize", "reserve", "begin", "end", "front", "back", "data",
        "c_str", "str", "load", "store", "exchange", "fetch_add",
        "fetch_sub", "compare_exchange_weak", "compare_exchange_strong",
    })

    def __init__(self, prog: Program):
        self.prog = prog
        self.findings: list[Finding] = []

    def signature(self, q):
        raise NotImplementedError

    def resolve(self, cs: CallSite, f: Func):
        """CallSite -> Func, FILTER or None (external / ambiguous)."""
        if cs.lambda_target:
            return self.prog.funcs.get(cs.lambda_target)
        name = cs.name
        if name in self.FILTER_METHODS:
            return FILTER
        if cs.explicit and cs.chain[0] == "std":
            # std::fill(...) is the standard library, never a project
            # method that happens to share its bare name.
            return None
        cands = self.prog.by_name.get(name, [])
        if cs.explicit and len(cs.chain) >= 2:
            suffix = "::".join(cs.chain)
            matches = [q for q in cands
                       if q == suffix or q.endswith("::" + suffix)
                       or suffix.endswith("::" + q)]
            if matches:
                return self.prog.funcs[matches[0]]
        if cs.recv is not None:
            rtype = self.type_of(cs.recv_path, f)
            if rtype:
                matches = [q for q in cands
                           if q.endswith(f"::{rtype}::{name}")
                           or q == f"{rtype}::{name}"]
                if matches:
                    return self.prog.funcs[matches[0]]
                # The receiver's type is known and has no such method in
                # the index: an external call (std container, stdlib).
                return None
            if name in self.STD_METHODS:
                return None
        # Name-only fallback: drop candidates that cannot be this call —
        # more arguments than parameters, or a free function invoked
        # through a receiver.
        cands = [q for q in cands if self._viable(cs, q)]
        if len(cands) == 1:
            return self.prog.funcs[cands[0]]
        if len(cands) > 1:
            sig0 = self.signature(cands[0])
            if all(self.signature(q) == sig0 for q in cands[1:]):
                return self.prog.funcs[cands[0]]
        return None

    def _viable(self, cs: CallSite, q: str) -> bool:
        cand = self.prog.funcs[q]
        if len(cs.args) > len(cand.params):
            return False
        return cs.recv is None or cand.cls is not None

    def type_of(self, path, f: Func):
        """Type of a variable/member chain (`host`, `node.state`) seen from
        inside f, or None."""
        if not path:
            return None
        t = f.local_types.get(path[0])
        if t is None and f.cls:
            t = self.prog.fields.get(f.cls, {}).get(path[0])
        for name in path[1:]:
            if t is None:
                return None
            t = self.prog.fields.get(t, {}).get(name)
        return t

    def dedupe(self):
        seen = set()
        uniq = []
        for fd in self.findings:
            if fd.key not in seen:
                seen.add(fd.key)
                uniq.append(fd)
        self.findings = uniq


def all_calls(st: Stmt):
    """Every call of a statement, outer before nested."""
    out = []

    def rec(calls):
        for c in calls:
            out.append(c)
            for a in c.args:
                rec(a.calls)
    rec(st.calls)
    return out
