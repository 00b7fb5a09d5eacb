"""Concurrency-hazard pass (DESIGN.md §13): lock acquisitions must follow
tools/lock_hierarchy.txt, and no blocking call (GLOBE_BLOCKING, condvar
waits, sleeps) may be reachable while a mutex is held.

Its body IR is a list of events (guard acquire/release, manual lock and
unlock, condvar wait, call) rather than the statement IR of the other
passes, so it supplies its own body parsers to both frontends; lambdas are
lifted into functions of their own."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from . import driver, libclang, lite
from .ir import Arg, CallGraph, CallSite, Finding, Func, Param
from .lexer import KEYWORDS, MACROS, is_ident, match_forward, split_top
from .lite import base_type, lock_chain, unwrap_type

ANNOT_BLOCKING = "blocking"

NAME = "conc"
ANNOTS = {ANNOT_BLOCKING}

GUARD_KINDS = {"LockGuard": "guard", "RecursiveLockGuard": "guard_rec",
               "UniqueLock": "unique"}

# Thread primitives that park the calling thread without an annotation of
# their own (std::this_thread & friends).
SLEEP_FNS = {"sleep_for", "sleep_until", "usleep", "nanosleep"}

MAX_CHAIN = 8  # call-chain depth cap in diagnostics


@dataclass
class Ev:
    """One concurrency-relevant event, in textual order.

    kind: 'acq'  guard declaration        (var, lock, guard)
          'rel'  guard leaves scope       (var)
          'mlock'/'munlock' manual calls  (lock)
          'wait' condvar wait on a guard  (var)
          'call' any other call           (cs)
    lock: either a tuple of ident chain ('mu_',) / ('host','lock') or a
          clang-resolved ('::', Class, member) triple.
    """
    kind: str
    line: int = 0
    var: str | None = None
    lock: tuple = ()
    guard: str = ""
    cs: CallSite | None = None


# --------------------------------------------------------------------------
# Lite body parser: lambda lifting + events
# --------------------------------------------------------------------------

_LAMBDA_PREV = {None, "(", ",", "=", "return", "{", ";", ":", "?",
                "&&", "||", "!", "co_return"}
_LAMBDA_PH = re.compile(r"^__GLOBE_LAMBDA__(.+)__$")


def _lift_lambdas(toks, owner_qname, sink, counter):
    """Replaces every lambda literal in `toks` with a placeholder ident and
    appends (qname, param_toks, body_toks, line) records to `sink`.
    Nested lambdas are lifted recursively.  Returns the rewritten tokens."""
    out = []
    i, n = 0, len(toks)
    while i < n:
        t, line = toks[i]
        if t == "[":
            prev = out[-1][0] if out else None
            # `[[` attribute or indexing (`x[i]`) are not lambdas.
            nxt = toks[i + 1][0] if i + 1 < n else None
            if prev in _LAMBDA_PREV and nxt != "[":
                k = match_forward(toks, i, "[", "]")
                param_toks = []
                if k < n and toks[k][0] == "(":
                    pend = match_forward(toks, k, "(", ")")
                    param_toks = toks[k + 1:pend - 1]
                    k = pend
                # specifiers / trailing return up to the body brace
                while k < n and toks[k][0] not in ("{", ";", ")", ","):
                    k += 1
                if k < n and toks[k][0] == "{":
                    bend = match_forward(toks, k, "{", "}")
                    qn = f"{owner_qname}::$lambda{counter[0]}"
                    counter[0] += 1
                    body = _lift_lambdas(toks[k + 1:bend - 1], owner_qname,
                                         sink, counter)
                    sink.append((qn, param_toks, body, line))
                    out.append((f"__GLOBE_LAMBDA__{qn}__", line))
                    i = bend
                    continue
        out.append(toks[i])
        i += 1
    return out


def _guard_decl(seg):
    """Matches `[util::]GuardType var(lockexpr);` -> (kind, var, chain, line)
    or None."""
    for i, (name, line) in enumerate(seg):
        if name in GUARD_KINDS:
            # must be the type position: the next ident is the variable
            j = i + 1
            if j < len(seg) and seg[j][0] == "<":
                j = match_forward(seg, j, "<", ">")
            if j < len(seg) and is_ident(seg[j][0]) \
                    and seg[j][0] not in KEYWORDS:
                var = seg[j][0]
                k = j + 1
                if k < len(seg) and seg[k][0] in ("(", "{"):
                    close_t = ")" if seg[k][0] == "(" else "}"
                    end = match_forward(seg, k, seg[k][0], close_t)
                    parts = split_top(seg[k + 1:end - 1])
                    chain = lock_chain(parts[0]) if parts else ()
                    return (GUARD_KINDS[name], var, chain, line)
        if name in ("return", "if", "while", "for"):
            break
    return None


def _flat_calls(calls):
    """Calls of an expression with nested argument calls first."""
    for cs in calls:
        for a in cs.args:
            yield from _flat_calls(a.calls)
        yield cs


def _stmt_events(seg, scopes, events, local_types):
    """Appends events for one statement's tokens.  `scopes` is the full
    stack of guard-variable scopes (innermost last)."""
    while seg and seg[0][0] in ("else", "do", "try"):
        seg = seg[1:]
    if not seg or seg[0][0] in ("case", "default", "goto", "using", "public",
                                "private", "protected", "break", "continue"):
        return
    gd = _guard_decl(seg)
    if gd is not None:
        kind, var, chain, line = gd
        events.append(Ev("acq", line=line, var=var, lock=chain, guard=kind))
        scopes[-1].append(var)
        return
    _refs, calls = lite.parse_expr(seg)
    # Remember `Foo x` declarations for receiver typing (cheap heuristic:
    # the type may be namespace-qualified (`rpc::RpcClient replica(...)`), so
    # take the first uppercase-ish of two leading idents as the type and the
    # next as the name).
    lead = [tk[0] for tk in seg[:6] if is_ident(tk[0])
            and tk[0] not in KEYWORDS and tk[0] not in MACROS]
    for li in range(min(2, max(0, len(lead) - 1))):
        if lead[li][:1].isupper():
            local_types.setdefault(lead[li + 1], lead[li])
            break
    for cs in _flat_calls(calls):
        arg_refs = [r for a in cs.args for r in a.refs]
        ph = _LAMBDA_PH.match(cs.name)
        if ph and len(cs.chain) == 1:
            cs.lambda_target = ph.group(1)
            events.append(Ev("call", line=cs.line, cs=cs))
            continue
        # collect lambda placeholders passed as arguments
        for r in arg_refs:
            m = _LAMBDA_PH.match(r)
            if m:
                cs.lambdas.append(m.group(1))
        if cs.name == "wait" and arg_refs \
                and any(arg_refs[0] in sc for sc in scopes):
            events.append(Ev("wait", line=cs.line, var=arg_refs[0]))
            continue
        if cs.name in ("lock", "unlock") and cs.recv_path and not cs.args:
            kind = "mlock" if cs.name == "lock" else "munlock"
            events.append(Ev(kind, line=cs.line, lock=tuple(
                x for x in cs.recv_path
                if x not in ("util", "globe", "std"))))
            continue
        if cs.name == "try_lock":
            continue
        events.append(Ev("call", line=cs.line, cs=cs))


def _build_events(toks, local_types):
    """Linearizes a body into events with scope-accurate guard release:
    a guard declared in a block emits an explicit 'rel' at that block's
    closing brace, which stays correct under early returns (the next
    acquisition in the outer scope sees the right held-set)."""
    events = []
    scopes = [[]]          # stack of [guard vars declared in this scope]
    for seg, brace, line in lite.split_body(toks):
        _stmt_events(seg, scopes, events, local_types)
        if brace == "{":
            scopes.append([])
        elif brace == "}" and len(scopes) > 1:
            for var in reversed(scopes.pop()):
                events.append(Ev("rel", line=line, var=var))
    # function exit: release anything still registered (top scope)
    for var in reversed(scopes[0]):
        events.append(Ev("rel", line=0, var=var))
    return events


def lite_body(f: Func, toks):
    lifted = []
    f.events = _build_events(_lift_lambdas(toks, f.qname, lifted, [0]),
                             f.local_types)
    extra = []
    for qn, ptoks, btoks, line in lifted:
        lf = Func(qname=qn, file=f.file, line=line, cls=f.cls, has_body=True,
                  params=lite.parse_params(ptoks, ANNOTS))
        lf.local_types.update(lite.param_types(lf.params))
        lf.events = _build_events(btoks, lf.local_types)
        extra.append(lf)
    return extra


# --------------------------------------------------------------------------
# libclang body walker
# --------------------------------------------------------------------------

def clang_body(f: Func, body_cur):
    K = libclang.ci.CursorKind
    extra = []
    lcount = {}  # owner qname -> lambdas lifted so far

    def mutex_field(cursor):
        """referenced FIELD_DECL that is a util Mutex -> ('::', cls, member)
        or None."""
        ref = cursor.referenced
        if ref is None or ref.kind != K.FIELD_DECL:
            return None
        if unwrap_type(ref.type.spelling) not in lite.MUTEX_TYPES:
            return None
        owner = ref.semantic_parent.spelling if ref.semantic_parent else None
        return ("::", owner, ref.spelling) if owner else None

    def find_lock_ref(node):
        """First util-Mutex field reference in a subtree."""
        if node.kind in (K.MEMBER_REF_EXPR, K.DECL_REF_EXPR):
            mf = mutex_field(node)
            if mf:
                return mf
        for ch in node.get_children():
            r = find_lock_ref(ch)
            if r:
                return r
        return None

    def collect_refs(node, refs):
        if node.kind in (K.DECL_REF_EXPR, K.MEMBER_REF_EXPR) and node.spelling:
            refs.append(node.spelling)
        for ch in node.get_children():
            collect_refs(ch, refs)
        return refs

    def find_lambdas(node, out):
        """LAMBDA_EXPR cursors not nested inside a further CALL_EXPR."""
        if node.kind == K.LAMBDA_EXPR:
            out.append(node)
        elif node.kind != K.CALL_EXPR:
            for ch in node.get_children():
                find_lambdas(ch, out)
        return out

    def lift_lambda(node, owner: Func):
        idx = lcount.get(owner.qname, 0)
        lcount[owner.qname] = idx + 1
        lf = Func(qname=f"{owner.qname}::$lambda{idx}", file=owner.file,
                  line=node.location.line, cls=owner.cls)
        body = None
        for ch in node.get_children():
            if ch.kind == K.COMPOUND_STMT:
                body = ch
            elif ch.kind == K.PARM_DECL:
                lf.params.append(Param(name=ch.spelling or None))
                bt = unwrap_type(ch.type.spelling)
                if ch.spelling and bt:
                    lf.local_types[ch.spelling] = bt
        if body is not None:
            lf.has_body = True
            walk(body, lf.events, [[]], lf)
        extra.append(lf)
        return lf.qname

    def handle_call(node, events, scopes, fn):
        ref = node.referenced
        name = (ref.spelling if ref is not None and ref.spelling
                else node.spelling) or ""
        args = list(node.get_arguments())
        children = list(node.get_children())
        cs = CallSite(line=node.location.line)
        # receiver path (member calls put the base expr first)
        has_base = children and (not args or children[0] != args[0])
        base_refs = collect_refs(children[0], []) if has_base else []
        if ref is not None and ref.spelling:
            cs.chain = libclang.qualified(ref).split("::")
            cs.explicit = True
        else:
            cs.chain = [name or "?"]
        if base_refs:
            cs.recv = base_refs[0]
            cs.recv_path = base_refs
        cs.args = [Arg() for _ in args]
        # IIFE: the callee expression itself is a lambda
        if has_base and name in ("operator()", ""):
            callee_lams = find_lambdas(children[0], [])
            if callee_lams:
                cs.lambda_target = lift_lambda(callee_lams[0], fn)
        for a in args:
            for lam in find_lambdas(a, []):
                cs.lambdas.append(lift_lambda(lam, fn))
            walk(a, events, scopes, fn)  # nested calls first
        if cs.lambda_target:
            events.append(Ev("call", line=cs.line, cs=cs))
            return
        # std::function invocation: `listener_(...)` presents as a call to
        # function<...>::operator() — normalize to an indirect call through
        # the receiver field so callback binding can resolve it.
        if name == "operator()" and base_refs:
            cs.chain = [base_refs[-1]]
            cs.explicit = False
            cs.recv = None
            cs.recv_path = []
            events.append(Ev("call", line=cs.line, cs=cs))
            return
        if name == "wait" and args:
            wrefs = collect_refs(args[0], [])
            if wrefs and any(wrefs[0] in sc for sc in scopes):
                events.append(Ev("wait", line=node.location.line,
                                 var=wrefs[0]))
                return
        if name in ("lock", "unlock", "try_lock") and children:
            mf = find_lock_ref(children[0])
            if mf:
                if name != "try_lock":
                    events.append(Ev("mlock" if name == "lock" else "munlock",
                                     line=node.location.line, lock=mf))
                return
        events.append(Ev("call", line=cs.line, cs=cs))

    def walk(node, events, scopes, fn):
        k = node.kind
        if k == K.COMPOUND_STMT:
            scopes.append([])
            for ch in node.get_children():
                walk(ch, events, scopes, fn)
            for var in reversed(scopes.pop()):
                events.append(Ev("rel", line=node.extent.end.line, var=var))
            return
        if k == K.LAMBDA_EXPR:
            lift_lambda(node, fn)
            return
        if k == K.CALL_EXPR:
            handle_call(node, events, scopes, fn)
            return
        if k == K.DECL_STMT:
            for ch in node.get_children():
                if ch.kind != K.VAR_DECL:
                    continue
                base = base_type(ch.type.spelling)
                if base in GUARD_KINDS:
                    lockref = find_lock_ref(ch)
                    if lockref is None:
                        lockref = tuple(r for r in collect_refs(ch, [])
                                        if r != ch.spelling)
                    events.append(Ev("acq", line=ch.location.line,
                                     var=ch.spelling, lock=lockref,
                                     guard=GUARD_KINDS[base]))
                    scopes[-1].append(ch.spelling)
                    continue
                if ch.spelling and base:
                    fn.local_types[ch.spelling] = unwrap_type(ch.type.spelling)
                for sub in ch.get_children():
                    walk(sub, events, scopes, fn)
            return
        for ch in node.get_children():
            walk(ch, events, scopes, fn)

    walk(body_cur, f.events, [[]], f)
    return extra


BODY = (lite_body, clang_body)


# --------------------------------------------------------------------------
# Analysis
# --------------------------------------------------------------------------

@dataclass
class CSummary:
    acquires: dict = field(default_factory=dict)  # lockid -> (file,line,chain)
    blocks: dict = field(default_factory=dict)    # sinkdesc -> (file,line,chain)


class Analyzer(CallGraph):
    # std:: method names that must never alias onto project code when the
    # receiver is untyped: the shared list plus adaptor/smart-pointer calls.
    STD_METHODS = CallGraph.STD_METHODS | {
        "push", "pop", "top", "get", "reset", "swap", "size", "empty"}

    def __init__(self, prog, hier=None):
        super().__init__(prog)
        self.hier = hier or {}
        self.sum: dict[str, CSummary] = {}
        self.edges: dict = {}   # (H, L) -> (func, file, line, chain)
        for q, f in prog.funcs.items():
            s = CSummary()
            if ANNOT_BLOCKING in f.annots:
                s.blocks[q] = (f.file, f.line, ())
            self.sum[q] = s
        self.bound: dict[str, list] = {}   # class -> [lambda qnames]
        self._bind_callbacks()

    def signature(self, q):
        s = self.sum[q]
        return (ANNOT_BLOCKING in self.prog.funcs[q].annots,
                tuple(sorted(s.acquires)), tuple(sorted(s.blocks)))

    # -- callback binding --------------------------------------------------

    def _bind_callbacks(self):
        """A lambda passed to a method of class T is considered invocable by
        any of T's methods through a callable field or parameter — this is
        how `listener_(key, why)` inside ElementCache reaches the lambda the
        cache tier registered on it."""
        for f in self.prog.funcs.values():
            for ev in f.events:
                if ev.kind != "call" or ev.cs is None or not ev.cs.lambdas:
                    continue
                t = self.resolve(ev.cs, f)
                if t is not None and t.cls:
                    lst = self.bound.setdefault(t.cls, [])
                    for qn in ev.cs.lambdas:
                        if qn not in lst:
                            lst.append(qn)

    def resolve_targets(self, cs: CallSite, f: Func) -> list:
        t = self.resolve(cs, f)
        if t is not None:
            return [t]
        # Indirect call through a callable field / parameter: the bound
        # lambdas of the enclosing class are the candidate targets.
        if len(cs.chain) == 1 and f.cls:
            name = cs.name
            if name in self.prog.fields.get(f.cls, {}) \
                    or any(p.name == name for p in f.params) \
                    or f.local_types.get(name) == "function":
                return [self.prog.funcs[q]
                        for q in self.bound.get(f.cls, [])
                        if q in self.prog.funcs]
        return []

    def resolve_lock(self, lockref, f: Func):
        """Lock expression -> lockid or None."""
        if not lockref:
            return None
        if lockref[0] == "::":
            _, cls, member = lockref
            lid = self.prog.lock_by_cls(cls, member)
            if lid:
                return lid
        else:
            member = lockref[-1]
            cls = f.cls if len(lockref) == 1 else self.type_of(lockref[:-1], f)
            lid = cls and self.prog.lock_by_cls(cls, member)
            if lid:
                return lid
        owners = self.prog.member_owner.get(lockref[-1], [])
        return owners[0] if len(owners) == 1 else None

    # -- fixpoint ----------------------------------------------------------

    def run(self):
        changed = True
        guard = 0
        while changed and guard < 60:
            changed = False
            guard += 1
            self.findings = []
            self.edges = {}
            for f in self.prog.funcs.values():
                if f.has_body and self._analyze_function(f):
                    changed = True
        self._find_cycles()
        self.dedupe()

    def _is_recursive(self, lid, guard_kind=""):
        if guard_kind == "guard_rec":
            return True
        info = self.prog.mutexes.get(lid)
        return bool(info and info["kind"] == "recursive")

    def _check_edge(self, H, L, f, line, hinfo, via):
        self.edges.setdefault((H, L), (f.qname, f.file, line, via))
        rH, rL = self.hier.get(H), self.hier.get(L)
        via_lines = [f"    {fn} at {fl}:{ln}" for fn, fl, ln in via[:MAX_CHAIN]]
        if rH is None or rL is None:
            missing = [x for x, r in ((H, rH), (L, rL)) if r is None]
            self.findings.append(Finding(
                kind="unranked",
                key=f"{f.qname} | unranked {H} -> {L}",
                file=f.file, line=line,
                detail=[f"  acquires {L} while holding {H} "
                        f"(held since {f.file}:{hinfo[0]})",
                        f"  unranked mutex(es): {', '.join(missing)} — add "
                        "to tools/lock_hierarchy.txt"] + via_lines))
        elif rH >= rL:
            self.findings.append(Finding(
                kind="order",
                key=f"{f.qname} | order {H} -> {L}",
                file=f.file, line=line,
                detail=[f"  acquires {L} (rank {rL}) while holding {H} "
                        f"(rank {rH}, held since {f.file}:{hinfo[0]})",
                        "  declared order requires "
                        f"{L if rL < rH else H} to be acquired first"]
                + via_lines))

    def _block_finding(self, H, f, line, hinfo, descs):
        rep = min(descs)
        chain = descs[rep]
        more = len(descs) - 1
        detail = [f"  blocking call: {rep}"
                  + (f" (+{more} more reachable sink(s))" if more else ""),
                  f"  while holding {H} (held since {f.file}:{hinfo[0]})"]
        detail += [f"    via {fn} at {fl}:{ln}"
                   for fn, fl, ln in chain[:MAX_CHAIN]]
        self.findings.append(Finding(
            kind="block", key=f"{f.qname} | block {H}",
            file=f.file, line=line, detail=detail))

    def _analyze_function(self, f: Func) -> bool:
        s = self.sum[f.qname]
        grew = False
        held: dict = {}     # lid -> [ (line, seeded) ] stack
        guards: dict = {}   # guard var -> lid (or None)

        for ch in f.requires:
            lid = self.resolve_lock(ch, f)
            if lid is not None:
                held.setdefault(lid, []).append((f.line, True))

        def held_items():
            return [(H, stack[0]) for H, stack in held.items() if stack]

        def do_acquire(lid, line, guard_kind, var):
            nonlocal grew
            if lid is None:
                if var is not None:
                    guards[var] = None
                return
            if held.get(lid) and not self._is_recursive(lid, guard_kind):
                self.findings.append(Finding(
                    kind="deadlock", key=f"{f.qname} | deadlock {lid}",
                    file=f.file, line=line,
                    detail=[f"  re-acquires non-recursive {lid} already "
                            f"held (since {f.file}:{held[lid][0][0]})"]))
            else:
                for H, hinfo in held_items():
                    if H != lid:
                        self._check_edge(H, lid, f, line, hinfo, ())
            held.setdefault(lid, []).append((line, False))
            if var is not None:
                guards[var] = lid
            if lid not in s.acquires:
                s.acquires[lid] = (f.file, line, ())
                grew = True

        def do_release(lid):
            stack = held.get(lid)
            if stack:
                stack.pop()

        def export_block(desc, line, chain):
            nonlocal grew
            if desc not in s.blocks and len(chain) <= MAX_CHAIN:
                s.blocks[desc] = (f.file, line, chain)
                grew = True

        for ev in f.events:
            if ev.kind == "acq":
                do_acquire(self.resolve_lock(ev.lock, f), ev.line,
                           ev.guard, ev.var)
            elif ev.kind == "rel":
                lid = guards.pop(ev.var, None)
                if lid is not None:
                    do_release(lid)
            elif ev.kind == "mlock":
                do_acquire(self.resolve_lock(ev.lock, f), ev.line, "manual",
                           None)
            elif ev.kind == "munlock":
                lid = self.resolve_lock(ev.lock, f)
                if lid is not None:
                    do_release(lid)
            elif ev.kind == "wait":
                own = guards.get(ev.var)
                desc = "util::CondVar::wait"
                export_block(desc, ev.line, ())
                for H, hinfo in held_items():
                    if H != own:   # waiting releases only its OWN lock
                        self._block_finding(H, f, ev.line, hinfo,
                                            {desc: ()})
            elif ev.kind == "call":
                cs = ev.cs
                if cs.name in SLEEP_FNS:
                    desc = f"sleep ({cs.name})"
                    export_block(desc, ev.line, ())
                    for H, hinfo in held_items():
                        self._block_finding(H, f, ev.line, hinfo, {desc: ()})
                    continue
                for t in self.resolve_targets(cs, f):
                    ts = self.sum[t.qname]
                    hop = (t.qname, t.file, t.line)
                    bdescs = {}
                    if ANNOT_BLOCKING in t.annots:
                        bdescs[t.qname] = (hop,)
                    for d, (_df, _dl, dchain) in ts.blocks.items():
                        if d != t.qname and len(dchain) < MAX_CHAIN:
                            bdescs.setdefault(d, (hop,) + dchain)
                    for d, chain in bdescs.items():
                        export_block(d, ev.line, chain)
                    if bdescs:
                        for H, hinfo in held_items():
                            self._block_finding(H, f, ev.line, hinfo, bdescs)
                    for L, (_lf, _ll, lchain) in ts.acquires.items():
                        via = ((hop,) + lchain)[:MAX_CHAIN]
                        if held.get(L) and not self._is_recursive(L):
                            self.findings.append(Finding(
                                kind="deadlock",
                                key=f"{f.qname} | deadlock {L}",
                                file=f.file, line=ev.line,
                                detail=[f"  calls {t.qname}, which acquires "
                                        f"{L} already held (since "
                                        f"{f.file}:{held[L][0][0]})"]
                                + [f"    via {fn} at {fl}:{ln}"
                                   for fn, fl, ln in via]))
                        else:
                            for H, hinfo in held_items():
                                if H != L:
                                    self._check_edge(H, L, f, ev.line,
                                                     hinfo, via)
                        if L not in s.acquires and len(lchain) < MAX_CHAIN:
                            s.acquires[L] = (f.file, ev.line, via)
                            grew = True
        return grew

    def _find_cycles(self):
        adj: dict = {}
        for (H, L) in self.edges:
            adj.setdefault(H, []).append(L)
        color: dict = {}
        stack: list = []
        cycles = set()

        def dfs(u):
            color[u] = 1
            stack.append(u)
            for v in sorted(adj.get(u, [])):
                if color.get(v, 0) == 0:
                    dfs(v)
                elif color.get(v) == 1:
                    cyc = stack[stack.index(v):]
                    k = cyc.index(min(cyc))
                    cycles.add(tuple(cyc[k:] + cyc[:k]))
            stack.pop()
            color[u] = 2

        for u in sorted(adj):
            if color.get(u, 0) == 0:
                dfs(u)
        for cyc in sorted(cycles):
            path = " -> ".join(cyc + (cyc[0],))
            detail = []
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                fn, fl, ln, _via = self.edges[(a, b)]
                detail.append(f"  {a} -> {b}: {fn} at {fl}:{ln}")
            self.findings.append(Finding(
                kind="cycle", key=f"lock-graph | cycle {path}",
                detail=detail))


# --------------------------------------------------------------------------
# Registry, reporting, modes
# --------------------------------------------------------------------------

def load_hierarchy(path):
    """Lines: `<rank> <lockid>  [# comment]`.  Lower rank = outer lock."""
    ranks = {}
    if not os.path.exists(path):
        return ranks
    for lineno, raw in enumerate(open(path, encoding="utf-8"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SystemExit(f"{path}:{lineno}: expected `<rank> <lockid>`, "
                             f"got: {raw.strip()}")
        try:
            rank = int(parts[0])
        except ValueError:
            raise SystemExit(f"{path}:{lineno}: rank must be an integer")
        if parts[1] in ranks:
            raise SystemExit(f"{path}:{lineno}: duplicate lock id {parts[1]}")
        ranks[parts[1]] = rank
    return ranks


REGISTRY = ("--hierarchy", "lock_hierarchy.txt", load_hierarchy,
            re.compile(r"//\s*CONC-HIERARCHY:\s*(-?\d+)\s+(\S+)"))

HEADLINE = {
    "order":    "CONC: lock acquisition violates the declared hierarchy",
    "unranked": "CONC: lock acquisition edge touches an unranked mutex",
    "block":    "CONC: blocking call reachable while a lock is held",
    "deadlock": "CONC: self-deadlock on a non-recursive mutex",
    "cycle":    "CONC: cycle in the lock-acquisition graph",
}
OK = ("lock order respects the declared hierarchy and no lock is held "
      "across a blocking call (modulo justified baseline)")


def render(fd: Finding) -> str:
    return driver.render(fd, HEADLINE, "CONC: finding")


def matches(fd: Finding, kind, detail):
    return fd.kind == kind and (not detail or detail in fd.key)


def stats(an, used, new):
    n_block = sum(1 for s in an.sum.values() if s.blocks)
    ranked = sum(1 for lid in an.prog.mutexes if lid in an.hier)
    return (f"[conc] frontend={used} functions={len(an.prog.funcs)} "
            f"mutexes={len(an.prog.mutexes)} ranked={ranked} "
            f"edges={len(an.edges)} blocking_fns={n_block} "
            f"findings={len(an.findings)} "
            f"suppressed={len(an.findings) - len(new)} new={len(new)}")


def run_edges(args, this):
    an, used = driver.analyze(args, this)
    print(f"# lock-acquisition edges ({used} frontend); "
          "H -> L means L acquired while H held")
    for (H, L), (fn, fl, ln, _via) in sorted(an.edges.items()):
        print(f"{H} (rank {an.hier.get(H, '?')}) -> {L} "
              f"(rank {an.hier.get(L, '?')})   first: {fn} at {fl}:{ln}")
    print()
    print("# functions that may block (transitively)")
    for q in sorted(an.sum):
        f = an.prog.funcs.get(q)
        if an.sum[q].blocks and f and (f.has_body or f.annots):
            print(f"{q}: {', '.join(sorted(an.sum[q].blocks)[:4])}")
    return 0


def run_list(args, this):
    hier = load_hierarchy(args.hierarchy)
    prog, used = driver.build_program(driver.tree_paths(args), args.frontend,
                                      args.compile_commands, this)
    print(f"# mutex registry ({used} frontend)")
    for lid in sorted(prog.mutexes):
        info = prog.mutexes[lid]
        print(f"{lid}  kind={info['kind']} rank={hier.get(lid, 'UNRANKED')}  "
              f"({info['file']}:{info['line']})")
    print()
    print("# GLOBE_BLOCKING-annotated functions")
    for q in sorted(prog.funcs):
        f = prog.funcs[q]
        if ANNOT_BLOCKING in f.annots:
            print(f"{q}  ({f.file}:{f.line})")
    return 0


MODES = {
    "edges": ("dump the lock-acquisition graph and blockers", run_edges),
    "list": ("dump mutex registry and blocking functions", run_list),
}

EXPECT_RE = re.compile(
    r"//\s*CONC-EXPECT:\s*(clean|flag\s+kind=(\S+)(?:\s+detail=(\S+))?)")
