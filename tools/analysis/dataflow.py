"""Flow-sensitive source-to-sink dataflow shared by the taint and bounds
passes.

Values derived from a GLOBE_UNTRUSTED source are tracked through each
function's linearized statements (textual order, so clean-then-retaint is
caught) and across calls by an interprocedural fixpoint over summaries:

  * ``returns``   — which parameters (or internal sources) flow to the
                    return value;
  * ``cleans``    — parameters the function validates: annotated cleaners
                    (the pass's CLEAN annotation), plus functions that pass
                    a parameter straight into one;
  * ``sink paths``— which parameters reach a sink inside the function or
                    transitively through its callees (multi-hop chains).

A pass names its cleaner and sink annotations and decides which call
arguments are sinks (``sinks_at``); a concrete source reaching a sink with
no cleaner in between becomes a Finding carrying the full call chain."""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import FILTER, CallGraph, CallSite, Finding, Func, Program, all_calls

ANNOT_UNTRUSTED = "untrusted"


class SourceAtom(tuple):
    """(desc, file, line) — a concrete taint origin."""
    __slots__ = ()

    def __new__(cls, desc, file, line):
        return super().__new__(cls, (desc, file, line))


class ParamAtom(tuple):
    """(param_index,) — symbolic taint of the enclosing function's param."""
    __slots__ = ()

    def __new__(cls, i):
        return super().__new__(cls, (i,))


@dataclass
class SinkPath:
    sink: str                       # sink name (qname, "alloc:...", ...)
    file: str = ""
    line: int = 0
    chain: tuple = ()               # ((func_qname, file, line), ...)


@dataclass
class Summary:
    returns_param: set = field(default_factory=set)      # param indices
    returns_sources: set = field(default_factory=set)    # SourceAtoms
    cleans: set = field(default_factory=set)             # param indices
    cleans_all: bool = False
    sink_params: dict = field(default_factory=dict)      # idx -> [SinkPath]
    return_sink: bool = False


class Dataflow(CallGraph):
    CLEAN = ""           # annotation that validates its inputs and result
    SINK = None          # annotation marking sink params / a sink return
    MAX_CHAIN = 12       # call-chain depth cap when materializing findings

    def __init__(self, prog: Program):
        super().__init__(prog)
        self.sum: dict[str, Summary] = {}
        for q, f in prog.funcs.items():
            s = Summary(cleans_all=self.CLEAN in f.annots,
                        return_sink=self.SINK in f.annots)
            for i, p in enumerate(f.params):
                if self.CLEAN in p.annots:
                    s.cleans.add(i)
                if self.SINK in p.annots:
                    s.sink_params.setdefault(i, []).append(
                        SinkPath(sink=q, file=f.file, line=f.line))
            self.sum[q] = s

    # -- pass hooks --------------------------------------------------------

    def sinks_at(self, cs: CallSite, callee, f: Func):
        """Yields (arg_index, [SinkPath]) for the sink arguments of cs;
        `callee` is its resolution (a Func, FILTER or None)."""
        raise NotImplementedError

    def finding(self, f: Func, line, atom: SourceAtom, path: SinkPath,
                chain) -> Finding:
        raise NotImplementedError

    def finish(self):
        """Runs after the fixpoint, before findings are deduplicated."""

    def signature(self, q):
        s = self.sum[q]
        return (self.prog.funcs[q].annots, tuple(sorted(s.sink_params)),
                tuple(sorted(s.cleans)))

    # -- phase 1: derived cleaners -----------------------------------------

    def _opaque(self, callee: Func) -> bool:
        """Known symbol, but no body and no annotations anywhere: its
        dataflow is unknowable, so treat it like an external function."""
        return (not callee.has_body and not callee.annots
                and not any(p.annots for p in callee.params)
                and not self.sum[callee.qname].sink_params
                and not self.sum[callee.qname].cleans)

    def compute_cleaners(self):
        changed = True
        guard = 0
        while changed and guard < 50:
            changed = False
            guard += 1
            for q, f in self.prog.funcs.items():
                if not f.has_body:
                    continue
                s = self.sum[q]
                pidx = {p.name: i for i, p in enumerate(f.params) if p.name}
                for st in f.stmts:
                    for cs in all_calls(st):
                        callee = self.resolve(cs, f)
                        if callee in (None, FILTER):
                            continue
                        csum = self.sum[callee.qname]
                        # receiver position: `p.verify(...)`
                        if cs.recv in pidx and csum.cleans_all:
                            if pidx[cs.recv] not in s.cleans:
                                s.cleans.add(pidx[cs.recv])
                                changed = True
                        for ai, arg in enumerate(cs.args):
                            names = set(arg.refs)
                            if len(names) != 1 or arg.calls and \
                                    any(c.name not in ("move",) for c in arg.calls):
                                continue
                            nm = next(iter(names))
                            if nm not in pidx:
                                continue
                            if csum.cleans_all or ai in csum.cleans:
                                if pidx[nm] not in s.cleans:
                                    s.cleans.add(pidx[nm])
                                    changed = True

    # -- phase 2: taint fixpoint -------------------------------------------

    def run(self):
        self.compute_cleaners()
        changed = True
        guard = 0
        while changed and guard < 50:
            changed = False
            guard += 1
            self.findings = []
            for f in self.prog.funcs.values():
                if f.has_body and self._analyze_function(f):
                    changed = True
        # the final pass already produced self.findings
        self.finish()
        self.dedupe()

    def _analyze_function(self, f: Func) -> bool:
        """Returns True if f's summary grew."""
        s = self.sum[f.qname]
        state: dict[str, set] = {}
        for i, p in enumerate(f.params):
            atoms = {ParamAtom(i)}
            if ANNOT_UNTRUSTED in p.annots:
                atoms.add(SourceAtom(f"{f.qname} (untrusted param"
                                     f" '{p.name or i}')", f.file, f.line))
            if p.name:
                state[p.name] = atoms
        grew = False

        def eval_arg(arg) -> set:
            atoms = set()
            for r in arg.refs:
                atoms |= state.get(r, set())
            for c in arg.calls:
                atoms |= call_atoms(c)
            return atoms

        def call_atoms(cs: CallSite) -> set:
            callee = self.resolve(cs, f)
            if callee == FILTER:
                return set()
            arg_atoms = [eval_arg(a) for a in cs.args]
            recv_atoms = state.get(cs.recv, set()) if cs.recv else set()
            if (callee is None or self._opaque(callee)) and cs.recv \
                    and cs.name in ("find", "at", "count"):
                # Container lookup: the result is a stored value, whose taint
                # is the container's — the lookup KEY does not taint it
                # (selecting a trusted endpoint out of a config map by an
                # attacker-chosen name yields a trusted endpoint).
                return set(recv_atoms)
            if callee is None or self._opaque(callee):
                # Unknown or bodyless-unannotated callee: conservatively
                # propagate every input (including the receiver) to the result.
                out = set(recv_atoms)
                for a in arg_atoms:
                    out |= a
                return out
            csum = self.sum[callee.qname]
            if ANNOT_UNTRUSTED in callee.annots:
                return {SourceAtom(callee.qname, f.file, cs.line)}
            if csum.cleans_all:
                return set()  # a cleaner's result is validated by contract
            # A method invoked on a tainted object yields tainted data
            # (readers, serializers, accessors) unless filtered above.
            out = set(recv_atoms)
            parts = callee.qname.split("::")
            if len(parts) >= 2 and parts[-1] == parts[-2]:
                # constructor: the "return value" is the built object, which
                # absorbs every argument
                for a in arg_atoms:
                    out |= a
            for i in csum.returns_param:
                if i < len(arg_atoms):
                    out |= arg_atoms[i]
            for src in csum.returns_sources:
                out.add(SourceAtom(src[0], f.file, cs.line))
            return out

        def apply_cleaners(cs: CallSite):
            callee = self.resolve(cs, f)
            if callee in (None, FILTER):
                return
            csum = self.sum[callee.qname]
            if csum.cleans_all:
                if cs.recv:
                    state[cs.recv] = set()
                for a in cs.args:
                    for r in a.refs:
                        state[r] = set()
            else:
                for i in csum.cleans:
                    if i < len(cs.args):
                        for r in cs.args[i].refs:
                            state[r] = set()

        def record(atoms, path: SinkPath, line, dedupe_chain=True):
            nonlocal grew
            hop = (f.qname, f.file, line)
            for atom in atoms:
                if isinstance(atom, SourceAtom):
                    self.findings.append(self.finding(
                        f, line, atom, path, (hop,) + path.chain))
                elif isinstance(atom, ParamAtom):
                    lst = s.sink_params.setdefault(atom[0], [])
                    np = SinkPath(path.sink, path.file, path.line,
                                  (hop,) + path.chain)
                    if not any(e.sink == np.sink and
                               (e.chain == np.chain or not dedupe_chain)
                               for e in lst):
                        lst.append(np)
                        grew = True

        def check_sinks(cs: CallSite):
            callee = self.resolve(cs, f)
            for i, paths in self.sinks_at(cs, callee, f):
                atoms = eval_arg(cs.args[i])
                if atoms:
                    for path in paths:
                        if len(path.chain) < self.MAX_CHAIN:
                            record(atoms, path, cs.line)

        def check_return(st):
            nonlocal grew
            atoms = set()
            for r in st.refs:
                atoms |= state.get(r, set())
            for c in st.calls:
                atoms |= call_atoms(c)
            if s.return_sink:
                # Reaching the return of a sink function is reaching the sink.
                record(atoms, SinkPath(f"{f.qname} (return)", f.file, f.line),
                       st.line, dedupe_chain=False)
            if s.cleans_all:
                return  # a cleaner's return is clean by contract
            for atom in atoms:
                if isinstance(atom, ParamAtom):
                    if atom[0] not in s.returns_param:
                        s.returns_param.add(atom[0])
                        grew = True
                elif isinstance(atom, SourceAtom):
                    if atom not in s.returns_sources \
                            and len(s.returns_sources) < 8:
                        s.returns_sources.add(atom)
                        grew = True

        if ANNOT_UNTRUSTED in f.annots:
            src = SourceAtom(f.qname, f.file, f.line)
            if src not in s.returns_sources:
                s.returns_sources.add(src)
                grew = True

        # Two passes over the (linearized) statements: the second pass starts
        # from the first pass's end state, which approximates loop back-edges
        # (`node = reply->parent` feeding next iteration's dial).  Findings
        # and summary updates are deduplicated, so the repeat is harmless.
        for _pass in (0, 1):
            for st in f.stmts:
                # Sinks are checked against the PRE-state: arguments are
                # evaluated before the callee runs, so a cleaner cannot
                # bless the very call that smuggles its argument to a sink.
                for cs in all_calls(st):
                    check_sinks(cs)
                for cs in all_calls(st):
                    apply_cleaners(cs)
                if st.is_return:
                    check_return(st)
                if st.lhs is not None:
                    atoms = set()
                    for r in st.refs:
                        atoms |= state.get(r, set())
                    for c in st.calls:
                        atoms |= call_atoms(c)
                    if st.lhs_is_member or st.compound:
                        state[st.lhs] = state.get(st.lhs, set()) | atoms
                    else:
                        state[st.lhs] = atoms
                else:
                    # mutating call on a receiver with tainted arguments: an
                    # opaque method (push_back, add_cert, ...) may store them
                    for cs in st.calls:
                        callee = self.resolve(cs, f)
                        if cs.recv and (callee is None or
                                        callee != FILTER and self._opaque(callee)):
                            extra = set()
                            for a in cs.args:
                                extra |= eval_arg(a)
                            if extra:
                                state[cs.recv] = state.get(cs.recv, set()) | extra
        return grew
