#!/usr/bin/env python3
"""Resource-bound analysis for the GlobeDoc tree (DESIGN.md §14).

The paper's replicas, Location Service and naming servers are untrusted, so
every length or count field decoded off the wire is attacker-controlled.
This analyzer proves two resource invariants over the whole call graph:

  1. Untrusted-size allocation: any allocation-sized call — ``resize``,
     ``reserve``, the count form of ``assign``, count construction of
     ``std::string``/``std::vector``/``Bytes``, ``make_unique<T[]>`` — whose
     size derives from a GLOBE_UNTRUSTED source (the taint annotations of
     tools/taint_check.py are reused verbatim) must first pass a clamp
     annotated GLOBE_LENGTH_GUARD (``util::checked_count``,
     ``util::Reader::need``).  Findings carry the full source→allocation
     call chain.  ``substr`` and iterator-pair/copy construction are NOT
     sinks: the standard clamps their size to the existing object, so they
     are bounded by input already allocated.  Likewise ``.size()`` of a
     tainted buffer is input-bounded metadata, not an untrusted size.

  2. Unbounded-growth state: a container member grown
     (push_back/emplace/insert/append/+=, or ``m[k] = v`` on a map, whose
     ``operator[]`` inserts every new key) from a member function of a
     long-lived class (anything in src/cache, src/replication, src/obs, or a
     class whose name marks it as a server/proxy/dispatcher/pool/...) must
     either carry GLOBE_BOUNDED (src/util/bounds_annotations.hpp) or be
     ranked in tools/capacity_bounds.txt.  A declared bound must be real:
     unless its registry entry is capacity 0 (grows only during trusted
     configuration), the class must contain an enforcement point for the
     member — an eviction/shrink call or a size check.

Two interchangeable frontends produce the same per-function IR, exactly as
in tools/taint_check.py and tools/conc_check.py:

  * ``clang`` — libclang over compile_commands.json, reading the
    ``[[clang::annotate("globe::...")]]`` attributes (CI).
  * ``lite``  — a stdlib-only tokenizer recognizing the GLOBE_* macro tokens
    in the text, so plain ``ctest`` enforces the invariants everywhere.

Intentional exceptions are suppressed through tools/bounds_baseline.txt,
which requires a written justification per entry.

Exit status: 0 = clean (modulo baseline), 1 = findings or stale baseline,
2 = usage/environment error.

Usage:
  tools/bounds_check.py [--frontend auto|clang|lite] [paths...]
  tools/bounds_check.py --self-test [--frontend clang]   # tests/bounds/
  tools/bounds_check.py --list      # guards, bounded members, growth sites
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ANNOT_UNTRUSTED = "untrusted"
ANNOT_GUARD = "length_guard"
ANNOT_BOUNDED = "bounded"

MACRO_OF = {
    "GLOBE_UNTRUSTED": ANNOT_UNTRUSTED,
    "GLOBE_LENGTH_GUARD": ANNOT_GUARD,
}
CLANG_ANNOTATION_OF = {
    "globe::untrusted": ANNOT_UNTRUSTED,
    "globe::length_guard": ANNOT_GUARD,
}

# Sibling-analyzer macros: recognized so their tokens never corrupt
# parameter or expression parsing, but carry no meaning here.
_OTHER_MACROS = {
    "GLOBE_SANITIZER", "GLOBE_TRUSTED_SINK", "GLOBE_BLOCKING",
    "GLOBE_BOUNDED", "GLOBE_EXCLUDES", "GLOBE_REQUIRES", "GLOBE_GUARDED_BY",
    "GLOBE_PT_GUARDED_BY", "GLOBE_ACQUIRE", "GLOBE_RELEASE",
    "GLOBE_NO_THREAD_SAFETY_ANALYSIS", "GLOBE_SCOPED_CAPABILITY",
    "GLOBE_CAPABILITY",
}

# Accessor methods whose results are metadata, not attacker-chosen sizes:
# `out.resize(in.size())` allocates only as much as the input actually
# holds, which is the same input-bounded guarantee Reader::need enforces.
# find()-family results are positions within the receiver, bounded by its
# size, so `path.resize(path.find('?'))` is equally input-bounded.
SIZE_FILTER_METHODS = {"is_ok", "status", "code", "size", "empty", "length",
                       "find", "rfind", "find_first_of", "find_last_of",
                       "find_first_not_of", "find_last_not_of"}

# Method names of std:: containers/strings; a call through an UNTYPED
# receiver with one of these names must never alias onto project code by
# name (same guard as taint_check).
STD_CONTAINER_METHODS = {
    "insert", "erase", "assign", "append", "push_back", "pop_back",
    "emplace", "emplace_back", "find", "count", "at", "substr", "clear",
    "resize", "reserve", "begin", "end", "front", "back", "data", "c_str",
    "str",
}

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
# Template functions the lite frontend must parse through `<...>` to see the
# call: make_unique<T[]>(n) allocates n elements.
_TEMPLATE_CALLS = {"make_unique"}

# --- analysis 2 tables ------------------------------------------------------

# Subsystems whose every class holds long-lived state.
GROWTH_SUBSYS = {"cache", "replication", "obs"}
# Elsewhere, class names that mark server-side long-lived state.
LONGLIVED_RE = re.compile(
    r"(Server|Dispatcher|Proxy|Tier|Framer|Pool|Registry|Replicator|"
    r"Coordinator|Maintainer|Collector|Aggregator|Auditor|Evaluator|"
    r"Tracer|Cache|Node|Client|SingleFlight|EventLog|Resolver)")

GROWTH_METHODS = {"push_back", "emplace_back", "emplace", "try_emplace",
                  "insert", "push", "append", "push_front", "emplace_front"}
# Containers whose operator[] inserts a missing key: `m[k] = v` is growth.
MAP_TYPES = {"map", "unordered_map"}
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "|=", "&=", "^=", "<<=", ">>="}
CONTAINER_TYPES = {"vector", "deque", "list", "map", "multimap",
                   "unordered_map", "set", "multiset", "unordered_set",
                   "queue", "priority_queue", "string", "basic_string",
                   "Bytes"}
# Enforcement evidence: a shrink/eviction call or a size check on the member
# anywhere in the class shows the declared bound is actually enforced.
SHRINK_METHODS = {"erase", "pop_front", "pop_back", "pop", "clear",
                  "resize", "shrink_to_fit"}
EVIDENCE_METHODS = SHRINK_METHODS | {"size", "empty", "length"}

MAX_CHAIN = 12  # call-chain depth cap when materializing findings


def subsys_of(relpath: str) -> str:
    parts = relpath.replace("\\", "/").split("/")
    if parts[0] == "src" and len(parts) >= 3:
        return parts[1]
    return "test"


# --------------------------------------------------------------------------
# Shared IR
# --------------------------------------------------------------------------

@dataclass
class Arg:
    """One argument expression: identifier references + nested calls."""
    refs: list = field(default_factory=list)
    calls: list = field(default_factory=list)


@dataclass
class CallSite:
    line: int = 0
    chain: list = field(default_factory=list)
    explicit: bool = False                       # qualified with :: (no receiver)
    array_form: bool = False                     # make_unique<T[]>-style call
    recv: str | None = None                      # receiver variable, if any
    recv_path: list = field(default_factory=list)
    args: list = field(default_factory=list)     # list[Arg]

    @property
    def name(self):
        return self.chain[-1] if self.chain else ""


@dataclass
class Stmt:
    line: int = 0
    is_return: bool = False
    lhs: str | None = None
    lhs_is_member = False
    lhs_subscript = False                        # `lhs[...] = ...`
    compound: bool = False
    decl_type: str | None = None
    refs: list = field(default_factory=list)
    calls: list = field(default_factory=list)


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
    params: list = field(default_factory=list)
    stmts: list = field(default_factory=list)
    has_body: bool = False
    local_types: dict = field(default_factory=dict)


@dataclass
class Program:
    funcs: dict = field(default_factory=dict)    # qname -> Func
    by_name: dict = field(default_factory=dict)  # unqualified -> [qname]
    fields: dict = field(default_factory=dict)   # class -> {field -> type}
    # class -> {field -> {"type","file","line","bounded"}}
    field_info: dict = field(default_factory=dict)

    def add(self, f: Func):
        prev = self.funcs.get(f.qname)
        if prev is None:
            self.funcs[f.qname] = f
            self.by_name.setdefault(f.qname.split("::")[-1], []).append(f.qname)
            return
        prev.annots |= f.annots
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
            prev.stmts, prev.has_body = f.stmts, True
            prev.file, prev.line = f.file, f.line
            prev.local_types.update(f.local_types)

    def add_field(self, cls, name, ftype, file, line, bounded):
        info = self.field_info.setdefault(cls, {})
        if name not in info:
            info[name] = {"type": ftype, "file": file, "line": line,
                          "bounded": bounded}
        elif bounded:
            info[name]["bounded"] = True
        self.fields.setdefault(cls, {}).setdefault(name, ftype)


# --------------------------------------------------------------------------
# Lite frontend: tokenizer + scope-tracking parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""[A-Za-z_]\w*          # identifier
      | 0[xX][0-9a-fA-F']+ | \d[\d.'eEfuUlL]*   # numbers
      | ::|->\*?|\.\*|<<=|>>=|<=>|==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<|>>|\+\+|--
      | [{}()\[\];,<>=!&|*+\-/%?:~^.\#@]
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default", "break",
    "continue", "return", "goto", "try", "catch", "throw", "new", "delete",
    "sizeof", "alignof", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "true", "false", "nullptr", "this", "const",
    "constexpr", "static", "inline", "virtual", "override", "final",
    "noexcept", "mutable", "explicit", "auto", "void", "bool", "char", "int",
    "unsigned", "signed", "long", "short", "float", "double", "class",
    "struct", "enum", "union", "namespace", "using", "typedef", "template",
    "typename", "public", "private", "protected", "friend", "operator",
    "co_await", "co_return", "co_yield", "std",
}

# Macros that may carry a parenthesized argument in the qualifier zone of a
# declarator (between `)` and `{`/`;`).
_QUAL_MACROS = {"GLOBE_EXCLUDES", "GLOBE_REQUIRES", "GLOBE_GUARDED_BY",
                "GLOBE_PT_GUARDED_BY", "GLOBE_ACQUIRE", "GLOBE_RELEASE",
                "GLOBE_NO_THREAD_SAFETY_ANALYSIS", "GLOBE_SCOPED_CAPABILITY",
                "GLOBE_BLOCKING", "GLOBE_SANITIZER", "GLOBE_TRUSTED_SINK",
                "GLOBE_BOUNDED"}

_CONTROL = {"if", "for", "while", "switch", "catch", "else", "do", "try"}


def _strip_comments(text: str) -> str:
    """Removes comments, string/char literals and preprocessor directives,
    preserving newlines so token line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            seg = text[i:(n if j < 0 else j + 2)]
            out.append("\n" * seg.count("\n"))
            i = n if j < 0 else j + 2
        elif c == "'" and i > 0 and text[i - 1] in "0123456789abcdefABCDEF" \
                and i + 1 < n and text[i + 1].isalnum():
            i += 1  # digit separator (1'000'000), not a char literal
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append('""' if quote == '"' else "0")
            i = min(j + 1, n)
        elif c == "#" and (i == 0 or text[i - 1] == "\n"):
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\":
                    j = k + 1
                    continue
                j = k
                break
            seg = text[i:j]
            out.append("\n" * seg.count("\n"))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _tokenize(text: str):
    toks = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        toks.append((m.group(0), line))
    return toks


def _match_forward(toks, i, open_t, close_t):
    depth = 0
    while i < len(toks):
        t = toks[i][0]
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(toks)


def _split_top(toks, sep=","):
    parts, cur = [], []
    p = a = 0
    for tk in toks:
        t = tk[0]
        if t in "([{":
            p += 1
        elif t in ")]}":
            p -= 1
        elif t == "<":
            a += 1
        elif t == ">" and a > 0:
            a -= 1
        if t == sep and p == 0 and a == 0:
            parts.append(cur)
            cur = []
        else:
            cur.append(tk)
    parts.append(cur)
    return parts


def _parse_param(toks) -> Param:
    p = Param()
    for idx, tk in enumerate(toks):
        if tk[0] == "=" and _paren_depth_ok(toks, idx):
            toks = toks[:idx]
            break
    idents = [(i, tk[0]) for i, tk in enumerate(toks)
              if re.match(r"[A-Za-z_]", tk[0])]
    kept = []
    for i, name in idents:
        if name in MACRO_OF:
            p.annots.add(MACRO_OF[name])
        elif name in _OTHER_MACROS:
            continue
        elif name not in ("const", "struct", "typename", "volatile"):
            kept.append((i, name))
    if not kept:
        return p
    li, lname = kept[-1]
    prev = toks[li - 1][0] if li > 0 else None
    if len(kept) >= 2 and prev not in ("::", "<", ","):
        p.name = lname
        p.type = kept[-2][1] if kept[-2][1] != "::" else None
        for i, name in reversed(kept[:-1]):
            p.type = name
            break
    else:
        p.type = lname
    return p


def _paren_depth_ok(toks, idx):
    d = a = 0
    for tk in toks[:idx]:
        t = tk[0]
        if t in "([{":
            d += 1
        elif t in ")]}":
            d -= 1
        elif t == "<":
            a += 1
        elif t == ">" and a > 0:
            a -= 1
    return d == 0 and a == 0


def _parse_expr(toks):
    """Recursive descent over an expression token list -> (refs, calls)."""
    refs, calls = [], []
    i = 0
    n = len(toks)
    while i < n:
        t, line = toks[i]
        if re.match(r"[A-Za-z_]", t) and t not in _KEYWORDS \
                and t not in MACRO_OF and t not in _OTHER_MACROS:
            chain, seps = [t], []
            j = i + 1
            while j + 1 < n and toks[j][0] in ("::", ".", "->") \
                    and re.match(r"[A-Za-z_]", toks[j + 1][0]) \
                    and toks[j + 1][0] not in _KEYWORDS:
                seps.append(toks[j][0])
                chain.append(toks[j + 1][0])
                j += 2
            # make_unique<T[]>(n): hop the template argument list so the
            # call and its count argument are visible.  Only the array form
            # allocates a count — make_unique<T>(args) forwards to a ctor.
            array_form = False
            if j < n and toks[j][0] == "<" and chain[-1] in _TEMPLATE_CALLS:
                d, k = 0, j
                while k < n:
                    if toks[k][0] == "<":
                        d += 1
                    elif toks[k][0] == ">":
                        d -= 1
                        if d == 0:
                            break
                    elif toks[k][0] == "[":
                        array_form = True
                    k += 1
                if k + 1 < n and toks[k + 1][0] == "(":
                    j = k + 1
            if j < n and toks[j][0] == "(":
                cs = CallSite(line=line, chain=chain, array_form=array_form)
                if seps and seps[-1] in (".", "->"):
                    cs.recv_path = chain[:-1]
                    cs.recv = cs.recv_path[0]
                else:
                    cs.explicit = bool(seps)
                end = _match_forward(toks, j, "(", ")")
                inner = toks[j + 1:end - 1]
                for part in _split_top(inner):
                    if not part:
                        continue
                    arefs, acalls = _parse_expr(part)
                    cs.args.append(Arg(refs=arefs, calls=acalls))
                calls.append(cs)
                i = end
                continue
            if seps and all(s == "::" for s in seps):
                i = j  # qualified constant: not a variable
                continue
            refs.append(chain[0])
            i = j
            continue
        i += 1
    return refs, calls


_SINGLE_TYPES = {"auto", "bool", "int", "unsigned", "long", "short", "float",
                 "double", "char", "size_t", "uint32_t", "uint64_t"}


def _parse_stmt(seg) -> Stmt | None:
    if not seg:
        return None
    st = Stmt(line=seg[0][1])
    while seg and seg[0][0] in ("else", "do", "try"):
        seg = seg[1:]
    if not seg:
        return None
    head = seg[0][0]
    if head in ("case", "default", "break", "continue", "goto", "using",
                "public", "private", "protected"):
        return None
    cond_refs, cond_calls = [], []
    if head == "return":
        st.is_return = True
        seg = seg[1:]
    elif head in ("if", "while", "switch", "for", "catch"):
        seg = seg[1:]
        if seg and seg[0][0] == "(":
            end = _match_forward(seg, 0, "(", ")")
            inner = seg[1:end - 1]
            rest = seg[end:]
            if head == "for":
                colon = [i for i, tk in enumerate(inner)
                         if tk[0] == ":" and _paren_depth_ok(inner, i)]
                if colon:
                    lhs = inner[:colon[0]]
                    idents = [tk[0] for tk in lhs if re.match(r"[A-Za-z_]", tk[0])
                              and tk[0] not in _KEYWORDS]
                    st.lhs = idents[-1] if idents else None
                    inner = inner[colon[0] + 1:]
            if rest:
                cond_refs, cond_calls = _parse_expr(inner)
                if rest[0][0] == "return":
                    st.is_return = True
                    rest = rest[1:]
                seg = rest
            else:
                seg = inner
    eq = None
    compound = False
    for idx, tk in enumerate(seg):
        if _paren_depth_ok(seg, idx):
            if tk[0] == "=":
                eq = idx
                break
            if tk[0] in ASSIGN_OPS and tk[0] != "=":
                eq = idx
                compound = True
                break
    if eq is not None and st.lhs is None:
        lhs_toks = seg[:eq]
        idents = [tk[0] for tk in lhs_toks if re.match(r"[A-Za-z_]", tk[0])
                  and tk[0] not in _KEYWORDS and tk[0] not in MACRO_OF
                  and tk[0] not in _OTHER_MACROS]
        member = any(tk[0] in (".", "->", "[") for tk in lhs_toks)
        if idents:
            if member:
                st.lhs = idents[0]
                st.lhs_is_member = True
                first = next(i for i, tk in enumerate(lhs_toks)
                             if tk[0] == idents[0])
                st.lhs_subscript = first + 1 < len(lhs_toks) \
                    and lhs_toks[first + 1][0] == "["
                st.refs.extend(idents[1:])
            else:
                st.lhs = idents[-1]
                if len(idents) >= 2:
                    st.decl_type = idents[-2]
        st.compound = compound
        seg = seg[eq + 1:]
    elif eq is None and st.lhs is None and not st.is_return:
        idents = []
        for idx, tk in enumerate(seg):
            if re.match(r"[A-Za-z_]", tk[0]):
                idents.append((idx, tk[0]))
            elif tk[0] in ("(", "{"):
                break
            elif tk[0] not in ("::", "<", ">", "&", "*", ",", "const"):
                idents = []
                break
        vals = [x for x in idents if x[1] not in _KEYWORDS or x[1] in _SINGLE_TYPES]
        if len(vals) >= 2:
            last_idx, last = vals[-1]
            nxt = seg[last_idx + 1][0] if last_idx + 1 < len(seg) else None
            prev = seg[last_idx - 1][0] if last_idx > 0 else None
            if nxt in ("(", "{") and prev not in ("::", ".", "->"):
                st.lhs = last
                st.decl_type = vals[-2][1]
                end = _match_forward(seg, last_idx + 1,
                                     nxt, ")" if nxt == "(" else "}")
                inner = seg[last_idx + 2:end - 1]
                cs = CallSite(line=st.line, chain=[st.decl_type, st.decl_type],
                              explicit=True)
                for part in _split_top(inner):
                    if not part:
                        continue
                    arefs, acalls = _parse_expr(part)
                    cs.args.append(Arg(refs=arefs, calls=acalls))
                st.calls.append(cs)
                return st
    refs, calls = _parse_expr(seg)
    st.refs.extend(refs)
    st.calls.extend(calls)
    st.refs.extend(cond_refs)
    st.calls.extend(cond_calls)
    if st.lhs is None and st.decl_type is None and not st.is_return \
            and not st.calls and not st.refs:
        return None
    return st


def _parse_body(toks):
    stmts = []
    local_types = {}
    seg = []
    i, n = 0, len(toks)
    pdepth = 0
    while i < n:
        t, line = toks[i]
        if t == "(":
            pdepth += 1
            seg.append(toks[i])
        elif t == ")":
            pdepth -= 1
            seg.append(toks[i])
        elif t == ";" and pdepth == 0:
            st = _parse_stmt(seg)
            if st:
                stmts.append(st)
                if st.decl_type and st.lhs:
                    local_types[st.lhs] = st.decl_type
                elif st.lhs and st.lhs not in local_types \
                        and len(st.calls) == 1 and st.calls[0].explicit \
                        and len(st.calls[0].chain) >= 2 \
                        and st.calls[0].chain[-2][:1].isupper():
                    local_types[st.lhs] = st.calls[0].chain[-2]
            seg = []
        elif t == "{" and pdepth == 0:
            heads = [tk[0] for tk in seg]
            if not seg or heads[0] in _CONTROL:
                st = _parse_stmt(seg)
                if st:
                    stmts.append(st)
                seg = []  # descend into the block
            else:
                end = _match_forward(toks, i, "{", "}")
                seg.extend(toks[i + 1:end - 1])
                i = end
                continue
        elif t == "}" and pdepth == 0:
            st = _parse_stmt(seg)
            if st:
                stmts.append(st)
            seg = []
        else:
            seg.append(toks[i])
        i += 1
    st = _parse_stmt(seg)
    if st:
        stmts.append(st)
    return stmts, local_types


def parse_file_lite(path: str, prog: Program):
    text = _strip_comments(open(path, encoding="utf-8", errors="replace").read())
    toks = _tokenize(text)
    scopes = []
    pending = []
    i, n = 0, len(toks)

    def qname(parts):
        names = [s[1] for s in scopes if s[0] in ("ns", "class") and s[1]]
        return "::".join(names + parts)

    def cur_class():
        for s in reversed(scopes):
            if s[0] == "class":
                return s[1]
        return None

    while i < n:
        t, line = toks[i]
        if t == "namespace":
            j = i + 1
            names = []
            while j < n and toks[j][0] not in ("{", ";", "="):
                if re.match(r"[A-Za-z_]", toks[j][0]):
                    names.append(toks[j][0])
                j += 1
            if j < n and toks[j][0] == "{":
                scopes.append(("ns", "::".join(names)))
                i = j + 1
            else:
                i = j + 1
            pending = []
            continue
        if t in ("class", "struct") and not (pending and pending[-1][0] == "enum"):
            j = i + 1
            name = None
            while j < n and toks[j][0] not in ("{", ";"):
                if re.match(r"[A-Za-z_]", toks[j][0]) and name is None:
                    name = toks[j][0]
                if toks[j][0] == "(":
                    break
                j += 1
            if j < n and toks[j][0] == "{" and name:
                scopes.append(("class", name, 1))
                i = j + 1
                pending = []
                continue
            pending.append(toks[i])
            i += 1
            continue
        if t == "template":
            if i + 1 < n and toks[i + 1][0] == "<":
                d = 0
                j = i + 1
                while j < n:
                    if toks[j][0] == "<":
                        d += 1
                    elif toks[j][0] == ">":
                        d -= 1
                        if d == 0:
                            break
                    j += 1
                i = j + 1
                continue
        if t == "{":
            i = _match_forward(toks, i, "{", "}")
            pending = []
            continue
        if t == "}":
            if scopes:
                scopes.pop()
            if i + 1 < n and toks[i + 1][0] == ";":
                i += 1
            i += 1
            pending = []
            continue
        if t == ";":
            pending = []
            i += 1
            continue
        if t == "(" and pending:
            name_parts = []
            j = len(pending) - 1
            if re.match(r"[A-Za-z_]", pending[j][0]) \
                    and pending[j][0] not in _KEYWORDS - {"operator"}:
                name_parts.append(pending[j][0])
                j -= 1
                while j >= 1 and pending[j][0] == "::" \
                        and re.match(r"[A-Za-z_]", pending[j - 1][0]):
                    name_parts.append(pending[j - 1][0])
                    j -= 2
            name_parts.reverse()
            is_dtor = j >= 0 and pending[j][0] == "~"
            is_op = "operator" in [p[0] for p in pending[max(0, j - 1):]]
            if not name_parts or is_op:
                i = _match_forward(toks, i, "(", ")")
                continue
            close = _match_forward(toks, i, "(", ")")
            ptoks = toks[i + 1:close - 1]
            k = close
            kind = None
            while k < n:
                q = toks[k][0]
                if q == ";":
                    kind = "decl"
                    break
                if q == "{":
                    kind = "def"
                    break
                if q == "=":
                    kind = "decl"
                    while k < n and toks[k][0] != ";":
                        k += 1
                    break
                if q == ":":
                    k += 1
                    while k < n:
                        qq = toks[k][0]
                        if qq == "(":
                            k = _match_forward(toks, k, "(", ")")
                            continue
                        if qq == "{":
                            prev = toks[k - 1][0]
                            if prev in (")", "}"):
                                break
                            k = _match_forward(toks, k, "{", "}")
                            continue
                        k += 1
                    kind = "def"
                    break
                if q in _QUAL_MACROS and k + 1 < n and toks[k + 1][0] == "(":
                    k = _match_forward(toks, k + 1, "(", ")")
                    continue
                if q == "(":
                    kind = "skip"
                    break
                k += 1
            if kind is None:
                kind = "skip"
            kind_final = "skip" if is_dtor else kind
            if kind_final == "skip":
                i = close
                continue
            f = Func(file=os.path.relpath(path, REPO), line=line)
            ann_toks = [p[0] for p in pending] + \
                       [toks[m][0] for m in range(close, min(k, n))]
            for tok in ann_toks:
                if tok in MACRO_OF:
                    f.annots.add(MACRO_OF[tok])
            for part in _split_top(ptoks):
                part = [tk for tk in part]
                if not part or (len(part) == 1 and part[0][0] == "void"):
                    continue
                f.params.append(_parse_param(part))
            cls = cur_class()
            parts = name_parts[:]
            f.qname = qname(parts)
            f.cls = cls if cls else (parts[-2] if len(parts) >= 2 else None)
            if kind == "def":
                body_start = k
                body_end = _match_forward(toks, body_start, "{", "}")
                f.stmts, f.local_types = _parse_body(toks[body_start + 1:body_end - 1])
                f.has_body = True
                for p in f.params:
                    if p.name and p.type:
                        f.local_types.setdefault(p.name, p.type)
                prog.add(f)
                i = body_end
                pending = []
                continue
            else:
                prog.add(f)
                i = k + 1
                pending = []
                continue
        pending.append(toks[i])
        i += 1

    _harvest_fields(text, os.path.relpath(path, REPO), prog)


# Member declarations, one nesting level of template arguments, optional
# trailing GLOBE_* annotation zone (GLOBE_BOUNDED, GLOBE_GUARDED_BY(...)),
# optional default member initializer.
_TPL = r"<(?:[^<>;]|<[^<>;]*>)*>"
_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?([A-Za-z_][\w:]*(?:" + _TPL + r")?)"
    r"[&*\s]+([A-Za-z_]\w*)\s*"
    r"((?:GLOBE_\w+(?:\([^)]*\))?\s*)*)"
    r"(?:=[^;]*|\{[^;]*\})?;",
    re.MULTILINE,
)
_CLASS_RE = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)[^;{]*\{")


def _mask_nested_braces(body: str) -> str:
    """Blanks the contents of any brace block inside a class body (inline
    method bodies, nested classes, default initializers) so the field regex
    only sees the class's own member declarations."""
    out = []
    depth = 0
    for c in body:
        if c == "{":
            out.append(c if depth == 0 else " ")
            depth += 1
        elif c == "}":
            depth -= 1
            out.append(c if depth == 0 else " ")
        else:
            out.append(c if depth <= 1 or c == "\n" else " ")
    return "".join(out)


def _harvest_fields(text: str, relpath: str, prog: Program):
    for cm in _CLASS_RE.finditer(text):
        cls = cm.group(1)
        depth = 0
        j = cm.end() - 1
        start = j
        while j < len(text):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        body = _mask_nested_braces(text[start:j])
        base_line = text.count("\n", 0, start) + 1
        for fm in _FIELD_RE.finditer(body):
            ftype = fm.group(1).split("<")[0].split("::")[-1]
            if ftype in ("return", "using", "typedef", "namespace"):
                continue
            line = base_line + body.count("\n", 0, fm.start())
            bounded = "GLOBE_BOUNDED" in fm.group(3)
            prog.add_field(cls, fm.group(2), ftype, relpath, line, bounded)


def collect_sources(root):
    out = []
    for base, _dirs, files in os.walk(root):
        for fn in sorted(files):
            if fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                out.append(os.path.join(base, fn))
    return out


def build_program_lite(paths) -> Program:
    prog = Program()
    for p in paths:
        parse_file_lite(p, prog)
    return prog


# --------------------------------------------------------------------------
# libclang frontend
# --------------------------------------------------------------------------

def _clang_collect(tu, prog, in_scope, ci):
    def annots_of(cursor):
        out = set()
        for ch in cursor.get_children():
            if ch.kind == ci.CursorKind.ANNOTATE_ATTR:
                a = CLANG_ANNOTATION_OF.get(ch.spelling)
                if a:
                    out.add(a)
        return out

    def qualified(cursor):
        parts = []
        c = cursor
        while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def expr_to_arg(node) -> Arg:
        arg = Arg()
        collect_expr(node, arg.refs, arg.calls)
        return arg

    def collect_expr(node, refs, calls):
        k = node.kind
        if k == ci.CursorKind.CALL_EXPR:
            cs = CallSite(line=node.location.line)
            ref = node.referenced
            if ref is not None and ref.spelling:
                cs.chain = qualified(ref).split("::")
                cs.explicit = True
            else:
                cs.chain = [node.spelling or "?"]
            if cs.name in _TEMPLATE_CALLS and "[]" in node.type.spelling:
                cs.array_form = True
            children = list(node.get_children())
            args = list(node.get_arguments())
            if children and children[0] not in args:
                base_refs, base_calls = [], []
                collect_expr(children[0], base_refs, base_calls)
                if base_refs:
                    # Receiver taint flows through call_atoms(recv), exactly
                    # as in the lite frontend — leaking the receiver into the
                    # surrounding refs would defeat the size()/find() filter
                    # (`reserve(buf.size())` must stay input-bounded).
                    cs.recv = base_refs[0]
                    cs.recv_path = base_refs
                calls.extend(base_calls)
            for a in args:
                cs.args.append(expr_to_arg(a))
            calls.append(cs)
            return
        if k == ci.CursorKind.DECL_REF_EXPR:
            if node.spelling:
                refs.append(node.spelling)
            return
        if k == ci.CursorKind.MEMBER_REF_EXPR:
            base = list(node.get_children())
            before = len(refs)
            if base:
                collect_expr(base[0], refs, calls)
            # Implicit-this member access (`ring_.push_back(...)`): the base
            # subtree is just CXXThisExpr and yields no refs — the member
            # itself is the receiver variable.
            if len(refs) == before and node.spelling:
                refs.append(node.spelling)
            return
        for ch in node.get_children():
            collect_expr(ch, refs, calls)

    def unwrap(node):
        while node.kind == ci.CursorKind.UNEXPOSED_EXPR:
            kids = list(node.get_children())
            if len(kids) != 1:
                break
            node = kids[0]
        return node

    def assigned_subscript(node):
        """`member` when `node` assigns through `member[...]` — what
        `m[k] = v` on a map compiles to: a built-in assignment whose left
        side is an operator[] call, or an operator= call on its result."""
        node = unwrap(node)
        if node.kind == ci.CursorKind.CALL_EXPR:
            name = node.spelling or ""
            if not name.startswith("operator") \
                    or name[len("operator"):] not in ASSIGN_OPS:
                return None
            args = list(node.get_arguments())
            lhs = args[0] if args else None
        elif node.kind in (ci.CursorKind.BINARY_OPERATOR,
                           ci.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR):
            kids = list(node.get_children())
            if len(kids) != 2:
                return None
            end = kids[0].extent.end.offset
            op = next((t.spelling for t in node.get_tokens()
                       if t.extent.start.offset >= end), "")
            lhs = kids[0] if op in ASSIGN_OPS else None
        else:
            return None
        if lhs is None:
            return None
        lhs = unwrap(lhs)
        if lhs.kind != ci.CursorKind.CALL_EXPR or lhs.spelling != "operator[]":
            return None
        args = list(lhs.get_arguments())
        refs = []
        if args:
            collect_expr(args[0], refs, [])
        return refs[0] if len(refs) == 1 else None

    def mark_subscript(st, node):
        base = assigned_subscript(node)
        if base:
            st.lhs, st.lhs_is_member, st.lhs_subscript = base, True, True

    def linearize(node, stmts, local_types):
        k = node.kind
        if k == ci.CursorKind.COMPOUND_STMT:
            for ch in node.get_children():
                linearize(ch, stmts, local_types)
            return
        if k in (ci.CursorKind.IF_STMT, ci.CursorKind.WHILE_STMT,
                 ci.CursorKind.FOR_STMT, ci.CursorKind.SWITCH_STMT,
                 ci.CursorKind.CXX_TRY_STMT, ci.CursorKind.CXX_CATCH_STMT,
                 ci.CursorKind.DO_STMT, ci.CursorKind.CASE_STMT,
                 ci.CursorKind.DEFAULT_STMT, ci.CursorKind.CXX_FOR_RANGE_STMT):
            for ch in node.get_children():
                if k == ci.CursorKind.CXX_FOR_RANGE_STMT \
                        and ch.kind == ci.CursorKind.VAR_DECL:
                    st = Stmt(line=ch.location.line, lhs=ch.spelling)
                    for sub in ch.get_children():
                        collect_expr(sub, st.refs, st.calls)
                    stmts.append(st)
                    continue
                linearize(ch, stmts, local_types)
            return
        if k == ci.CursorKind.DECL_STMT:
            for ch in node.get_children():
                if ch.kind == ci.CursorKind.VAR_DECL:
                    st = Stmt(line=ch.location.line, lhs=ch.spelling)
                    tname = ch.type.spelling.split("<")[0].split("::")[-1].strip("& *")
                    st.decl_type = tname or None
                    if st.decl_type:
                        local_types[ch.spelling] = st.decl_type
                    for sub in ch.get_children():
                        collect_expr(sub, st.refs, st.calls)
                    stmts.append(st)
            return
        if k == ci.CursorKind.RETURN_STMT:
            st = Stmt(line=node.location.line, is_return=True)
            for ch in node.get_children():
                collect_expr(ch, st.refs, st.calls)
            stmts.append(st)
            return
        if k == ci.CursorKind.BINARY_OPERATOR or \
                k == ci.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR:
            kids = list(node.get_children())
            if len(kids) == 2:
                lrefs, lcalls = [], []
                collect_expr(kids[0], lrefs, lcalls)
                st = Stmt(line=node.location.line)
                if lrefs:
                    st.lhs = lrefs[0]
                    st.lhs_is_member = len(lrefs) > 1
                st.compound = (k == ci.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR)
                mark_subscript(st, node)
                collect_expr(kids[1], st.refs, st.calls)
                st.calls.extend(lcalls)
                stmts.append(st)
                return
        st = Stmt(line=node.location.line)
        collect_expr(node, st.refs, st.calls)
        mark_subscript(st, node)
        if st.refs or st.calls:
            stmts.append(st)

    for cur in tu.cursor.walk_preorder():
        if cur.kind not in (ci.CursorKind.FUNCTION_DECL,
                            ci.CursorKind.CXX_METHOD,
                            ci.CursorKind.CONSTRUCTOR):
            continue
        if not in_scope(cur.location.file.name if cur.location.file else None):
            continue
        f = Func(qname=qualified(cur),
                 file=os.path.relpath(cur.location.file.name, REPO),
                 line=cur.location.line)
        f.annots = annots_of(cur)
        sp = cur.semantic_parent
        if sp is not None and sp.kind in (ci.CursorKind.CLASS_DECL,
                                          ci.CursorKind.STRUCT_DECL):
            f.cls = sp.spelling
        for pc in cur.get_arguments():
            p = Param(name=pc.spelling or None,
                      type=pc.type.spelling.split("<")[0]
                      .split("::")[-1].strip("& *") or None)
            p.annots = annots_of(pc)
            f.params.append(p)
        body = None
        for ch in cur.get_children():
            if ch.kind == ci.CursorKind.COMPOUND_STMT:
                body = ch
        if body is not None:
            f.has_body = True
            linearize(body, f.stmts, f.local_types)
            for p in f.params:
                if p.name and p.type:
                    f.local_types.setdefault(p.name, p.type)
        prog.add(f)
    for cur in tu.cursor.walk_preorder():
        if cur.kind == ci.CursorKind.FIELD_DECL and \
                in_scope(cur.location.file.name if cur.location.file else None):
            cls = cur.semantic_parent.spelling
            t = cur.type.spelling.split("<")[0].split("::")[-1].strip("& *")
            if not cls or not t:
                continue
            bounded = False
            for ch in cur.get_children():
                if ch.kind == ci.CursorKind.ANNOTATE_ATTR \
                        and ch.spelling == "globe::bounded":
                    bounded = True
            prog.add_field(cls, cur.spelling, t,
                           os.path.relpath(cur.location.file.name, REPO),
                           cur.location.line, bounded)


def build_program_clang(paths, compile_commands_dir) -> Program:
    import clang.cindex as ci  # noqa: imported lazily; CI installs libclang

    prog = Program()
    index = ci.Index.create()
    try:
        cdb = ci.CompilationDatabase.fromDirectory(compile_commands_dir)
    except ci.CompilationDatabaseError:
        raise RuntimeError(
            f"no compile_commands.json under {compile_commands_dir} "
            "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")

    wanted = {os.path.abspath(p) for p in paths}
    wanted_dirs = {p for p in wanted if os.path.isdir(p)}

    def in_scope(fname):
        if not fname:
            return False
        f = os.path.abspath(fname)
        return f in wanted or any(f.startswith(d + os.sep) for d in wanted_dirs)

    seen_tus = set()
    for cmd in cdb.getAllCompileCommands():
        src = os.path.join(cmd.directory, cmd.filename) \
            if not os.path.isabs(cmd.filename) else cmd.filename
        src = os.path.normpath(src)
        if src in seen_tus:
            continue
        seen_tus.add(src)
        cargs = [a for a in list(cmd.arguments)[1:]
                 if a not in ("-c", "-o", cmd.filename) and not a.endswith(".o")]
        try:
            tu = index.parse(src, args=cargs)
        except ci.TranslationUnitLoadError:
            continue
        _clang_collect(tu, prog, in_scope, ci)
    return prog


def build_program_clang_single(path, include_dirs) -> Program:
    """Parses one standalone TU (fixture self-test mode)."""
    import clang.cindex as ci

    prog = Program()
    index = ci.Index.create()
    args = ["-std=c++20", "-x", "c++"]
    for d in include_dirs:
        args += ["-I", d]
    tu = index.parse(path, args=args)
    target = os.path.abspath(path)

    def in_scope(fname):
        return fname and os.path.abspath(fname) == target

    _clang_collect(tu, prog, in_scope, ci)
    # Field fallback from the raw text scan so member ids agree between
    # frontends even where libclang skips a field.
    text = _strip_comments(open(path, encoding="utf-8",
                                errors="replace").read())
    _harvest_fields(text, os.path.relpath(path, REPO), prog)
    return prog


# --------------------------------------------------------------------------
# Analysis 1: untrusted-size allocation
# --------------------------------------------------------------------------

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
class AllocPath:
    alloc: str                      # e.g. "alloc:reserve"
    alloc_file: str = ""
    alloc_line: int = 0
    chain: tuple = ()               # ((func_qname, file, line), ...)


@dataclass
class Summary:
    returns_param: set = field(default_factory=set)
    returns_sources: set = field(default_factory=set)
    guards: set = field(default_factory=set)         # param indices
    guards_all: bool = False
    alloc_params: dict = field(default_factory=dict)  # idx -> [AllocPath]


@dataclass
class Finding:
    kind: str          # alloc | growth | growth-unenforced
    key: str
    file: str = ""
    line: int = 0
    detail: list = field(default_factory=list)


def _literal_arg(arg: Arg) -> bool:
    return not arg.refs and not arg.calls


class Analyzer:
    def __init__(self, prog: Program, capacity: dict | None = None,
                 verbose=False):
        self.prog = prog
        self.capacity = capacity or {}
        self.verbose = verbose
        self.sum: dict[str, Summary] = {}
        self.findings: list[Finding] = []
        for q, f in prog.funcs.items():
            s = Summary()
            if ANNOT_GUARD in f.annots:
                s.guards_all = True
            for i, p in enumerate(f.params):
                if ANNOT_GUARD in p.annots:
                    s.guards.add(i)
            self.sum[q] = s

    # -- resolution --------------------------------------------------------

    def resolve(self, cs: CallSite, enclosing: Func):
        name = cs.name
        if name in SIZE_FILTER_METHODS:
            return "FILTER"
        cands = self.prog.by_name.get(name, [])
        if cs.explicit and len(cs.chain) >= 2:
            suffix = "::".join(cs.chain)
            matches = [q for q in cands
                       if q == suffix or q.endswith("::" + suffix)]
            if matches:
                return self.prog.funcs[matches[0]]
        if cs.recv is not None:
            rtype = self._recv_type(cs, enclosing)
            if rtype:
                matches = [q for q in cands
                           if q.endswith(f"::{rtype}::{name}")]
                if matches:
                    return self.prog.funcs[matches[0]]
                return None  # known type, no such method: external call
            if name in STD_CONTAINER_METHODS:
                return None  # untyped receiver + std method name: opaque
        cands = [q for q in cands if self._viable(cs, q)]
        if len(cands) == 1:
            return self.prog.funcs[cands[0]]
        if len(cands) > 1:
            sums = [self.sum[q] for q in cands]
            f0 = self.prog.funcs[cands[0]]
            sig0 = (f0.annots, tuple(sorted(sums[0].alloc_params)),
                    tuple(sorted(sums[0].guards)))
            same = all((self.prog.funcs[q].annots,
                        tuple(sorted(self.sum[q].alloc_params)),
                        tuple(sorted(self.sum[q].guards))) == sig0
                       for q in cands[1:])
            if same:
                return f0
        return None

    def _viable(self, cs: CallSite, q: str) -> bool:
        cand = self.prog.funcs[q]
        if len(cs.args) > len(cand.params):
            return False
        if cs.recv is not None and cand.cls is None:
            return False
        return True

    def _recv_type(self, cs: CallSite, enclosing: Func):
        if not cs.recv_path:
            return None
        t = enclosing.local_types.get(cs.recv_path[0])
        if t is None and enclosing.cls:
            t = self.prog.fields.get(enclosing.cls, {}).get(cs.recv_path[0])
        for fieldname in cs.recv_path[1:]:
            if t is None:
                return None
            t = self.prog.fields.get(t, {}).get(fieldname)
        return t

    def _opaque(self, callee: Func) -> bool:
        return (not callee.has_body and not callee.annots
                and not any(p.annots for p in callee.params)
                and not self.sum[callee.qname].alloc_params
                and not self.sum[callee.qname].guards)

    @staticmethod
    def _all_calls(st: Stmt):
        out = []

        def rec(calls):
            for c in calls:
                out.append(c)
                for a in c.args:
                    rec(a.calls)
        rec(st.calls)
        return out

    # -- implicit allocation-size positions --------------------------------

    def _implicit_allocs(self, cs: CallSite):
        """Yields (arg_index, desc) for allocation-sized arguments of cs."""
        name = cs.name
        if name in RECV_ALLOC_METHODS and cs.recv is not None and cs.args:
            yield 0, f"alloc:{name}"
            return
        if name == "assign" and cs.recv is not None and len(cs.args) == 2 \
                and _literal_arg(cs.args[1]):
            # count form `assign(n, fill)`; the iterator form has a
            # non-literal second argument and is input-bounded.
            yield 0, "alloc:assign"
            return
        if name == "make_unique" and cs.array_form and len(cs.args) == 1:
            yield 0, "alloc:make_unique"
            return
        if len(cs.chain) >= 2 and cs.chain[-1] == cs.chain[-2] \
                and name in CTOR_ALLOC_TYPES and len(cs.args) == 2 \
                and _literal_arg(cs.args[1]):
            yield 0, f"alloc:{name}-ctor"

    # -- phase 1: derived guards -------------------------------------------

    def compute_guards(self):
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
                    for cs in self._all_calls(st):
                        callee = self.resolve(cs, f)
                        if callee in (None, "FILTER"):
                            continue
                        csum = self.sum[callee.qname]
                        if cs.recv in pidx and csum.guards_all:
                            if pidx[cs.recv] not in s.guards:
                                s.guards.add(pidx[cs.recv])
                                changed = True
                        for ai, arg in enumerate(cs.args):
                            names = set(arg.refs)
                            if len(names) != 1 or arg.calls and \
                                    any(c.name not in ("move",) for c in arg.calls):
                                continue
                            nm = next(iter(names))
                            if nm not in pidx:
                                continue
                            if csum.guards_all or ai in csum.guards:
                                if pidx[nm] not in s.guards:
                                    s.guards.add(pidx[nm])
                                    changed = True

    # -- phase 2: fixpoint -------------------------------------------------

    def run(self):
        self.compute_guards()
        changed = True
        guard = 0
        while changed and guard < 50:
            changed = False
            guard += 1
            self.findings = []
            for q, f in self.prog.funcs.items():
                if not f.has_body:
                    continue
                if self._analyze_function(f):
                    changed = True
        self.run_growth()
        self._dedupe()

    def _dedupe(self):
        seen = set()
        uniq = []
        for fd in self.findings:
            if fd.key not in seen:
                seen.add(fd.key)
                uniq.append(fd)
        self.findings = uniq

    def _analyze_function(self, f: Func) -> bool:
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

        def eval_arg(arg: Arg) -> set:
            atoms = set()
            for r in arg.refs:
                atoms |= state.get(r, set())
            for c in arg.calls:
                atoms |= call_atoms(c)
            return atoms

        def call_atoms(cs: CallSite) -> set:
            callee = self.resolve(cs, f)
            if callee == "FILTER":
                return set()
            arg_atoms = [eval_arg(a) for a in cs.args]
            recv_atoms = state.get(cs.recv, set()) if cs.recv else set()
            if (callee is None or self._opaque(callee)) and cs.recv \
                    and cs.name in ("find", "at", "count"):
                return set(recv_atoms)
            if callee is None or self._opaque(callee):
                out = set(recv_atoms)
                for a in arg_atoms:
                    out |= a
                return out
            csum = self.sum[callee.qname]
            if ANNOT_UNTRUSTED in callee.annots:
                return {SourceAtom(callee.qname, f.file, cs.line)}
            if csum.guards_all:
                return set()  # a guard's result is a validated size
            out = set(recv_atoms)
            if len(callee.qname.split("::")) >= 2 and \
                    callee.qname.split("::")[-1] == callee.qname.split("::")[-2]:
                for a in arg_atoms:
                    out |= a
            for i in csum.returns_param:
                if i < len(arg_atoms):
                    out |= arg_atoms[i]
            for src in csum.returns_sources:
                out.add(SourceAtom(src[0], f.file, cs.line))
            return out

        def apply_guards(cs: CallSite):
            callee = self.resolve(cs, f)
            if callee in (None, "FILTER"):
                return
            csum = self.sum[callee.qname]
            if csum.guards_all:
                if cs.recv:
                    state[cs.recv] = set()
                for a in cs.args:
                    for r in a.refs:
                        state[r] = set()
            else:
                for i in csum.guards:
                    if i < len(cs.args):
                        for r in cs.args[i].refs:
                            state[r] = set()

        def record(atoms, path: AllocPath, line):
            nonlocal grew
            hop = (f.qname, f.file, line)
            for atom in atoms:
                if isinstance(atom, SourceAtom):
                    chain = (hop,) + path.chain
                    self.findings.append(Finding(
                        kind="alloc",
                        key=f"{f.qname} | {atom[0]} -> {path.alloc}",
                        file=f.file, line=line,
                        detail=[f"  source: {atom[0]}",
                                f"          reaches taint at {atom[1]}:{atom[2]}",
                                f"  alloc:  {path.alloc} at "
                                f"{path.alloc_file}:{path.alloc_line}",
                                "  path:"]
                        + [f"    {fn} at {fl}:{ln}" for fn, fl, ln in chain]
                        + ["  fix: validate the size with a GLOBE_LENGTH_GUARD "
                           "clamp (util::checked_count) before allocating"]))
                elif isinstance(atom, ParamAtom):
                    j = atom[0]
                    lst = self.sum[f.qname].alloc_params.setdefault(j, [])
                    np = AllocPath(path.alloc, path.alloc_file,
                                   path.alloc_line, (hop,) + path.chain)
                    if len(np.chain) <= MAX_CHAIN and \
                            not any(e.alloc == np.alloc and e.chain == np.chain
                                    for e in lst):
                        lst.append(np)
                        grew = True

        def check_allocs(cs: CallSite):
            for i, desc in self._implicit_allocs(cs):
                atoms = eval_arg(cs.args[i])
                if atoms:
                    record(atoms, AllocPath(desc, f.file, cs.line), cs.line)
            callee = self.resolve(cs, f)
            if callee in (None, "FILTER"):
                return
            csum = self.sum[callee.qname]
            for i, paths in csum.alloc_params.items():
                if i >= len(cs.args):
                    continue
                if csum.guards_all or i in csum.guards:
                    continue  # the callee validates this size itself
                atoms = eval_arg(cs.args[i])
                if not atoms:
                    continue
                for path in paths:
                    if len(path.chain) >= MAX_CHAIN:
                        continue
                    record(atoms, path, cs.line)

        def check_return(st: Stmt):
            nonlocal grew
            s_here = self.sum[f.qname]
            if s_here.guards_all:
                return  # a guard's return is a validated size by contract
            atoms = set()
            for r in st.refs:
                atoms |= state.get(r, set())
            for c in st.calls:
                atoms |= call_atoms(c)
            for atom in atoms:
                if isinstance(atom, ParamAtom):
                    if atom[0] not in s_here.returns_param:
                        s_here.returns_param.add(atom[0])
                        grew = True
                elif isinstance(atom, SourceAtom):
                    if atom not in s_here.returns_sources \
                            and len(s_here.returns_sources) < 8:
                        s_here.returns_sources.add(atom)
                        grew = True

        if ANNOT_UNTRUSTED in f.annots:
            src = SourceAtom(f.qname, f.file, f.line)
            if src not in s.returns_sources:
                s.returns_sources.add(src)
                grew = True

        # Two passes over the linearized statements: the second starts from
        # the first pass's end state, approximating loop back-edges.
        for _pass in (0, 1):
            for st in f.stmts:
                # Allocation sizes are checked against the PRE-state: a guard
                # cannot bless the very call that smuggles its argument into
                # an allocation (nested guard calls still evaluate clean).
                for cs in self._all_calls(st):
                    check_allocs(cs)
                for cs in self._all_calls(st):
                    apply_guards(cs)
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
                    for cs in st.calls:
                        callee = self.resolve(cs, f)
                        if cs.recv and (callee is None or
                                        callee != "FILTER" and self._opaque(callee)):
                            extra = set()
                            for a in cs.args:
                                extra |= eval_arg(a)
                            if extra:
                                state[cs.recv] = state.get(cs.recv, set()) | extra
        return grew

    # ----------------------------------------------------------------------
    # Analysis 2: unbounded-growth state
    # ----------------------------------------------------------------------

    def _watched(self, f: Func) -> bool:
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

        for q, f in self.prog.funcs.items():
            if not f.has_body or not self._watched(f):
                continue
            for st in f.stmts:
                for cs in self._all_calls(st):
                    if cs.name in GROWTH_METHODS and cs.recv \
                            and len(cs.recv_path) == 1:
                        note(f, cs.recv, cs.line, cs.name)
                if st.compound and st.lhs and not st.lhs_is_member:
                    note(f, st.lhs, st.line, "+=")
                if st.lhs_subscript:
                    note(f, st.lhs, st.line, "operator[]", MAP_TYPES)
        return events

    def _has_enforcement(self, cls: str, member: str) -> bool:
        for q, f in self.prog.funcs.items():
            if f.cls != cls or not f.has_body:
                continue
            for st in f.stmts:
                for cs in self._all_calls(st):
                    if cs.recv == member and len(cs.recv_path) == 1 \
                            and cs.name in EVIDENCE_METHODS:
                        return True
                if st.lhs == member and not st.lhs_is_member \
                        and not st.compound and st.decl_type is None:
                    return True  # wholesale reset (`ring_ = {}`)
        return False

    def run_growth(self):
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
            cap = self.capacity.get(mid)
            if cap == 0:
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
# Registry, baseline, reporting
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


_HEADLINE = {
    "alloc": "BOUNDS: untrusted size reaches an allocation without a "
             "length guard",
    "growth": "BOUNDS: long-lived container member grows without a "
              "declared bound",
    "growth-unenforced": "BOUNDS: GLOBE_BOUNDED member has no enforced "
                         "capacity check",
}


def render(fd: Finding) -> str:
    lines = [_HEADLINE.get(fd.kind, "BOUNDS: finding")]
    if fd.file:
        lines.append(f"  at {fd.file}:{fd.line}")
    lines.extend(fd.detail)
    lines.append(f"  suppression key: {fd.key}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------

def build_program(paths, frontend, cc_dir):
    if frontend in ("clang", "auto"):
        try:
            return build_program_clang(paths, cc_dir), "clang"
        except ImportError:
            if frontend == "clang":
                raise SystemExit(
                    "frontend 'clang' requested but python libclang is not "
                    "importable (pip install libclang); use --frontend lite")
            print("[bounds] libclang unavailable; using lite frontend",
                  file=sys.stderr)
        except RuntimeError as e:
            if frontend == "clang":
                raise SystemExit(f"clang frontend failed: {e}")
            print(f"[bounds] clang frontend failed ({e}); using lite frontend",
                  file=sys.stderr)
    files = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(collect_sources(p))
        else:
            files.append(p)
    return build_program_lite(files), "lite"


def analyze(paths, frontend, cc_dir, capacity, verbose=False):
    prog, used = build_program(paths, frontend, cc_dir)
    an = Analyzer(prog, capacity, verbose=verbose)
    an.run()
    return an, used


def _stats_line(an: Analyzer, used, new, suppressed):
    n_guard = sum(1 for q, f in an.prog.funcs.items()
                  if ANNOT_GUARD in f.annots)
    n_bounded = sum(1 for fields in an.prog.field_info.values()
                    for info in fields.values() if info["bounded"])
    n_growth = len(an.growth_events())
    return (f"[bounds] frontend={used} functions={len(an.prog.funcs)} "
            f"guards={n_guard} bounded_members={n_bounded} "
            f"growth_members={n_growth} findings={len(an.findings)} "
            f"suppressed={suppressed} new={len(new)}")


def run_tree(args):
    paths = args.paths or [os.path.join(REPO, "src")]
    capacity = load_capacity(args.capacity)
    an, used = analyze(paths, args.frontend, args.compile_commands, capacity,
                       args.verbose)
    baseline = load_baseline(args.baseline)
    new = []
    for fd in an.findings:
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
    stale = [k for k, e in baseline.items() if not e["used"]]
    for k in stale:
        print(f"STALE BASELINE: `{k}` no longer matches any finding — "
              f"remove it from {os.path.relpath(args.baseline, REPO)}")
        if args.strict_baseline:
            rc = 1
    print(_stats_line(an, used, new, len(an.findings) - len(new)))
    if rc == 0:
        print("[bounds] OK: every untrusted size passes a length guard and "
              "every long-lived container has a declared, enforced bound "
              "(modulo justified baseline)")
    return rc


def run_list(args):
    paths = args.paths or [os.path.join(REPO, "src")]
    capacity = load_capacity(args.capacity)
    prog, used = build_program(paths, args.frontend, args.compile_commands)
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


# --------------------------------------------------------------------------
# Self-test (fixture corpus)
# --------------------------------------------------------------------------

EXPECT_RE = re.compile(
    r"//\s*BOUNDS-EXPECT:\s*(clean|flag\s+kind=(\S+)(?:\s+detail=(\S+))?)")
CAPACITY_RE = re.compile(r"//\s*BOUNDS-CAPACITY:\s*(\d+)\s+(\S+)")


def run_self_test(args):
    fixture_dir = os.path.join(REPO, "tests", "bounds", "fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"no fixture directory at {fixture_dir}", file=sys.stderr)
        return 2
    use_clang = args.frontend == "clang"
    if use_clang:
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            print("frontend 'clang' requested for self-test but libclang "
                  "is unavailable", file=sys.stderr)
            return 2
    fixtures = sorted(f for f in os.listdir(fixture_dir) if f.endswith(".cpp"))
    failures = []
    for fx in fixtures:
        path = os.path.join(fixture_dir, fx)
        raw = open(path, encoding="utf-8").read()
        expects = EXPECT_RE.findall(raw)
        if not expects:
            failures.append(f"{fx}: no BOUNDS-EXPECT comment")
            continue
        capacity = {}
        for cap, mid in CAPACITY_RE.findall(raw):
            capacity[mid] = int(cap)
        if use_clang:
            try:
                prog = build_program_clang_single(path, [fixture_dir])
            except Exception as e:  # noqa: BLE001 - report as test failure
                failures.append(f"{fx}: clang parse failed: {e}")
                continue
        else:
            prog = build_program_lite([path])
        an = Analyzer(prog, capacity)
        an.run()
        want_clean = any(e[0] == "clean" for e in expects)
        flags = [e for e in expects if e[0].startswith("flag")]
        if want_clean and an.findings:
            failures.append(
                f"{fx}: expected clean, got {len(an.findings)} finding(s):\n"
                + "\n".join("    " + f.key for f in an.findings))
            continue
        if not want_clean:
            unmatched = []
            for _e, kind, detail in flags:
                ok = any(fd.kind == kind and (not detail or detail in fd.key)
                         for fd in an.findings)
                if not ok:
                    unmatched.append(f"kind={kind} detail={detail}")
            extra = [fd for fd in an.findings
                     if not any(fd.kind == kind and
                                (not detail or detail in fd.key)
                                for _e, kind, detail in flags)]
            if unmatched:
                failures.append(
                    f"{fx}: expected finding not produced: "
                    f"{'; '.join(unmatched)}\n    got: "
                    + ("; ".join(fd.key for fd in an.findings) or "nothing"))
            if extra:
                failures.append(
                    f"{fx}: unexpected finding(s): "
                    + "; ".join(fd.key for fd in extra))
    frontend = "clang" if use_clang else "lite"
    print(f"[bounds] self-test ({frontend}): {len(fixtures)} fixtures, "
          f"{len(failures)} failure(s)")
    for msg in failures:
        print("  FAIL " + msg)
    if len(fixtures) < 15:
        print(f"  FAIL corpus too small: {len(fixtures)} fixtures (< 15)")
        return 1
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files/dirs (default: src/)")
    ap.add_argument("--frontend", choices=("auto", "clang", "lite"),
                    default="auto")
    ap.add_argument("--compile-commands", default=os.path.join(REPO, "build"),
                    help="directory containing compile_commands.json")
    ap.add_argument("--capacity",
                    default=os.path.join(REPO, "tools", "capacity_bounds.txt"))
    ap.add_argument("--baseline",
                    default=os.path.join(REPO, "tools", "bounds_baseline.txt"))
    ap.add_argument("--strict-baseline", action="store_true",
                    help="stale baseline entries are errors")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--list", action="store_true",
                    help="dump guards, bounded members, growth sites")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        if args.frontend == "auto":
            args.frontend = "lite"
        sys.exit(run_self_test(args))
    if args.list:
        sys.exit(run_list(args))
    sys.exit(run_tree(args))


if __name__ == "__main__":
    main()
