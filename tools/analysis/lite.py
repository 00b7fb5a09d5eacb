"""Lite frontend: a stdlib-only tokenizer and scope-tracking declarator
walker that recognizes the GLOBE_* macro tokens directly in the text, so the
analyses also run under plain ``ctest`` on toolchains without libclang.

Function bodies go to a body parser the pass supplies; ``linearize`` (the
statement IR of the taint and bounds passes) is the default.  Member fields
and mutex members come from one text scan per class body."""

from __future__ import annotations

import os
import re

from .ir import Arg, CallSite, Func, Param, Program, Stmt, subsys_of
from .lexer import (CONTROL, KEYWORDS, MACRO_RE, MACROS, at_top, is_ident,
                    match_forward, split_top, strip_comments, tokenize)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "|=", "&=", "^=", "<<=", ">>="}
# Switch labels: `case k: {` opens a block like a control statement does.
LABELS = {"case", "default"}

# Template functions the parser must read through `<...>` to see the call:
# make_unique<T[]>(n) allocates n elements.
TEMPLATE_CALLS = {"make_unique"}

_SINGLE_TYPES = {"auto", "bool", "int", "unsigned", "long", "short", "float",
                 "double", "char", "size_t", "uint32_t", "uint64_t"}


# --------------------------------------------------------------------------
# Declarator walker
# --------------------------------------------------------------------------

def build_program(paths, annots, body=None) -> Program:
    prog = Program()
    for p in paths:
        parse_file(p, prog, annots, body)
    return prog


def parse_file(path, prog, annots, body=None):
    text = strip_comments(open(path, encoding="utf-8", errors="replace").read())
    parse_text(text, os.path.relpath(path, REPO), prog, annots, body)


def parse_text(text, relpath, prog: Program, annots, body=None):
    """Adds the functions of one comment-stripped file to prog.  `annots`
    is the set of annotation kinds the pass reads; `body(f, toks)` fills a
    definition's body and returns extra functions (lifted lambdas)."""
    body = body or linearize
    toks = tokenize(text)
    scopes = []   # (kind, name)
    pending = []  # tokens since the last boundary
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
            # C++17 nested namespaces (`namespace a::b {`) open ONE brace.
            j = i + 1
            names = []
            while j < n and toks[j][0] not in ("{", ";", "="):
                if is_ident(toks[j][0]):
                    names.append(toks[j][0])
                j += 1
            if j < n and toks[j][0] == "{":
                scopes.append(("ns", "::".join(names)))
            i = j + 1
            pending = []
            continue
        if t in ("class", "struct") and not (pending and pending[-1][0] == "enum"):
            # `class GLOBE_SCOPED_CAPABILITY LockGuard {` names LockGuard.
            j = i + 1
            name = None
            while j < n and toks[j][0] not in ("{", ";"):
                if is_ident(toks[j][0]) and name is None \
                        and toks[j][0] not in MACROS:
                    name = toks[j][0]
                if toks[j][0] == "(":  # e.g. `struct X x(...)` — not a defn
                    break
                j += 1
            if j < n and toks[j][0] == "{" and name:
                scopes.append(("class", name))
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
            i = match_forward(toks, i, "{", "}")  # stray block (enum, init)
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
            # candidate function declarator
            name_parts = []
            j = len(pending) - 1
            if is_ident(pending[j][0]) \
                    and pending[j][0] not in KEYWORDS - {"operator"}:
                name_parts.append(pending[j][0])
                j -= 1
                while j >= 1 and pending[j][0] == "::" \
                        and is_ident(pending[j - 1][0]):
                    name_parts.append(pending[j - 1][0])
                    j -= 2
            name_parts.reverse()
            is_dtor = j >= 0 and pending[j][0] == "~"
            is_op = "operator" in [p[0] for p in pending[max(0, j - 1):]]
            # `T m_ GLOBE_GUARDED_BY(mu_);` is a member, not a function.
            if not name_parts or is_op or name_parts[-1] in MACROS:
                i = match_forward(toks, i, "(", ")")
                continue
            close = match_forward(toks, i, "(", ")")
            ptoks = toks[i + 1:close - 1]
            # qualifier zone: find ';' (decl) or '{' (def); harvest
            # GLOBE_REQUIRES arguments along the way.
            k = close
            kind = None
            requires = set()
            while k < n:
                q = toks[k][0]
                if q == ";":
                    kind = "decl"
                    break
                if q == "{":
                    kind = "def"
                    break
                if q == "=":  # = 0; / = default; / = delete;
                    kind = "decl"
                    while k < n and toks[k][0] != ";":
                        k += 1
                    break
                if q == ":":  # ctor init list: skip to the body '{'
                    k += 1
                    while k < n:
                        qq = toks[k][0]
                        if qq == "(":
                            k = match_forward(toks, k, "(", ")")
                            continue
                        if qq == "{":
                            # init-list brace vs body brace: the body
                            # follows a closing paren/brace directly.
                            if toks[k - 1][0] in (")", "}"):
                                break
                            k = match_forward(toks, k, "{", "}")
                            continue
                        if qq == ";":
                            break
                        k += 1
                    kind = "def" if k < n and toks[k][0] == "{" else "decl"
                    break
                if q in MACROS and k + 1 < n and toks[k + 1][0] == "(":
                    mend = match_forward(toks, k + 1, "(", ")")
                    if q == "GLOBE_REQUIRES":
                        for part in split_top(toks[k + 2:mend - 1]):
                            ch = lock_chain(part)
                            if ch:
                                requires.add(ch)
                    k = mend
                    continue
                if q == "(":  # not a declarator after all (an expression)
                    kind = "skip"
                    break
                k += 1
            if kind is None or is_dtor:
                kind = "skip"
            if kind == "skip":
                i = close
                continue
            f = Func(file=relpath, line=line, requires=requires)
            for tok in [p[0] for p in pending] + \
                    [toks[m][0] for m in range(close, min(k, n))]:
                if MACROS.get(tok) in annots:
                    f.annots.add(MACROS[tok])
            f.params = parse_params(ptoks, annots)
            f.local_types.update(param_types(f.params))
            cls = cur_class()
            f.qname = qname(name_parts)  # class scope is already on the stack
            f.cls = cls if cls else (name_parts[-2] if len(name_parts) >= 2
                                     else None)
            extra = []
            if kind == "def":
                body_end = match_forward(toks, k, "{", "}")  # toks[k] == '{'
                extra = body(f, toks[k + 1:body_end - 1])
                f.has_body = True
                i = body_end
            else:
                i = k + 1
            prog.add(f)
            for lf in extra:
                prog.add(lf)
            pending = []
            continue
        pending.append(toks[i])
        i += 1

    harvest_members(text, relpath, prog)


def parse_params(ptoks, annots):
    out = []
    for part in split_top(ptoks):
        if part and not (len(part) == 1 and part[0][0] == "void"):
            out.append(_parse_param(part, annots))
    return out


def param_types(params):
    return {p.name: p.type for p in params if p.name and p.type}


def _parse_param(toks, annots) -> Param:
    p = Param()
    # Truncate default argument.
    for idx, tk in enumerate(toks):
        if tk[0] == "=" and at_top(toks, idx):
            toks = toks[:idx]
            break
    kept = []
    for i, tk in enumerate(toks):
        name = tk[0]
        if not is_ident(name):
            continue
        if name in MACROS:
            if MACROS[name] in annots:
                p.annots.add(MACROS[name])
        elif name not in ("const", "struct", "typename", "volatile"):
            kept.append((i, name))
    if not kept:
        return p
    li, lname = kept[-1]
    prev = toks[li - 1][0] if li > 0 else None
    if len(kept) >= 2 and prev not in ("::", "<", ","):
        p.name = lname
        p.type = kept[-2][1]
    else:
        p.type = lname  # unnamed parameter
    return p


def lock_chain(toks):
    """Token list -> ident chain tuple, dropping this/namespaces/derefs."""
    return tuple(t for t, _line in toks
                 if is_ident(t) and t not in KEYWORDS and t not in MACROS
                 and t not in ("util", "globe", "std"))


# --------------------------------------------------------------------------
# Statement linearizer (the taint and bounds body IR)
# --------------------------------------------------------------------------

def split_body(toks):
    """Splits a function body into statements, in textual order.  Yields
    (tokens, brace, line): brace is ';' for a plain statement, '{' for the
    head of a control block it opens, '}' for the tail of a block it
    closes, and None for trailing tokens.  Balanced init-list and lambda
    braces stay inside their statement."""
    seg = []
    i, n = 0, len(toks)
    pdepth = 0
    while i < n:
        t, line = toks[i]
        if t == "(":
            pdepth += 1
        elif t == ")":
            pdepth -= 1
        elif pdepth == 0 and t in (";", "}"):
            yield seg, t, line
            seg = []
            i += 1
            continue
        elif pdepth == 0 and t == "{":
            if not seg or seg[0][0] in CONTROL or seg[0][0] in LABELS:
                yield seg, t, line
                seg = []
                i += 1
                continue
            end = match_forward(toks, i, "{", "}")
            seg.extend(toks[i + 1:end - 1])
            i = end
            continue
        seg.append(toks[i])
        i += 1
    yield seg, None, 0


def linearize(f: Func, toks):
    """Fills f.stmts from a body; local declarations type f.local_types."""
    for seg, brace, _line in split_body(toks):
        st = parse_stmt(seg)
        if st is None:
            continue
        f.stmts.append(st)
        if brace != ";":
            continue
        if st.decl_type and st.lhs:
            f.local_types[st.lhs] = st.decl_type
        elif st.lhs and st.lhs not in f.local_types \
                and len(st.calls) == 1 and st.calls[0].explicit \
                and len(st.calls[0].chain) >= 2 \
                and st.calls[0].chain[-2][:1].isupper():
            # Factory idiom: `auto x = Type::parse(...)` — remember Type so
            # later `x->method()` receiver calls resolve.
            f.local_types[st.lhs] = st.calls[0].chain[-2]
    return []


def _args(toks):
    return [Arg(*parse_expr(part)) for part in split_top(toks) if part]


def parse_expr(toks):
    """Recursive descent over an expression token list -> (refs, calls)."""
    refs, calls = [], []
    i = 0
    n = len(toks)
    while i < n:
        t, line = toks[i]
        # `std` is a keyword, but a `std::` prefix heads its chain so a
        # call spelled std::name(...) stays qualified (and external).
        std_chain = t == "std" and i + 1 < n and toks[i + 1][0] == "::"
        if is_ident(t) and (std_chain or t not in KEYWORDS) \
                and t not in MACROS:
            # Parse the whole postfix chain forward: a::b, x.f, p->q ...
            chain, seps = [t], []
            j = i + 1
            while j + 1 < n and toks[j][0] in ("::", ".", "->") \
                    and is_ident(toks[j + 1][0]) \
                    and toks[j + 1][0] not in KEYWORDS:
                seps.append(toks[j][0])
                chain.append(toks[j + 1][0])
                j += 2
            # make_unique<T[]>(n): hop the template argument list so the
            # call and its count argument are visible.  Only the array form
            # allocates a count — make_unique<T>(args) forwards to a ctor.
            array_form = False
            if j < n and toks[j][0] == "<" and chain[-1] in TEMPLATE_CALLS:
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
                end = match_forward(toks, j, "(", ")")
                cs.args = _args(toks[j + 1:end - 1])
                calls.append(cs)
                i = end
                continue
            if seps and all(s == "::" for s in seps):
                i = j  # qualified constant (ErrorCode::kNotFound): not a var
                continue
            refs.append(chain[0])  # member-access base variable
            i = j
            continue
        i += 1
    return refs, calls


def subscript_bases(seg):
    """The variable subscripted in each `x[...]` / `this->x[...]` of a
    statement, wherever it sits: an assignment target, a reference
    binding, an operand of ++, or a receiver (`x[k].f = v`).  `o.x[...]`
    subscripts another object's member and is left out."""
    out = []
    for i in range(len(seg) - 1):
        t = seg[i][0]
        if seg[i + 1][0] != "[" or not is_ident(t) or t in KEYWORDS:
            continue
        if i > 0 and seg[i - 1][0] in (".", "->") \
                and not (i > 1 and seg[i - 2][0] == "this"):
            continue
        out.append(t)
    return out


def parse_stmt(seg) -> Stmt | None:
    """seg: one statement's tokens (no trailing ';')."""
    if not seg:
        return None
    st = Stmt(line=seg[0][1], subscripts=subscript_bases(seg))
    # Strip leading control keywords / labels.
    while seg and seg[0][0] in ("else", "do", "try"):
        seg = seg[1:]
    if not seg:
        return None
    # A case label heads the statement it labels: `case k: x = f();`.
    if seg[0][0] in LABELS:
        colon = next((i for i, tk in enumerate(seg) if tk[0] == ":"), None)
        seg = seg[colon + 1:] if colon is not None else []
        if not seg:
            return None
    head = seg[0][0]
    if head in ("break", "continue", "goto", "using",
                "public", "private", "protected"):
        return None
    cond_refs, cond_calls = [], []
    if head == "return":
        st.is_return = True
        seg = seg[1:]
    elif head in ("if", "while", "switch", "for", "catch"):
        seg = seg[1:]
        if seg and seg[0][0] == "(":
            end = match_forward(seg, 0, "(", ")")
            inner = seg[1:end - 1]
            rest = seg[end:]  # brace-less body: `if (ok) do_thing(x);`
            if head == "for":
                colon = [i for i, tk in enumerate(inner)
                         if tk[0] == ":" and at_top(inner, i)]
                if colon:  # range-for: `for (decl : expr)` is a declaration
                    idents = [tk[0] for tk in inner[:colon[0]]
                              if is_ident(tk[0]) and tk[0] not in KEYWORDS]
                    st.lhs = idents[-1] if idents else None
                    inner = inner[colon[0] + 1:]
            if rest:
                cond_refs, cond_calls = parse_expr(inner)
                if rest[0][0] == "return":
                    st.is_return = True
                    rest = rest[1:]
                seg = rest
            else:
                seg = inner
    # Assignment split at the first top-level assignment operator.
    eq = next((idx for idx, tk in enumerate(seg)
               if tk[0] in ASSIGN_OPS and at_top(seg, idx)), None)
    if eq is not None and st.lhs is None:
        lhs_toks = seg[:eq]
        idents = [tk[0] for tk in lhs_toks if is_ident(tk[0])
                  and tk[0] not in KEYWORDS and tk[0] not in MACROS]
        member = any(tk[0] in (".", "->", "[") for tk in lhs_toks)
        if idents:
            if member:
                st.lhs = idents[0]
                st.lhs_is_member = True
                # index expressions are reads
                st.refs.extend(idents[1:])
            else:
                st.lhs = idents[-1]
                if len(idents) >= 2:
                    st.decl_type = idents[-2]
        st.compound = seg[eq][0] != "="
        seg = seg[eq + 1:]
    elif eq is None and st.lhs is None and not st.is_return:
        # Constructor-style declaration: `Type name(args)` / `Type name{args}`
        idents = []
        for idx, tk in enumerate(seg):
            if is_ident(tk[0]):
                idents.append((idx, tk[0]))
            elif tk[0] in ("(", "{"):
                break
            elif tk[0] not in ("::", "<", ">", "&", "*", ",", "const"):
                idents = []
                break
        vals = [x for x in idents if x[1] not in KEYWORDS or x[1] in _SINGLE_TYPES]
        if len(vals) >= 2:
            last_idx, last = vals[-1]
            nxt = seg[last_idx + 1][0] if last_idx + 1 < len(seg) else None
            prev = seg[last_idx - 1][0] if last_idx > 0 else None
            if nxt in ("(", "{") and prev not in ("::", ".", "->"):
                st.lhs = last
                st.decl_type = vals[-2][1]
                # the ctor call: Type(args)
                end = match_forward(seg, last_idx + 1,
                                    nxt, ")" if nxt == "(" else "}")
                st.calls.append(CallSite(
                    line=st.line, chain=[st.decl_type, st.decl_type],
                    explicit=True, args=_args(seg[last_idx + 2:end - 1])))
                return st
    refs, calls = parse_expr(seg)
    st.refs.extend(refs)
    st.calls.extend(calls)
    # Condition refs/calls of a brace-less control statement ride along so
    # sanitizer calls in the condition (e.g. `if (x.verify()) use(x)`) and
    # their taint still take effect.
    st.refs.extend(cond_refs)
    st.calls.extend(cond_calls)
    if st.lhs is None and st.decl_type is None and not st.is_return \
            and not st.calls and not st.refs:
        return None
    return st


# --------------------------------------------------------------------------
# Member harvest: fields and mutexes, one scan per class body
# --------------------------------------------------------------------------

# Member declarations: one nesting level of template arguments, an
# optional trailing GLOBE_* zone (GLOBE_BOUNDED, GLOBE_GUARDED_BY(...)), an
# optional default member initializer.
_TPL = r"<(?:[^<>;]|<[^<>;]*>)*>"
_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?([A-Za-z_][\w:]*(?:" + _TPL + r")?)"
    r"[&*\s]+([A-Za-z_]\w*)\s*"
    r"((?:" + MACRO_RE + r"\s*)*)"
    r"(?:=[^;]*|\{[^;]*\})?;",
    re.MULTILINE,
)
_CLASS_RE = re.compile(r"\b(?:class|struct)\s+(?:" + MACRO_RE + r"\s+)?"
                       r"([A-Za-z_]\w*)[^;{()]*\{")

MUTEX_TYPES = {"Mutex": "mutex", "RecursiveMutex": "recursive"}
_MUTEX_RES = (
    re.compile(
        r"^\s*(?:mutable\s+)?(?:globe::)?(?:util::)?(Mutex|RecursiveMutex)\s+"
        r"([A-Za-z_]\w*)\s*(?:" + MACRO_RE + r"\s*)*;",
        re.MULTILINE),
    re.compile(
        r"^\s*(?:mutable\s+)?std::unique_ptr<\s*(?:globe::)?(?:util::)?"
        r"(Mutex|RecursiveMutex)\s*>\s+([A-Za-z_]\w*)\s*"
        r"(?:" + MACRO_RE + r"\s*)*(?:=[^;]*|\{[^;]*\})?;",
        re.MULTILINE),
)


def _mask_nested_braces(body: str) -> str:
    """Blanks the contents of any brace block inside a class body (inline
    method bodies, nested classes, default initializers) so the member
    regexes only see the class's own declarations; nested classes are
    scanned as classes of their own."""
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


def base_type(spelling: str) -> str:
    """Type spelling -> its unqualified template name (`std::map<K, V>` ->
    `map`)."""
    return spelling.split("<")[0].split("::")[-1].strip("& *")


def unwrap_type(spelling: str) -> str:
    """Type spelling -> base name, looking through smart pointers and
    optional so a `std::unique_ptr<GlobeDocProxy> proxy_` receiver
    resolves."""
    base = base_type(spelling)
    if base in ("unique_ptr", "shared_ptr", "optional") and "<" in spelling:
        return base_type(spelling.split("<", 1)[1].rsplit(">", 1)[0])
    return base


def harvest_members(text: str, relpath: str, prog: Program):
    """Adds the member fields (prog.fields / prog.field_info) and util mutex
    members (prog.mutexes) declared in one comment-stripped file."""
    subsys = subsys_of(relpath)
    for cm in _CLASS_RE.finditer(text):
        cls = cm.group(1)
        start = j = cm.end() - 1
        depth = 0
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
            declared = base_type(fm.group(1))
            if declared in ("return", "using", "typedef", "namespace"):
                continue
            prog.add_field(cls, fm.group(2), unwrap_type(fm.group(1)),
                           declared, relpath,
                           base_line + body.count("\n", 0, fm.start(1)),
                           "GLOBE_BOUNDED" in fm.group(3))
        for rx in _MUTEX_RES:
            for fm in rx.finditer(body):
                prog.register_mutex(
                    subsys, cls, fm.group(2), MUTEX_TYPES[fm.group(1)],
                    relpath, base_line + body.count("\n", 0, fm.start(1)))
