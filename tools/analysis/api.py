"""Public-API reach for lint's test-only-api check: the public functions
each src/ header declares, and the mentions of them in other files.

A token walk, stdlib only, so the check runs without a build like every
lint check.  Declarators are recognised at namespace and class scope;
every name inside a function body, a constructor's initializer list, a
default argument or a member initializer is a mention.  That covers the
call forms a call-graph IR misses: explicit template arguments
(`hmac_bytes<crypto::Sha1>(...)`), destructor bodies, `&Class::name`
and function names passed as values."""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import KEYWORDS, MACROS, is_ident, match_forward, strip_comments, tokenize

ACCESS = {"public", "private", "protected"}
# Template wrappers whose argument is the type a receiver calls into.
WRAPPERS = {"unique_ptr", "shared_ptr", "optional", "weak_ptr"}


@dataclass
class ApiFunc:
    qname: str          # globe::net::SimNet::set_link_down
    cls: str | None     # SimNet; None for a free function
    name: str
    file: str
    line: int


@dataclass
class Use:
    name: str
    quals: list         # qualifier chain before the name (`Foo::`)
    recv: str | None    # receiver variable, "" when not a plain name
    member: bool        # the receiver is itself a member (`a.b->name`)
    call: bool          # followed by `(` or template arguments
    owner: str | None   # qualified name of the enclosing function
    owner_cls: str | None


@dataclass
class FileScan:
    decls: list = field(default_factory=list)    # list[ApiFunc], public only
    uses: list = field(default_factory=list)     # list[Use]
    bases: dict = field(default_factory=dict)    # class -> [base class]
    classes: set = field(default_factory=set)    # every class defined
    free: set = field(default_factory=set)       # free functions declared
    types: dict = field(default_factory=dict)    # variable -> {type}
    namespaces: set = field(default_factory=set)


def _back_chain(toks, j):
    """(qualifiers, index of the chain's first token) for the name at j."""
    quals, k = [], j
    while k >= 2 and toks[k - 1][0] == "::" and is_ident(toks[k - 2][0]):
        quals.insert(0, toks[k - 2][0])
        k -= 2
    return quals, k


def _skip_angles(toks, j):
    """Index past the `<...>` group opening at toks[j]."""
    d = 0
    while j < len(toks):
        t = toks[j][0]
        if t == "<":
            d += 1
        elif t == ">":
            d -= 1
            if d == 0:
                return j + 1
        elif t == ">>":
            d -= 2
            if d <= 0:
                return j + 1
        elif t in (";", "{"):
            return j
        j += 1
    return j


def _declared_type(toks, k):
    """The type named just before the variable at k (`Foo* v`,
    `std::unique_ptr<Foo> v`, `const Foo& v`), or None."""
    k -= 1
    while k >= 0 and toks[k][0] in ("*", "&", "&&", "const"):
        k -= 1
    if k < 0:
        return None
    t = toks[k][0]
    if t == ">":
        d, m = 0, k
        while m >= 0:
            if toks[m][0] == ">":
                d += 1
            elif toks[m][0] == "<":
                d -= 1
                if d == 0:
                    break
            m -= 1
        if m < 1 or not is_ident(toks[m - 1][0]):
            return None
        if toks[m - 1][0] in WRAPPERS:
            inner = [tk[0] for tk in toks[m + 1:k]
                     if is_ident(tk[0]) and tk[0] not in KEYWORDS]
            return inner[-1] if inner else None
        return toks[m - 1][0]
    if is_ident(t) and (t not in KEYWORDS or t == "auto") and t not in MACROS:
        return t
    return None


def scan(text: str, rel: str, header: bool) -> FileScan:
    """Declarations (when `header`) and mentions of one source file."""
    toks = tokenize(strip_comments(text))
    n = len(toks)
    out = FileScan()
    # Scope entries: [kind, name, access, exported, owner, owner_cls];
    # kind is ns, class or body.
    scopes = [["ns", "", "public", True, None, None]]
    stmt_start = 0      # first token of the current ns/class statement
    init_owner = None   # declarator whose initializer list is being read

    def qual(parts):
        names = [s[1] for s in scopes if s[0] in ("ns", "class") and s[1]]
        return "::".join(names + parts)

    def cur_class():
        for s in reversed(scopes):
            if s[0] == "class":
                return s[1]
        return None

    def note_type(j):
        nxt = toks[j + 1][0] if j + 1 < n else ""
        if nxt in ("(", "{", "=", ";", ",", ")", "[", ":"):
            ty = _declared_type(toks, j)
            if ty and ty != toks[j][0]:
                out.types.setdefault(toks[j][0], set()).add(ty)

    def mention(j, owner, owner_cls):
        quals, k = _back_chain(toks, j)
        recv, member = None, False
        if not quals and k >= 1 and toks[k - 1][0] in (".", "->"):
            r = toks[k - 2][0] if k >= 2 else ""
            recv = r if is_ident(r) and r not in KEYWORDS else ""
            member = k >= 3 and toks[k - 3][0] in (".", "->")
        call = j + 1 < n and toks[j + 1][0] in ("(", "<")
        out.uses.append(Use(toks[j][0], quals, recv, member, call, owner,
                            owner_cls))

    def expr(lo, hi, owner, owner_cls):
        """Every identifier of toks[lo:hi] is a mention, except a local
        declared constructor-style (`Type name(args)`)."""
        for j in range(lo, hi):
            t = toks[j][0]
            if not is_ident(t) or t in KEYWORDS or t in MACROS:
                continue
            note_type(j)
            prev = toks[j - 1][0] if j else ""
            nxt = toks[j + 1][0] if j + 1 < n else ""
            if nxt in ("(", "{") and is_ident(prev) and prev not in KEYWORDS \
                    and (j < 2 or toks[j - 2][0] not in (".", "->")):
                continue
            mention(j, owner, owner_cls)

    i = 0
    while i < n:
        t, line = toks[i]
        top = scopes[-1]
        if top[0] == "body":
            if t == "{":
                scopes.append(["body", "", "", False, top[4], top[5]])
            elif t == "}":
                scopes.pop()
                stmt_start = i + 1
            else:
                expr(i, i + 1, top[4], top[5])
            i += 1
            continue
        # Namespace or class scope.
        if init_owner is not None:
            if t == "{" and toks[i - 1][0] in (")", "}"):
                scopes.append(["body", "", "", False] + init_owner)
                init_owner = None
            elif t == "{":
                end = match_forward(toks, i, "{", "}")
                expr(i, end, *init_owner)
                i = end
                continue
            else:
                expr(i, i + 1, *init_owner)
            i += 1
            continue
        stmt = [tk[0] for tk in toks[stmt_start:i]]
        if t == "template" and i + 1 < n and toks[i + 1][0] == "<":
            i = _skip_angles(toks, i + 1)
            stmt_start = i
            continue
        if t in ACCESS and i + 1 < n and toks[i + 1][0] == ":" \
                and top[0] == "class":
            top[2] = t
            i += 2
            stmt_start = i
            continue
        if t == ";":
            i += 1
            stmt_start = i
            continue
        if t == "}":
            if len(scopes) > 1:
                scopes.pop()
            i += 1
            stmt_start = i
            continue
        if t == "{":
            exported = top[3] and (top[0] == "ns" or top[2] == "public")
            if "namespace" in stmt:
                names = [s for s in stmt[stmt.index("namespace") + 1:]
                         if is_ident(s) and s != "inline"]
                name = "::".join(names)
                out.namespaces.update(names)
                scopes.append(["ns", name, "public", exported and bool(name),
                               None, None])
            elif "enum" in stmt:
                i = match_forward(toks, i, "{", "}")
                continue
            elif any(s in ("class", "struct", "union") for s in stmt) \
                    and "(" not in stmt and "=" not in stmt:
                kw = next(s for s in stmt if s in ("class", "struct", "union"))
                rest = stmt[stmt.index(kw) + 1:]
                words = [s for s in rest[:rest.index(":")] if ":" in rest] \
                    if ":" in rest else rest
                names = [s for s in words if is_ident(s) and s not in MACROS
                         and s not in ("final", "alignas")]
                name = names[0] if names else ""
                out.classes.add(name)
                if ":" in rest:
                    bases = []
                    part = []
                    for s in rest[rest.index(":") + 1:] + [","]:
                        if s == ",":
                            idents = [p for p in part if is_ident(p)
                                      and p not in ACCESS and p != "virtual"]
                            if idents:
                                bases.append(idents[-1])
                            part = []
                        elif s == "<":
                            part.append("<")
                        elif "<" not in part:
                            part.append(s)
                    out.bases[name] = bases
                scopes.append(["class", name,
                               "private" if kw == "class" else "public",
                               exported, None, None])
            else:
                # A brace initializer at namespace or class scope.
                end = match_forward(toks, i, "{", "}")
                expr(i, end, None, None)
                i = end
                continue
            i += 1
            stmt_start = i
            continue
        if "=" in stmt:
            expr(i, i + 1, None, None)  # member or variable initializer
            i += 1
            continue
        if not (is_ident(t) and i + 1 < n and toks[i + 1][0] in ("(", "<")):
            if is_ident(t):
                note_type(i)
            i += 1
            continue
        # A name followed by `(`: a declarator at this scope.
        quals, k = _back_chain(toks, i)
        if k > 0 and toks[k - 1][0] == "~":
            quals, _ = _back_chain(toks, k - 1)
        open_i = i + 1
        if toks[open_i][0] == "<":
            if t != "operator":
                i += 1
                continue
        if t in MACROS or t in KEYWORDS - {"operator"} \
                or any(s in ("friend", "using", "typedef") for s in stmt):
            i = match_forward(toks, open_i, "(", ")") if toks[open_i][0] == "(" \
                else i + 1
            continue
        special = (t == "operator" or (k > 0 and toks[k - 1][0] == "~")
                   or t == cur_class() or bool(quals and t == quals[-1]))
        if t == "operator":
            while open_i < n and toks[open_i][0] != "(":
                open_i += 1
            if open_i + 1 < n and toks[open_i + 1][0] == ")":
                open_i += 2  # operator()(...)
                while open_i < n and toks[open_i][0] != "(":
                    open_i += 1
        close = match_forward(toks, open_i, "(", ")")
        # Default arguments are mentions.
        depth = 0
        in_default = False
        owner = qual(quals + [t])
        owner_cls = quals[-1] if quals else cur_class()
        for j in range(open_i + 1, close - 1):
            s = toks[j][0]
            if s in ("(", "[", "{", "<"):
                depth += 1
            elif s in (")", "]", "}", ">"):
                depth -= 1
            elif s == "," and depth == 0:
                in_default = False
            elif s == "=" and depth == 0:
                in_default = True
            elif in_default:
                expr(j, j + 1, owner, owner_cls)
            elif is_ident(s):
                note_type(j)
        # Qualifiers up to `;`, `{`, `=` or an initializer list's `:`.
        k2 = close
        override = deleted = False
        end_tok = None
        while k2 < n:
            s = toks[k2][0]
            if s in ("override", "final"):
                override = True
            elif s in MACROS and k2 + 1 < n and toks[k2 + 1][0] == "(":
                k2 = match_forward(toks, k2 + 1, "(", ")")
                continue
            elif s in (";", "{", ":", "="):
                end_tok = s
                break
            elif s == "(":
                break  # not a declarator after all
            k2 += 1
        if end_tok is None:
            i = close
            continue
        if end_tok == "=":
            deleted = k2 + 1 < n and toks[k2 + 1][0] in ("delete", "default")
        if top[0] == "ns" and not quals:
            out.free.add(t)
        public = top[3] and (top[0] == "ns" or top[2] == "public")
        if header and public and not (special or override or deleted) \
                and not (top[0] == "ns" and quals):
            out.decls.append(ApiFunc(owner, cur_class(), t, rel, line))
        if end_tok == "{":
            scopes.append(["body", "", "", False, owner, owner_cls])
            i = k2 + 1
        elif end_tok == ":":
            init_owner = [owner, owner_cls]
            i = k2 + 1
        else:
            i = k2
        stmt_start = i
    return out


class ApiIndex:
    """Every src/ header's public functions, with the class and namespace
    tables that resolve a mention to the functions it may name."""

    def __init__(self, header_scans):
        self.funcs = {}
        self.by_name = {}
        self.bases = {}
        self.namespaces = set()
        self.classes = set()
        self.member_types = {}
        for sc in header_scans:
            for f in sc.decls:
                if f.qname not in self.funcs:
                    self.funcs[f.qname] = f
                    self.by_name.setdefault(f.name, []).append(f)
            self.bases.update(sc.bases)
            self.namespaces |= sc.namespaces
            self.classes |= sc.classes
            for var, tys in sc.types.items():
                self.member_types.setdefault(var, set()).update(tys)

    def ancestors(self, cls, bases):
        seen, todo = [], [cls]
        while todo:
            c = todo.pop()
            if c in seen:
                continue
            seen.append(c)
            todo.extend(bases.get(c, []))
        return seen

    def resolve(self, use: Use, local: FileScan):
        """The API functions a mention may name.  A member is named by a
        call or a qualified `&Class::name`; a bare name that is not called
        may still pass a free function as a value."""
        cands = self.by_name.get(use.name, [])
        if not use.call and not use.quals:
            cands = [] if use.recv is not None else \
                [f for f in cands if f.cls is None]
        if not cands:
            return []
        bases = dict(self.bases)
        bases.update(local.bases)
        classes = self.classes | local.classes

        def in_class(cls):
            line = self.ancestors(cls, bases)
            return [f for f in cands if f.cls in line]

        if use.quals:
            q = use.quals[-1]
            hits = in_class(q) + [f for f in cands if f.cls is None and (
                f.qname.endswith("::" + q + "::" + f.name))]
            if hits or q in classes or q in self.namespaces or q == "std":
                return hits
            return cands
        if use.recv is not None:
            tys = self.member_types.get(use.recv) if use.member else \
                local.types.get(use.recv) or self.member_types.get(use.recv)
            if tys and len(tys) == 1:
                ty = next(iter(tys))
                if ty in classes:
                    return in_class(ty)
            return [f for f in cands if f.cls]
        if use.owner_cls:
            hits = in_class(use.owner_cls)
            if hits:
                return hits
        free = [f for f in cands if f.cls is None]
        if free or use.name in local.free:
            return free  # a function of this file shadows the members
        return cands
