"""libclang frontend: parses each TU of compile_commands.json and reads the
``[[clang::annotate("globe::...")]]`` attributes the GLOBE_* macros expand
to.  Produces the same IR as the lite frontend and follows its rules: a
call's receiver stays out of the statement's refs (it reaches the analysis
through the call), and an implicit-`this` member access names the member
itself.  Function bodies go to a body walker the pass supplies;
``linearize`` (the statement IR of the taint and bounds passes) is the
default."""

from __future__ import annotations

import os
import re

from . import lite
from .ir import Arg, CallSite, Func, Param, Program, Stmt, subsys_of
from .lexer import strip_comments
from .lite import (ASSIGN_OPS, MUTEX_TYPES, REPO, TEMPLATE_CALLS, base_type,
                   unwrap_type)

ci = None  # clang.cindex, bound by load()


def load():
    """Imports clang.cindex; raises ImportError when python libclang is
    not installed."""
    global ci
    if ci is None:
        import clang.cindex
        ci = clang.cindex
    return ci


def build_program(paths, compile_commands_dir, annots, body=None) -> Program:
    load()
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
        src = os.path.normpath(os.path.join(cmd.directory, cmd.filename))
        if src in seen_tus:
            continue
        seen_tus.add(src)
        cargs = [a for a in list(cmd.arguments)[1:]
                 if a not in ("-c", "-o", cmd.filename) and not a.endswith(".o")]
        try:
            tu = index.parse(src, args=cargs)
        except ci.TranslationUnitLoadError:
            continue
        walk_tu(tu, prog, in_scope, annots, body or linearize)
    return prog


def build_program_single(path, include_dirs, annots, body=None) -> Program:
    """Parses one standalone TU (fixture self-test mode)."""
    load()
    prog = Program()
    args = ["-std=c++20", "-x", "c++"]
    for d in include_dirs:
        args += ["-I", d]
    tu = ci.Index.create().parse(path, args=args)
    target = os.path.abspath(path)
    walk_tu(tu, prog, lambda f: f and os.path.abspath(f) == target, annots,
            body or linearize)
    # Members also come from the raw scan the lite frontend uses, so field
    # and lock ids agree between frontends even where libclang skips one.
    text = strip_comments(open(path, encoding="utf-8", errors="replace").read())
    lite.harvest_members(text, os.path.relpath(path, REPO), prog)
    return prog


def qualified(cursor):
    parts = []
    c = cursor
    while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def annots_of(cursor, annots):
    out = set()
    for ch in cursor.get_children():
        if ch.kind == ci.CursorKind.ANNOTATE_ATTR \
                and ch.spelling.startswith("globe::") \
                and ch.spelling[len("globe::"):] in annots:
            out.add(ch.spelling[len("globe::"):])
    return out


_REQ_RE = re.compile(r"GLOBE_REQUIRES\(([^)]*)\)")
_file_cache: dict = {}


def _requires_at(abspath, line):
    """Raw-source scan for GLOBE_REQUIRES on the declaration at `line`.
    Uniform across frontends: the macro only expands under clang's
    thread-safety mode, so the attribute is not reliably in the AST."""
    try:
        if abspath not in _file_cache:
            _file_cache[abspath] = open(abspath, encoding="utf-8",
                                        errors="replace").read().splitlines()
        lines = _file_cache[abspath]
    except OSError:
        return set()
    snippet = "\n".join(lines[line - 1:line + 6])
    cut = len(snippet)
    for stop in ("{", ";"):
        p = snippet.find(stop)
        if 0 <= p < cut:
            cut = p
    out = set()
    for m in _REQ_RE.finditer(snippet[:cut + 1]):
        for arg in m.group(1).split(","):
            ch = tuple(x for x in re.findall(r"[A-Za-z_]\w*", arg)
                       if x not in ("this", "util", "globe", "std"))
            if ch:
                out.add(ch)
    return out


def walk_tu(tu, prog: Program, in_scope, annots, body):
    """Adds one TU's in-scope functions and member fields to prog."""
    K = ci.CursorKind
    func_kinds = (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                  K.FUNCTION_TEMPLATE)
    for cur in tu.cursor.walk_preorder():
        if cur.kind != K.FIELD_DECL and cur.kind not in func_kinds:
            continue
        floc = cur.location.file.name if cur.location.file else None
        if not in_scope(floc):
            continue
        rel = os.path.relpath(floc, REPO)
        if cur.kind == K.FIELD_DECL:
            cls = cur.semantic_parent.spelling
            t = cur.type.spelling
            base = unwrap_type(t)
            if cls and base:
                bounded = any(ch.kind == K.ANNOTATE_ATTR
                              and ch.spelling == "globe::bounded"
                              for ch in cur.get_children())
                prog.add_field(cls, cur.spelling, base, base_type(t), rel,
                               cur.location.line, bounded)
            if base in MUTEX_TYPES and ("util::" in t or "<" not in t):
                prog.register_mutex(subsys_of(rel), cls, cur.spelling,
                                    MUTEX_TYPES[base], rel, cur.location.line)
            continue
        qn = qualified(cur)
        f = Func(qname=qn, file=rel, line=cur.location.line,
                 annots=annots_of(cur, annots),
                 requires=_requires_at(floc, cur.location.line))
        sp = cur.semantic_parent
        if sp is not None and sp.kind in (K.CLASS_DECL, K.STRUCT_DECL,
                                          K.CLASS_TEMPLATE):
            f.cls = sp.spelling
        for pc in cur.get_arguments():
            f.params.append(Param(name=pc.spelling or None,
                                  type=unwrap_type(pc.type.spelling) or None,
                                  annots=annots_of(pc, annots)))
        f.local_types.update(lite.param_types(f.params))
        body_cur = None
        for ch in cur.get_children():
            if ch.kind == K.COMPOUND_STMT:
                body_cur = ch
        prev = prog.funcs.get(qn)
        extra = []
        # Headers are parsed once per including TU; walk each body once.
        if body_cur is not None and not (prev is not None and prev.has_body):
            f.has_body = True
            extra = body(f, body_cur)
        prog.add(f)
        for lf in extra:
            prog.add(lf)


# --------------------------------------------------------------------------
# Statement linearizer (the taint and bounds body IR)
# --------------------------------------------------------------------------

def _unwrap_expr(node):
    while node.kind == ci.CursorKind.UNEXPOSED_EXPR:
        kids = list(node.get_children())
        if len(kids) != 1:
            break
        node = kids[0]
    return node


def collect_expr(node, refs, calls):
    K = ci.CursorKind
    k = node.kind
    if k == K.CALL_EXPR:
        cs = CallSite(line=node.location.line)
        ref = node.referenced
        if ref is not None and ref.spelling:
            cs.chain = qualified(ref).split("::")
            cs.explicit = True
        else:
            cs.chain = [node.spelling or "?"]
        if cs.name in TEMPLATE_CALLS and "[]" in node.type.spelling:
            cs.array_form = True
        children = list(node.get_children())
        args = list(node.get_arguments())
        if children and children[0] not in args:
            base_refs = []
            collect_expr(children[0], base_refs, calls)
            if base_refs:
                # The receiver reaches the analysis through the call, never
                # through the surrounding refs: leaking it there would
                # defeat the size()/find() filter (`reserve(buf.size())`
                # must stay input-bounded).
                cs.recv = base_refs[0]
                cs.recv_path = base_refs
        for a in args:
            arg = Arg()
            collect_expr(a, arg.refs, arg.calls)
            cs.args.append(arg)
        calls.append(cs)
        return
    if k == K.DECL_REF_EXPR:
        if node.spelling:
            refs.append(node.spelling)
        return
    if k == K.MEMBER_REF_EXPR:
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


def _assigned_subscript(node):
    """`member` when `node` assigns through `member[...]` — what `m[k] = v`
    on a map compiles to: a built-in assignment whose left side is an
    operator[] call, or an operator= call on its result."""
    K = ci.CursorKind
    node = _unwrap_expr(node)
    if node.kind == K.CALL_EXPR:
        name = node.spelling or ""
        if not name.startswith("operator") \
                or name[len("operator"):] not in ASSIGN_OPS:
            return None
        args = list(node.get_arguments())
        lhs = args[0] if args else None
    elif node.kind in (K.BINARY_OPERATOR, K.COMPOUND_ASSIGNMENT_OPERATOR):
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
    lhs = _unwrap_expr(lhs)
    if lhs.kind != K.CALL_EXPR or lhs.spelling != "operator[]":
        return None
    args = list(lhs.get_arguments())
    refs = []
    if args:
        collect_expr(args[0], refs, [])
    return refs[0] if len(refs) == 1 else None


def _mark_subscript(st, node):
    base = _assigned_subscript(node)
    if base:
        st.lhs, st.lhs_is_member = base, True


def _subscript_bases(node):
    """The variable subscripted by each operator[] call under `node`,
    whatever uses the result: an assignment, a reference binding, ++, or a
    field write (`m[k].f = v`)."""
    K = ci.CursorKind
    out = []
    for n in node.walk_preorder():
        if n.kind != K.CALL_EXPR or n.spelling != "operator[]":
            continue
        args = list(n.get_arguments())
        refs = []
        if args:
            collect_expr(args[0], refs, [])
        if len(refs) == 1:
            out.append(refs[0])
    return out


def linearize(f: Func, body_cur):
    """Fills f.stmts from a body cursor."""
    _linearize(body_cur, f.stmts, f.local_types)
    return []


def _linearize(node, stmts, local_types):
    K = ci.CursorKind
    k = node.kind
    if k == K.COMPOUND_STMT:
        for ch in node.get_children():
            _linearize(ch, stmts, local_types)
        return
    if k in (K.IF_STMT, K.WHILE_STMT, K.FOR_STMT, K.SWITCH_STMT,
             K.CXX_TRY_STMT, K.CXX_CATCH_STMT, K.DO_STMT, K.CASE_STMT,
             K.DEFAULT_STMT, K.CXX_FOR_RANGE_STMT):
        for ch in node.get_children():
            if k == K.CXX_FOR_RANGE_STMT and ch.kind == K.VAR_DECL:
                st = Stmt(line=ch.location.line, lhs=ch.spelling,
                          subscripts=_subscript_bases(ch))
                for sub in ch.get_children():
                    collect_expr(sub, st.refs, st.calls)
                stmts.append(st)
                continue
            _linearize(ch, stmts, local_types)
        return
    if k == K.DECL_STMT:
        for ch in node.get_children():
            if ch.kind == K.VAR_DECL:
                st = Stmt(line=ch.location.line, lhs=ch.spelling,
                          subscripts=_subscript_bases(ch))
                st.decl_type = base_type(ch.type.spelling) or None
                if st.decl_type:
                    local_types[ch.spelling] = st.decl_type
                for sub in ch.get_children():
                    collect_expr(sub, st.refs, st.calls)
                stmts.append(st)
        return
    if k == K.RETURN_STMT:
        st = Stmt(line=node.location.line, is_return=True,
                  subscripts=_subscript_bases(node))
        for ch in node.get_children():
            collect_expr(ch, st.refs, st.calls)
        stmts.append(st)
        return
    if k in (K.BINARY_OPERATOR, K.COMPOUND_ASSIGNMENT_OPERATOR):
        kids = list(node.get_children())
        if len(kids) == 2:
            lrefs, lcalls = [], []
            collect_expr(kids[0], lrefs, lcalls)
            st = Stmt(line=node.location.line,
                      subscripts=_subscript_bases(node))
            if lrefs:
                st.lhs = lrefs[0]
                st.lhs_is_member = len(lrefs) > 1
            st.compound = k == K.COMPOUND_ASSIGNMENT_OPERATOR
            _mark_subscript(st, node)
            collect_expr(kids[1], st.refs, st.calls)
            st.calls.extend(lcalls)
            stmts.append(st)
            return
    # generic statement/expression
    st = Stmt(line=node.location.line, subscripts=_subscript_bases(node))
    collect_expr(node, st.refs, st.calls)
    _mark_subscript(st, node)
    if st.refs or st.calls:
        stmts.append(st)
