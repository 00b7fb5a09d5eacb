"""C++ lexing shared by the lite frontend and the passes: comment and
literal stripping, tokenizing, bracket matching, and the one table of
``GLOBE_*`` annotation macros."""

from __future__ import annotations

import re

# Every GLOBE_* macro defined in src/util/{thread,taint,bounds}_annotations.hpp,
# mapped to the annotation it carries (None: a thread-safety attribute that
# is only skipped).  The driver's self-test fails when a header defines a
# macro missing here, so a new annotation is never lexed as an identifier.
MACROS = {
    "GLOBE_UNTRUSTED": "untrusted",
    "GLOBE_SANITIZER": "sanitizer",
    "GLOBE_TRUSTED_SINK": "trusted_sink",
    "GLOBE_LENGTH_GUARD": "length_guard",
    "GLOBE_BOUNDED": "bounded",
    "GLOBE_BLOCKING": "blocking",
    "GLOBE_THREAD_ANNOTATION": None,
    "GLOBE_CAPABILITY": None,
    "GLOBE_SCOPED_CAPABILITY": None,
    "GLOBE_GUARDED_BY": None,
    "GLOBE_PT_GUARDED_BY": None,
    "GLOBE_ACQUIRE": None,
    "GLOBE_RELEASE": None,
    "GLOBE_TRY_ACQUIRE": None,
    "GLOBE_REQUIRES": None,
    "GLOBE_REQUIRES_SHARED": None,
    "GLOBE_EXCLUDES": None,
    "GLOBE_ACQUIRED_BEFORE": None,
    "GLOBE_ACQUIRED_AFTER": None,
    "GLOBE_RETURN_CAPABILITY": None,
    "GLOBE_NO_THREAD_SAFETY_ANALYSIS": None,
    "GLOBE_ASSERT_CAPABILITY": None,
}

# Regex alternation of the macro spellings (with an optional argument
# list), for the text scanners that read member declarations.
MACRO_RE = (r"(?:" + "|".join(sorted(MACROS, key=len, reverse=True))
            + r")\b(?:\([^)]*\))?")

KEYWORDS = {
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

CONTROL = {"if", "for", "while", "switch", "catch", "else", "do", "try"}

_TOKEN_RE = re.compile(
    r"""[A-Za-z_]\w*          # identifier
      | 0[xX][0-9a-fA-F']+ | \d[\d.'eEfuUlL]*   # numbers
      | ::|->\*?|\.\*|<<=|>>=|<=>|==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<|>>|\+\+|--
      | [{}()\[\];,<>=!&|*+\-/%?:~^.\#@]
    """,
    re.VERBOSE,
)

is_ident = re.compile(r"[A-Za-z_]").match


def strip_comments(text: str) -> str:
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


def tokenize(text: str):
    """Returns [(token, line)]."""
    toks = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        toks.append((m.group(0), line))
    return toks


def match_forward(toks, i, open_t, close_t):
    """Index just past the bracket pair opening at toks[i]."""
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


def split_top(toks, sep=","):
    """Splits a token list at top-level `sep` (paren/brace/angle aware)."""
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


def at_top(toks, idx):
    """True when toks[idx] sits outside every bracket of toks[:idx]."""
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
