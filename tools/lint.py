#!/usr/bin/env python3
"""GlobeDoc project lint: security-discipline invariants the compiler can't see.

Checks (each maps to a guarantee of the paper, "Securely Replicated Web
Documents"):

  nodiscard      Every verification entry point (verify_* / check_* functions
                 and the self-certifying matches_key) must be declared
                 [[nodiscard]] (or return a [[nodiscard]]-class type such as
                 util::Status / util::Result), so a dropped verification
                 result is a compiler warning, not a silent security hole.

  unchecked      No statement may discard the result of a verification call
                 outright: a line consisting of `foo.verify_signature(...);`
                 with no assignment / condition / return / (void) cast is an
                 unchecked verification — the §3 attacks (tampering, replay,
                 stale content) walk straight through such a call site.

  raw-crypto     Raw primitive calls (crypto::sha1/sha256 digests, rsa_sign_*/
                 rsa_verify_*/rsa_encrypt/rsa_decrypt) are allowed only inside
                 src/crypto/ and the designated signing/verification sites.
                 Everything else must go through those sites so there is one
                 auditable place per protocol check.

  replica-check  Calls of the three replica checks (.check_element(,
                 .verify_signature(, .matches_key() in src/ are allowed only
                 in globedoc/verify.cpp, whose helpers every path that takes
                 replica bytes calls, and in ReplicaState::verify
                 (globedoc/object.cpp).  A copied-out check drifts.

  allow-stale    Every file on the raw-crypto or replica-check allow-list
                 must still make such a call: a stale entry would let a new
                 copy into that file unnoticed.

  no-rand        rand()/std::rand/srand/random() are banned everywhere: all
                 randomness flows through the DRBG (crypto::HmacDrbg) or the
                 seeded simulation RNG (util::SplitMix64), keeping runs
                 deterministic and nonces unpredictable.

  metric-catalog Every metric name registered with obs::MetricsRegistry
  metric-stale   (`.counter("...")` / `->gauge("...")` / `.histogram("...")`,
                 through an object or a pointer) in src/ or bench/ must be
                 documented in docs/metrics.md (listed in backticks), and
                 every catalog table row (| `name` | counter|gauge|histogram |)
                 must name a series some src/ or bench/ registration still
                 creates.  /metrics is part of the operational surface; an
                 undocumented series is an unreviewable one, and a row whose
                 series is gone documents a signal nobody can see.

  probe-catalog  Every cost-probe label declared at a GLOBE_PROFILE_SCOPE
                 site in src/, and every FetchStage string constant in
                 src/globedoc/proxy.hpp (each proxy stage opens a probe of
                 that name), must be documented in docs/metrics.md (listed
                 in backticks).  Probe labels become the `probe=` label of
                 the profile.* series and the frames of /profilez stacks —
                 an undocumented label is an unreviewable flamegraph frame.

  slo-catalog    Every SLO spec (`obs::SloSpec`) must watch a cataloged
                 metric: a `.metric = "..."` literal in src/, bench/ or
                 examples/ whose name is missing from docs/metrics.md is a
                 spec that can never observe data — a typo there silently
                 disables the alert it defines.

  lock-rank      Every util::Mutex / util::RecursiveMutex class member in
  lock-stale     src/ must hold a rank in tools/lock_hierarchy.txt, so a new
                 mutex cannot join the lock-acquisition graph unranked and
                 invisible to tools/conc_check.py's order checking (DESIGN.md
                 §13), and every ranked lock must still name a mutex member —
                 a deleted mutex's leftover line ranks nothing.  The member
                 scan is the analyzer package's (tools/analysis), so the two
                 tools can never disagree about what counts as a mutex
                 member.

  capacity-rank  Every GLOBE_BOUNDED container member in src/ must be
  capacity-stale ranked in tools/capacity_bounds.txt, and every registry
                 entry must still name a GLOBE_BOUNDED member — the registry
                 is what tools/bounds_check.py enforces, so a missing line
                 hides a member from the unbounded-growth check and a stale
                 line suggests enforcement that no longer exists (DESIGN.md
                 §14).  The member scan is the analyzer package's, so the
                 two tools can never disagree about what counts as a bounded
                 member.

  test-only-api  Every public function a src/ header declares must have a
  api-stale      caller under src/, bench/ or examples/; a caller in tests/
                 does not count, nor does one inside a function that is
                 itself flagged.  Constructors, destructors, operators and
                 overrides are out of scope.  tools/api_allowlist.txt names
                 the exceptions (test seams, reference paths), each with a
                 reason; an entry that matches no flagged function is stale.
                 Functions, like headers, earn a caller or go.

  orphan-module  Every header under src/ must be #included by some file
                 under src/, bench/ or examples/ other than its own .cpp.
                 Tests and fuzz harnesses are not callers: a module that
                 only its tests reach runs in no proxy or server path, no
                 benchmark and no example, so it is code to maintain that
                 no workload exercises.  Give it a caller or delete it
                 together with its tests.

Exit status: 0 when clean, 1 when any violation is found, 2 on usage errors.
Run `tools/lint.py --self-test` to verify every check still fires on seeded
violations.
"""

from __future__ import annotations

import argparse
import pathlib
import posixpath
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from analysis.api import ApiIndex, scan  # noqa: E402
from analysis.bounds import load_capacity  # noqa: E402
from analysis.conc import load_hierarchy  # noqa: E402
from analysis.ir import Program, subsys_of  # noqa: E402
from analysis.lexer import strip_comments  # noqa: E402
from analysis.lite import harvest_members  # noqa: E402
sys.path.pop(0)

REPO = pathlib.Path(__file__).resolve().parent.parent

# Directories scanned for C++ sources.
SCAN_DIRS = ["src", "tests", "bench", "examples"]
CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}

# ---------------------------------------------------------------------------
# nodiscard: verification entry points that must carry [[nodiscard]] or
# return a nodiscard-class type.
# ---------------------------------------------------------------------------

# Function-name patterns that constitute a verification entry point when they
# *declare* a function in a header under src/.
VERIFY_NAME_RE = re.compile(r"\b(verify(?:_\w+)?|check_element|matches_key|trusts)\s*\(")

# Return types that are [[nodiscard]] at class level, so the declaration is
# protected even without a function-level attribute.
NODISCARD_CLASS_TYPES = re.compile(r"\butil::(Status|Result)\b|\bStatus\b|\bResult\s*<")

# Declaration sites exempt from the nodiscard rule: definitions of the
# checker machinery itself and test helpers.
NODISCARD_EXEMPT_FILES = {"src/util/status.hpp"}

# ---------------------------------------------------------------------------
# unchecked: discarded verification results.
# ---------------------------------------------------------------------------

# A statement line that *begins* with (an object expression and) a
# verification call and ends in `;` discards the result.
UNCHECKED_RE = re.compile(
    r"^\s*(?:[A-Za-z_][\w]*(?:\.|->|::))*"
    r"(?:verify(?:_\w+)?|check_element|matches_key|first_trusted_subject)"
    r"\s*\(.*\)\s*;\s*(?://.*)?$"
)

# ---------------------------------------------------------------------------
# raw-crypto: primitive calls allowed only in designated files.
# ---------------------------------------------------------------------------

RAW_CRYPTO_RE = re.compile(
    r"\bcrypto::(Sha1|Sha256)::digest\w*\s*\(|"
    r"\bcrypto::(sha1|sha256|hkdf_expand_sha256)\s*\(|"
    r"\bcrypto::rsa_(sign|verify|encrypt|decrypt|generate)\w*\s*\("
)

# The designated signing/verification sites: one auditable place per
# protocol-level check (paper §3).  Everything else calls *these*.
RAW_CRYPTO_ALLOWED = {
    "src/globedoc/oid.cpp",            # OID = SHA-1(public key)
    "src/globedoc/element.cpp",        # element digests for cert entries
    "src/globedoc/integrity.cpp",      # integrity-certificate sign/verify
    "src/globedoc/identity.cpp",       # CA identity-certificate sign/verify
    "src/globedoc/object.cpp",         # object key generation
    "src/globedoc/server.cpp",         # admin challenge/response signatures
    "src/naming/service.cpp",          # zone record signing
    "src/naming/resolver.cpp",         # zone record validation
    "src/http/secure_channel.cpp",     # TLS-like handshake + record crypto
    "src/http/static_server.cpp",      # ETag generation (non-security digest)
}
# Tests, benches and examples may exercise primitives directly.
RAW_CRYPTO_ALLOWED_DIRS = ("src/crypto/", "tests/", "bench/", "examples/")

# ---------------------------------------------------------------------------
# replica-check: the §3.1.2/§3.2.2 checks are called from one module.
# ---------------------------------------------------------------------------

REPLICA_CHECK_RE = re.compile(
    r"(?:\.|->)\s*(?:check_element|verify_signature|matches_key)\s*\(")
REPLICA_CHECK_ALLOWED = {
    "src/globedoc/verify.cpp",         # the shared replica checks
    "src/globedoc/object.cpp",         # ReplicaState::verify (admin path)
}
REPLICA_CHECK_ALLOWED_DIRS = ("tests/", "bench/", "examples/")

# Each allow-listed rule: (tag, call pattern, allowed files, exempt path
# prefixes, what a violation means).  allow-stale checks every table.
ALLOW_LISTS = [
    ("raw-crypto", RAW_CRYPTO_RE, RAW_CRYPTO_ALLOWED, RAW_CRYPTO_ALLOWED_DIRS,
     "raw primitive call outside src/crypto and the designated "
     "verification sites"),
    ("replica-check", REPLICA_CHECK_RE, REPLICA_CHECK_ALLOWED,
     REPLICA_CHECK_ALLOWED_DIRS,
     "replica check called outside globedoc/verify.cpp; call "
     "fetch_object_key, verify_certificate or verify_element instead"),
]

# ---------------------------------------------------------------------------
# no-rand: libc randomness is banned everywhere.
# ---------------------------------------------------------------------------

RAND_RE = re.compile(r"(?<![\w:.])(?:std::)?(?:rand|srand|random|drand48)\s*\(")

# ---------------------------------------------------------------------------
# metric-catalog / metric-stale: registered metric names and the rows of
# docs/metrics.md must match.
# ---------------------------------------------------------------------------

# A registry registration with a literal series name, through a registry
# object (`registry.counter(`) or pointer (`registry_->counter(`).  The
# registry API takes the name as the first argument, always a string literal
# in this tree.
METRIC_REG_RE = re.compile(
    r'(?:\.|->)\s*(counter|gauge|histogram)\s*\(\s*"([^"]+)"')
METRIC_CATALOG = "docs/metrics.md"
# A catalog table row: | `name` | counter | ... (metric-stale).
METRIC_ROW_RE = re.compile(
    r'^\|\s*`([^`]+)`\s*\|\s*(?:counter|gauge|histogram)\s*\|')
METRIC_SCAN_DIRS = ("src", "bench")

# ---------------------------------------------------------------------------
# probe-catalog: cost-probe labels must appear in docs/metrics.md.
# ---------------------------------------------------------------------------

# A scoped cost probe with a literal label (obs/profile.hpp).  The macro is
# the only sanctioned spelling in src/; labels are always string literals.
PROBE_RE = re.compile(r'GLOBE_PROFILE_SCOPE\s*\(\s*"([^"]+)"\s*\)')
PROBE_SCAN_DIRS = ("src",)
# The proxy's stages open a span and a probe named by each FetchStage
# string constant, so those constants are probe labels too.
FETCH_STAGE_HEADER = "src/globedoc/proxy.hpp"
FETCH_STAGE_RE = re.compile(r"struct\s+FetchStage\s*\{(.*?)\};", re.S)
STAGE_CONST_RE = re.compile(r'\bk\w+\s*=\s*"([^"]+)"')

# ---------------------------------------------------------------------------
# slo-catalog: SLO specs may only reference cataloged metric names.
# ---------------------------------------------------------------------------

# A literal metric assignment on an SloSpec (`spec.metric = "proxy.fetches"`).
# The field name is unique to SloSpec in this tree.
SLO_METRIC_RE = re.compile(r'\.\s*metric\s*=\s*"([^"]+)"')
SLO_SCAN_DIRS = ("src", "bench", "examples")

# ---------------------------------------------------------------------------
# orphan-module: every src/ header is included outside its own .cpp and the
# tests.
# ---------------------------------------------------------------------------

# A quoted include at the start of a line; includes name paths under src/
# (`#include "globedoc/proxy.hpp"`) or, failing that, beside the includer.
INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.M)
CALLER_DIRS = ("src/", "bench/", "examples/")
HEADER_SUFFIXES = {".hpp", ".h"}

COMMENT_RE = re.compile(r"^\s*(//|\*|/\*)")


def iter_sources():
    for d in SCAN_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in CPP_SUFFIXES and path.is_file():
                yield path


def relpath(path: pathlib.Path) -> str:
    return path.relative_to(REPO).as_posix()


def strip_strings(line: str) -> str:
    """Blanks out string/char literals so regexes don't match inside them."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def code_lines(lines: list[str]):
    """Yields (lineno, code) for each line outside comments, with string
    and char literals blanked and any trailing // comment cut."""
    in_block_comment = False
    for lineno, raw_line in enumerate(lines, start=1):
        line = strip_strings(raw_line)

        # Rudimentary block-comment tracking (good enough for this tree's
        # comment style: no code after */ on the same line).
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
            continue
        if line.lstrip().startswith("/*") and "*/" not in line:
            in_block_comment = True
            continue
        if COMMENT_RE.match(line):
            continue
        yield lineno, line.split("//", 1)[0]


def check_file(path: pathlib.Path, violations: list[str]) -> None:
    rel = relpath(path)
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    # True when the previous code line leaves an expression open (assignment,
    # call argument list, boolean operator, return ...): the current line is a
    # continuation, so a leading verification call is NOT a discarded result.
    prev_continues = False

    for lineno, code in code_lines(lines):
        # --- no-rand: everywhere ---
        if RAND_RE.search(code):
            violations.append(
                f"{rel}:{lineno}: [no-rand] libc randomness is banned; use "
                f"crypto::HmacDrbg (nonces/keys) or util::SplitMix64 (simulation)"
            )

        # --- unchecked: discarded verification result ---
        if rel.startswith("src/") and not prev_continues and UNCHECKED_RE.match(code):
            violations.append(
                f"{rel}:{lineno}: [unchecked] verification result discarded; "
                f"branch on it or cast to (void) with a justification"
            )

        # --- nodiscard: declarations in src/ headers ---
        if (
            rel.startswith("src/")
            and path.suffix in {".hpp", ".h"}
            and rel not in NODISCARD_EXEMPT_FILES
        ):
            m = VERIFY_NAME_RE.search(code)
            if m:
                # Only *declarations* (prototype or inline definition start):
                # the name must be preceded by a return type on this line or a
                # continuation, and the statement must not be a call.  A call
                # has something binding the result (handled above) or is
                # inside an expression; declarations in this tree always have
                # the return type on the same line.
                before = code[: m.start()]
                is_decl = bool(
                    re.search(r"(bool|util::Status|util::Result<[^>]*>|"
                              r"std::optional<[^>]*>|Status|Result<[^>]*>)\s*$",
                              before.strip() and before or "")
                )
                if is_decl:
                    window_start = max(0, lineno - 3)
                    window = "\n".join(lines[window_start:lineno])
                    if "[[nodiscard]]" not in window:
                        violations.append(
                            f"{rel}:{lineno}: [nodiscard] verification entry "
                            f"point must be declared [[nodiscard]]"
                        )

        stripped = code.rstrip()
        if stripped:
            prev_continues = bool(
                re.search(r"(=|\(|,|\|\||&&|!|\?|:|\breturn|\bco_return)\s*$",
                          stripped)
            )
        # blank lines keep the previous continuation state (wrapped exprs
        # never contain blank lines in this tree, but comments may intervene)


def check_allow_lists(violations: list[str]) -> None:
    """A call matching an allow-listed rule outside its allowed files is a
    violation; an allowed file with no such call is a stale entry."""
    used: set[tuple[str, str]] = set()
    for path in iter_sources():
        rel = relpath(path)
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        for lineno, code in code_lines(lines):
            for tag, pattern, allowed, exempt_dirs, why in ALLOW_LISTS:
                if rel.startswith(exempt_dirs) or not pattern.search(code):
                    continue
                if rel in allowed:
                    used.add((tag, rel))
                else:
                    violations.append(f"{rel}:{lineno}: [{tag}] {why}")
    for tag, _pattern, allowed, _dirs, _why in ALLOW_LISTS:
        for rel in sorted(allowed):
            if (tag, rel) not in used:
                violations.append(
                    f"tools/lint.py: [allow-stale] {tag} allows {rel}, which "
                    "makes no such call — remove the entry")


def check_metric_catalog(violations: list[str]) -> None:
    """Every registered metric series name must be listed in the catalog,
    and every catalog table row must name a registered series."""
    catalog_path = REPO / METRIC_CATALOG
    catalog_text = ""
    if catalog_path.is_file():
        catalog_text = catalog_path.read_text(encoding="utf-8")
    cataloged = set(re.findall(r"`([^`\n]+)`", catalog_text))
    registered: set[str] = set()
    for path in iter_sources():
        rel = relpath(path)
        if not rel.startswith(tuple(d + "/" for d in METRIC_SCAN_DIRS)):
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8", errors="replace").splitlines(),
                start=1):
            if COMMENT_RE.match(line):
                continue
            for kind, name in METRIC_REG_RE.findall(line):
                registered.add(name)
                if name not in cataloged:
                    violations.append(
                        f"{rel}:{lineno}: [metric-catalog] {kind} \"{name}\" "
                        f"is not documented in {METRIC_CATALOG}"
                    )
    for lineno, line in enumerate(catalog_text.splitlines(), start=1):
        row = METRIC_ROW_RE.match(line)
        if row and row.group(1) not in registered:
            violations.append(
                f"{METRIC_CATALOG}:{lineno}: [metric-stale] row "
                f"\"{row.group(1)}\" names no series registered in src/ or "
                "bench/ — remove the row or restore the registration"
            )


def fetch_stage_labels(text: str) -> list[tuple[int, str]]:
    """(line, label) of each string constant in `struct FetchStage`."""
    m = FETCH_STAGE_RE.search(text)
    if m is None:
        return []
    first = text.count("\n", 0, m.start(1)) + 1
    return [(first + off, label)
            for off, line in enumerate(m.group(1).split("\n"))
            if not COMMENT_RE.match(line)
            for label in STAGE_CONST_RE.findall(line)]


def check_probe_catalog(violations: list[str]) -> None:
    """Every probe label (GLOBE_PROFILE_SCOPE literal or FetchStage
    constant) must be in the catalog."""
    catalog_path = REPO / METRIC_CATALOG
    cataloged: set[str] = set()
    if catalog_path.is_file():
        cataloged = set(re.findall(r"`([^`\n]+)`",
                                   catalog_path.read_text(encoding="utf-8")))
    for path in iter_sources():
        rel = relpath(path)
        if not rel.startswith(tuple(d + "/" for d in PROBE_SCAN_DIRS)):
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        labels = [(lineno, label)
                  for lineno, line in enumerate(text.splitlines(), start=1)
                  if not COMMENT_RE.match(line)
                  for label in PROBE_RE.findall(line)]
        if rel == FETCH_STAGE_HEADER:
            labels += fetch_stage_labels(text)
        for lineno, label in labels:
            if label not in cataloged:
                violations.append(
                    f"{rel}:{lineno}: [probe-catalog] probe label "
                    f"\"{label}\" is not documented in {METRIC_CATALOG}"
                )


def check_slo_catalog(violations: list[str]) -> None:
    """Every SLO spec's metric literal must name a cataloged series."""
    catalog_path = REPO / METRIC_CATALOG
    cataloged: set[str] = set()
    if catalog_path.is_file():
        cataloged = set(re.findall(r"`([^`\n]+)`",
                                   catalog_path.read_text(encoding="utf-8")))
    for path in iter_sources():
        rel = relpath(path)
        if not rel.startswith(tuple(d + "/" for d in SLO_SCAN_DIRS)):
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8", errors="replace").splitlines(),
                start=1):
            if COMMENT_RE.match(line):
                continue
            for name in SLO_METRIC_RE.findall(line):
                if name not in cataloged:
                    violations.append(
                        f"{rel}:{lineno}: [slo-catalog] SLO spec watches "
                        f"\"{name}\", which is not documented in "
                        f"{METRIC_CATALOG} — the alert can never fire"
                    )


def include_target(includer: str, name: str, headers: set[str]) -> str | None:
    """The src/ header that `#include "name"` in `includer` reaches: the
    one beside the includer, else the one under src/."""
    beside = posixpath.normpath(posixpath.join(posixpath.dirname(includer), name))
    for candidate in (beside, "src/" + name):
        if candidate in headers:
            return candidate
    return None


def check_orphan_modules(violations: list[str]) -> None:
    """Every src/ header needs an include from src/, bench/ or examples/
    other than its own .cpp."""
    sources = [relpath(p) for p in iter_sources()]
    headers = {rel for rel in sources
               if rel.startswith("src/") and posixpath.splitext(rel)[1] in HEADER_SUFFIXES}
    called: set[str] = set()
    for rel in sources:
        if not rel.startswith(CALLER_DIRS):
            continue
        text = (REPO / rel).read_text(encoding="utf-8", errors="replace")
        for name in INCLUDE_RE.findall(text):
            header = include_target(rel, name, headers)
            if header and rel != posixpath.splitext(header)[0] + ".cpp":
                called.add(header)
    for header in sorted(headers - called):
        violations.append(
            f"{header}: [orphan-module] no file under src/, bench/ or "
            "examples/ includes this header (its own .cpp and tests do not "
            "count) — give it a caller or delete the module and its tests")


API_ALLOWLIST = "tools/api_allowlist.txt"


def load_api_allowlist() -> dict[str, tuple[int, str]]:
    """`<qualified name>  # reason` lines -> {name: (line, reason)}.  A
    name covers a function, or every function of a class or namespace."""
    entries = {}
    path = REPO / API_ALLOWLIST
    if not path.is_file():
        return entries
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        name, _, reason = raw.partition("#")
        if name.strip():
            entries[name.strip()] = (lineno, reason.strip())
    return entries


def test_only_api() -> tuple[list, set]:
    """(public src/ functions no caller outside the tests reaches, the
    qualified names of those a test calls).  A caller inside a flagged
    function does not count, so a chain that only tests enter is flagged
    whole."""
    sources = [relpath(p) for p in iter_sources()]
    scans = {rel: scan((REPO / rel).read_text(encoding="utf-8", errors="replace"),
                       rel, rel.startswith("src/")
                       and posixpath.splitext(rel)[1] in HEADER_SUFFIXES)
             for rel in sources}
    index = ApiIndex(sc for sc in scans.values() if sc.decls)
    owners: dict[str, set] = {q: set() for q in index.funcs}
    tested: set[str] = set()
    for rel, sc in scans.items():
        for use in sc.uses:
            for f in index.resolve(use, sc):
                if not rel.startswith(CALLER_DIRS):
                    tested.add(f.qname)
                elif use.owner != f.qname:
                    owners[f.qname].add(use.owner)
    flagged: set[str] = set()
    while True:
        grown = {q for q, callers in owners.items() if callers <= flagged}
        if grown == flagged:
            break
        flagged = grown
    return sorted((index.funcs[q] for q in flagged),
                  key=lambda f: (f.file, f.line)), tested


def check_test_only_api(violations: list[str]) -> None:
    """Public src/ functions need a caller outside the tests, or an
    allowlist entry with a reason; every entry must still match."""
    flagged, tested = test_only_api()
    allow = load_api_allowlist()
    used: set[str] = set()
    for f in flagged:
        key = f.qname.removeprefix("globe::")
        entry = next((e for e in allow
                      if key == e or key.startswith(e + "::")), None)
        if entry is not None:
            used.add(entry)
            continue
        who = "only tests call it" if f.qname in tested else "nothing calls it"
        violations.append(
            f"{f.file}:{f.line}: [test-only-api] {key} has no caller under "
            f"src/, bench/ or examples/ ({who}) — delete it, give it a "
            f"caller, or allowlist it in {API_ALLOWLIST} with a reason")
    for entry, (lineno, reason) in sorted(allow.items()):
        if not reason:
            violations.append(
                f"{API_ALLOWLIST}:{lineno}: [test-only-api] entry \"{entry}\" "
                "gives no reason — add `# why no workload reaches it`")
        if entry not in used:
            violations.append(
                f"{API_ALLOWLIST}:{lineno}: [api-stale] entry \"{entry}\" "
                "matches no function that lacks a caller — remove the line")


LOCK_HIERARCHY = "tools/lock_hierarchy.txt"
CAPACITY_BOUNDS = "tools/capacity_bounds.txt"


def src_members():
    """Yields (relpath, Program) with the member harvest of each src/ file.

    The harvester and the registry loaders come from the analyzer package
    (tools/analysis), so lint and the conc and bounds passes agree, byte
    for byte, on what a mutex or bounded member and its id are."""
    for path in iter_sources():
        rel = relpath(path)
        if not rel.startswith("src/"):
            continue
        prog = Program()
        harvest_members(strip_comments(
            path.read_text(encoding="utf-8", errors="replace")), rel, prog)
        yield rel, prog


def check_lock_hierarchy(violations: list[str]) -> None:
    """Mutex members in src/ and the lock hierarchy must match 1:1."""
    ranks = load_hierarchy(str(REPO / LOCK_HIERARCHY))
    harvested: set[str] = set()
    for rel, prog in src_members():
        for lock_id, info in sorted(prog.mutexes.items()):
            harvested.add(lock_id)
            if lock_id not in ranks:
                violations.append(
                    f"{rel}:{info['line']}: [lock-rank] mutex member "
                    f"\"{lock_id}\" has no rank in {LOCK_HIERARCHY} — run "
                    "`tools/conc_check.py --edges src` to place it, then "
                    f"add a `<rank> {lock_id}` line"
                )
    for lock_id in sorted(set(ranks) - harvested):
        violations.append(
            f"{LOCK_HIERARCHY}: [lock-stale] entry \"{lock_id}\" matches no "
            "mutex member in src/ — remove the line or restore the mutex"
        )


def check_capacity_registry(violations: list[str]) -> None:
    """GLOBE_BOUNDED members and tools/capacity_bounds.txt must match 1:1."""
    caps = load_capacity(str(REPO / CAPACITY_BOUNDS))
    bounded: dict[str, tuple[str, int]] = {}
    for rel, prog in src_members():
        for cls, members in prog.field_info.items():
            for member, info in members.items():
                if info["bounded"]:
                    mid = f"{subsys_of(rel)}.{cls}.{member}"
                    bounded[mid] = (rel, info["line"])
    for mid, (rel, line) in sorted(bounded.items()):
        if mid not in caps:
            violations.append(
                f"{rel}:{line}: [capacity-rank] GLOBE_BOUNDED member "
                f"\"{mid}\" has no entry in {CAPACITY_BOUNDS} — add a "
                f"`<capacity> {mid}` line (capacity 0 = grows only during "
                "trusted configuration)"
            )
    for mid in sorted(caps):
        if mid not in bounded:
            violations.append(
                f"{CAPACITY_BOUNDS}: [capacity-stale] entry \"{mid}\" "
                "matches no GLOBE_BOUNDED member in src/ — remove the line "
                "or restore the annotation"
            )


def run_lint() -> int:
    violations: list[str] = []
    for path in iter_sources():
        check_file(path, violations)
    check_allow_lists(violations)
    check_metric_catalog(violations)
    check_probe_catalog(violations)
    check_slo_catalog(violations)
    check_lock_hierarchy(violations)
    check_capacity_registry(violations)
    check_orphan_modules(violations)
    check_test_only_api(violations)
    for v in violations:
        print(v)
    if violations:
        print(f"\ntools/lint.py: {len(violations)} violation(s) found.")
        return 1
    print("tools/lint.py: clean.")
    return 0


# ---------------------------------------------------------------------------
# Self-test: every check must fire on a seeded violation and stay quiet on a
# clean equivalent.
# ---------------------------------------------------------------------------

SELF_TEST_CASES = [
    # (name, file-relative-path, snippet, expected-tag or None)
    ("rand fires", "src/util/seeded.cpp", "  int x = rand();\n", "no-rand"),
    ("std::rand fires", "src/util/seeded.cpp", "  int x = std::rand();\n", "no-rand"),
    ("srand fires", "src/util/seeded.cpp", "  srand(42);\n", "no-rand"),
    ("drbg clean", "src/util/seeded.cpp", "  auto x = rng.bytes(16);\n", None),
    ("rand in comment clean", "src/util/seeded.cpp", "  // rand() is banned\n", None),
    ("rand in string clean", "src/util/seeded.cpp", '  log("call rand()");\n', None),
    (
        "raw sha1 outside crypto fires",
        "src/globedoc/proxy.cpp",
        "  auto d = crypto::Sha1::digest_bytes(body);\n",
        "raw-crypto",
    ),
    (
        "raw rsa outside crypto fires",
        "src/location/tree.cpp",
        "  auto sig = crypto::rsa_sign_sha256(key, body);\n",
        "raw-crypto",
    ),
    (
        "raw rsa at designated site clean",
        "src/globedoc/integrity.cpp",
        "  auto sig = crypto::rsa_sign_sha1(key, body);\n",
        None,
    ),
    (
        "raw sha1 in test clean",
        "tests/crypto/sha1_test.cpp",
        "  auto d = crypto::Sha1::digest_bytes(body);\n",
        None,
    ),
    # The self-test allow-lists (see run_self_test) name one file each,
    # src/globedoc/integrity.cpp and src/globedoc/verify.cpp, and seed a
    # call in each.
    (
        "stale raw-crypto entry fires",
        "src/globedoc/integrity.cpp",
        "  return entries_.size();\n",
        "allow-stale",
    ),
    (
        "check_element outside verify.cpp fires",
        "src/cache/tier.cpp",
        "  util::Status check = cert.check_element(name, *element, now);\n",
        "replica-check",
    ),
    (
        "matches_key through a pointer fires",
        "src/replication/refresher.cpp",
        "  if (!oid->matches_key(*key)) return mismatch();\n",
        "replica-check",
    ),
    (
        "check in a test clean",
        "tests/cache/tier_test.cpp",
        "  EXPECT_TRUE(cert.check_element(name, element, now).is_ok());\n",
        None,
    ),
    (
        "stale replica-check entry fires",
        "src/globedoc/verify.cpp",
        "  return Status::ok();\n",
        "allow-stale",
    ),
    (
        "dropped verify fires",
        "src/globedoc/proxy.cpp",
        "  cert.verify_signature(key);\n",
        "unchecked",
    ),
    (
        "dropped check_element fires",
        "src/replication/refresher.cpp",
        "  certificate->check_element(name, el, now);\n",
        "unchecked",
    ),
    (
        "branched verify clean",
        "src/globedoc/verify.cpp",
        "  if (!cert.verify_signature(key)) return bad();\n",
        None,
    ),
    (
        "assigned verify clean",
        "src/globedoc/verify.cpp",
        "  bool ok = cert.verify_signature(key);\n",
        None,
    ),
    (
        "void-cast verify clean",
        "src/globedoc/verify.cpp",
        "  (void)cert.verify_signature(key);  // fuzz: only parsing matters\n",
        None,
    ),
    (
        "unannotated verify decl fires",
        "src/globedoc/integrity.hpp",
        "  bool verify_signature(const crypto::RsaPublicKey& key) const;\n",
        "nodiscard",
    ),
    (
        "annotated verify decl clean",
        "src/globedoc/integrity.hpp",
        "  [[nodiscard]] bool verify_signature(const crypto::RsaPublicKey& k) const;\n",
        None,
    ),
    (
        "status-returning check decl fires without attribute",
        "src/globedoc/integrity.hpp",
        "  util::Status check_element(const std::string& n) const;\n",
        "nodiscard",
    ),
    # The self-test catalog (see run_self_test) documents exactly one
    # series, `proxy.fetches`, in a table row, and seeds its registration.
    (
        "uncataloged metric fires",
        "src/obs/usage.cpp",
        '  registry.counter("proxy.surprise_total").inc();\n',
        "metric-catalog",
    ),
    (
        "uncataloged bench gauge fires",
        "bench/bench_fig9.cpp",
        '  registry.gauge("fig9.mystery_ns", cell).set(1.0);\n',
        "metric-catalog",
    ),
    (
        "cataloged metric clean",
        "src/obs/usage.cpp",
        '  registry.counter("proxy.fetches", {{"outcome", "ok"}}).inc();\n',
        None,
    ),
    (
        "metric in comment clean",
        "src/obs/usage.cpp",
        '  // registry.counter("proxy.surprise_total") would be flagged\n',
        None,
    ),
    (
        "uncataloged metric through a pointer fires",
        "src/obs/usage.cpp",
        '  hits_ = &registry_->counter("proxy.surprise_hits");\n',
        "metric-catalog",
    ),
    (
        "stale catalog row fires",
        "docs/metrics.md",
        "| `proxy.fetches` | counter | `outcome` | Completed fetches. |\n"
        "| `proxy.ghost_hits` | counter | — | Counter deleted long ago. |\n"
        "`rsa_verify` `key_check`\n",
        "metric-stale",
    ),
    (
        "live catalog row clean",
        "docs/metrics.md",
        "| `proxy.fetches` | counter | `outcome` | Completed fetches. |\n"
        "| `key_check` | `globedoc/proxy.cpp` | A probe, not a series. |\n"
        "`rsa_verify`\n",
        None,
    ),
    # The self-test catalog documents exactly two probe labels: `rsa_verify`
    # and the stage `key_check`.
    (
        "uncataloged probe label fires",
        "src/crypto/rsa.cpp",
        '  GLOBE_PROFILE_SCOPE("rsa_surprise");\n',
        "probe-catalog",
    ),
    (
        "cataloged probe label clean",
        "src/crypto/rsa.cpp",
        '  GLOBE_PROFILE_SCOPE("rsa_verify");\n',
        None,
    ),
    (
        "probe in comment clean",
        "src/crypto/rsa.cpp",
        '  // GLOBE_PROFILE_SCOPE("rsa_surprise") would be flagged\n',
        None,
    ),
    (
        "probe outside src clean",
        "bench/bench_fig4_security_overhead.cpp",
        '  GLOBE_PROFILE_SCOPE("bench_only_frame");\n',
        None,
    ),
    (
        "uncataloged fetch stage fires",
        "src/globedoc/proxy.hpp",
        "struct FetchStage {\n"
        '  static constexpr const char* kKeyCheck = "key_check";\n'
        '  static constexpr const char* kSurprise = "surprise_stage";\n'
        "};\n",
        "probe-catalog",
    ),
    (
        "cataloged fetch stage clean",
        "src/globedoc/proxy.hpp",
        "struct FetchStage {\n"
        '  static constexpr const char* kKeyCheck = "key_check";  // step 3\n'
        "};\n"
        'const char* kElsewhere = "not_a_stage";\n',
        None,
    ),
    (
        "slo spec on uncataloged metric fires",
        "src/obs/slo_setup.cpp",
        '  spec.metric = "proxy.fetchez";\n',
        "slo-catalog",
    ),
    (
        "slo spec in example on uncataloged metric fires",
        "examples/telemetry_demo.cpp",
        '  latency.metric = "proxy.fetch_millis";\n',
        "slo-catalog",
    ),
    (
        "slo spec on cataloged metric clean",
        "src/obs/slo_setup.cpp",
        '  spec.metric = "proxy.fetches";\n',
        None,
    ),
    (
        "slo metric in comment clean",
        "src/obs/slo_setup.cpp",
        '  // spec.metric = "proxy.fetchez" would be flagged\n',
        None,
    ),
    # The self-test hierarchy (see run_self_test) ranks exactly one lock,
    # `util.Ranked.mu_`, and seeds its member.
    (
        "unranked mutex member fires",
        "src/util/widget.hpp",
        "class Widget {\n  mutable util::Mutex mu_;\n};\n",
        "lock-rank",
    ),
    (
        "unranked recursive mutex fires",
        "src/cache/widget.hpp",
        "class Widget {\n  util::RecursiveMutex mu_;\n};\n",
        "lock-rank",
    ),
    (
        "ranked mutex member clean",
        "src/util/ranked.hpp",
        "class Ranked {\n  mutable util::Mutex mu_;\n};\n",
        None,
    ),
    (
        "mutex outside src clean",
        "tests/util/widget_test.cpp",
        "class Widget {\n  util::Mutex mu_;\n};\n",
        None,
    ),
    (
        "mutex in comment clean",
        "src/util/widget.hpp",
        "class Widget {\n  // util::Mutex mu_; (gone since PR 3)\n};\n",
        None,
    ),
    (
        "stale hierarchy entry fires",
        "tools/lock_hierarchy.txt",
        "10 util.Ranked.mu_  # self-test seed\n"
        "20 util.Ghost.mutex_  # mutex deleted long ago\n",
        "lock-stale",
    ),
    (
        "unranked bounded member fires",
        "src/cache/pool.hpp",
        "class Pool {\n  std::vector<int> items_ GLOBE_BOUNDED;\n};\n",
        "capacity-rank",
    ),
    (
        "ranked bounded member clean",
        "src/util/registered.hpp",
        "class Registered {\n  std::deque<int> ring_ GLOBE_BOUNDED;\n};\n",
        None,
    ),
    (
        "stale registry entry fires",
        "tools/capacity_bounds.txt",
        "64 util.Registered.ring_  # self-test seed\n"
        "32 util.Ghost.ring_  # member deleted long ago\n",
        "capacity-stale",
    ),
    (
        "unannotated container member clean",
        "src/cache/plain.hpp",
        "class Plain {\n  std::vector<int> items_;\n};\n",
        None,
    ),
    (
        "bounded member outside src clean",
        "tests/cache/pool_test.cpp",
        "class Pool {\n  std::vector<int> items_ GLOBE_BOUNDED;\n};\n",
        None,
    ),
]

# orphan-module cases need a header and its includers, so each one is a
# whole tree: (name, {path: text}, expected-tag or None).  The single-file
# cases above run without this check, since their seeded headers have no
# includers.
ORPHAN_SELF_TEST_CASES = [
    (
        "header only its own .cpp includes fires",
        {"src/globedoc/orphan.hpp": "struct Orphan {};\n",
         "src/globedoc/orphan.cpp": '#include "globedoc/orphan.hpp"\n'},
        "orphan-module",
    ),
    (
        "header only a test includes fires",
        {"src/globedoc/orphan.hpp": "struct Orphan {};\n",
         "tests/globedoc/orphan_test.cpp": '#include "globedoc/orphan.hpp"\n'},
        "orphan-module",
    ),
    (
        "commented-out include fires",
        {"src/globedoc/orphan.hpp": "struct Orphan {};\n",
         "examples/demo.cpp": '// #include "globedoc/orphan.hpp"\n'},
        "orphan-module",
    ),
    (
        "header a bench includes clean",
        {"src/globedoc/verify.hpp": "struct Verify {};\n",
         "src/globedoc/verify.cpp": '#include "globedoc/verify.hpp"\n',
         "bench/bench_verify.cpp": '#include "globedoc/verify.hpp"\n'},
        None,
    ),
    (
        "header another src file includes clean",
        {"src/util/bytes.hpp": "struct Bytes {};\n",
         "src/crypto/sha1.cpp": '#include "util/bytes.hpp"\n'},
        None,
    ),
    (
        "include beside the includer clean",
        {"src/crypto/sha_compress.hpp": "void compress();\n",
         "src/crypto/sha1.cpp": '#  include "sha_compress.hpp"\n'},
        None,
    ),
]


# test-only-api cases are whole trees too: (name, {path: text}, None for
# clean or a text that some violation must contain).
_WIDGET = ("namespace globe::globedoc {\nclass Widget {\n public:\n"
           "  void spin();\n\n private:\n  void hidden();\n};\n}\n")
API_SELF_TEST_CASES = [
    (
        "method only a test calls fires",
        {"src/globedoc/widget.hpp": _WIDGET,
         "tests/globedoc/widget_test.cpp": "void f() { Widget w; w.spin(); }\n"},
        "[test-only-api] globedoc::Widget::spin",
    ),
    (
        "method a bench calls clean",
        {"src/globedoc/widget.hpp": _WIDGET,
         "bench/bench_widget.cpp": "int main() { Widget w; w.spin(); }\n"},
        None,
    ),
    (
        "method an example calls clean",
        {"src/globedoc/widget.hpp": _WIDGET,
         "examples/demo.cpp": "int main() { auto w = std::make_unique<Widget>();"
                              " w->spin(); }\n"},
        None,
    ),
    (
        "allowlisted method clean",
        {"src/globedoc/widget.hpp": _WIDGET,
         "tools/api_allowlist.txt": "globedoc::Widget::spin  # fault seam\n"},
        None,
    ),
    (
        "stale allowlist entry fires",
        {"src/globedoc/widget.hpp": _WIDGET,
         "bench/bench_widget.cpp": "int main() { Widget w; w.spin(); }\n",
         "tools/api_allowlist.txt": "globedoc::Widget::spin  # fault seam\n"},
        "[api-stale]",
    ),
    (
        "allowlist entry without a reason fires",
        {"src/globedoc/widget.hpp": _WIDGET,
         "tools/api_allowlist.txt": "globedoc::Widget\n"},
        "gives no reason",
    ),
    (
        "same-named method of another class does not hide it",
        {"src/obs/fleet.hpp": "namespace globe::obs {\n"
                              "struct Server { std::size_t replica_count() const; };\n"
                              "struct Fleet { std::size_t replica_count() const; };\n}\n",
         "bench/bench_fleet.cpp": "void f(const obs::Fleet& fleet) {\n"
                                  "  print(fleet.replica_count());\n}\n"},
        "[test-only-api] obs::Server::replica_count",
    ),
    (
        "caller inside a flagged function does not count",
        {"src/globedoc/grant.hpp": "namespace globe::globedoc {\n"
                                   "struct Grant { static Grant parse(int x); };\n"
                                   "class Client { public: Grant ask(); };\n}\n",
         "src/globedoc/grant.cpp": "namespace globe::globedoc {\n"
                                   "Grant Client::ask() { return Grant::parse(1); }\n}\n"},
        "[test-only-api] globedoc::Grant::parse",
    ),
    (
        "call with explicit template arguments clean",
        {"src/http/channel.hpp": "namespace globe::http {\n"
                                 "template <typename H> Bytes hmac_bytes(BytesView k);\n}\n",
         "src/http/channel.cpp": "Bytes mac(BytesView k) {\n"
                                 "  return hmac_bytes<crypto::Sha1>(k);\n}\n"},
        None,
    ),
    (
        "call from a destructor clean",
        {"src/net/server.hpp": "namespace globe::net {\nclass Server {\n public:\n"
                               "  ~Server();\n  void stop();\n};\n}\n",
         "src/net/server.cpp": "Server::~Server() { stop(); }\n"},
        None,
    ),
    (
        "call in an initializer list clean",
        {"src/obs/probe.hpp": "namespace globe::obs {\nint now_ns();\n"
                              "struct Probe { Probe(); int start_; };\n}\n",
         "src/obs/probe.cpp": "Probe::Probe() : start_(now_ns()) {}\n"},
        None,
    ),
    (
        "member named by &Class::name clean",
        {"src/globedoc/widget.hpp": _WIDGET,
         "src/globedoc/bind.cpp": "void wire(Dispatcher& d) {\n"
                                  "  d.bind(&Widget::spin);\n}\n"},
        None,
    ),
    (
        "override called through its base clean",
        {"src/net/transport.hpp": "namespace globe::net {\nclass Transport {\n"
                                  " public:\n  virtual int call() = 0;\n};\n"
                                  "class Sim final : public Transport {\n"
                                  " public:\n  int call() override;\n};\n}\n",
         "bench/bench_call.cpp": "void f(net::Transport& t) { t.call(); }\n"},
        None,
    ),
    (
        "base method called through a derived receiver clean",
        {"src/net/transport.hpp": "namespace globe::net {\nclass Transport {\n"
                                  " public:\n  void charge(int n);\n};\n"
                                  "class Sim : public Transport {};\n}\n",
         "bench/bench_call.cpp": "int main() { net::Sim sim; sim.charge(1); }\n"},
        None,
    ),
]


def run_api_self_test() -> int:
    import tempfile

    global REPO
    failures = 0
    for name, files, expected in API_SELF_TEST_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            for rel, text in files.items():
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(text)
            violations: list[str] = []
            saved_repo = REPO
            try:
                REPO = root
                check_test_only_api(violations)
            finally:
                REPO = saved_repo
            ok = (not violations if expected is None
                  else any(expected in v for v in violations))
            print(f"  {'PASS' if ok else 'FAIL'}: {name}"
                  + ("" if ok else f" (got {violations or 'nothing'})"))
            failures += 0 if ok else 1
    return failures


def run_orphan_self_test() -> int:
    import tempfile

    global REPO
    failures = 0
    for name, files, expected in ORPHAN_SELF_TEST_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            for rel, text in files.items():
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(text)
            violations: list[str] = []
            saved_repo = REPO
            try:
                REPO = root
                check_orphan_modules(violations)
            finally:
                REPO = saved_repo
            ok = (not violations if expected is None
                  else any(f"[{expected}]" in v for v in violations))
            print(f"  {'PASS' if ok else 'FAIL'}: {name}"
                  + ("" if ok else f" (got {violations or 'nothing'})"))
            failures += 0 if ok else 1
    return failures


def run_self_test() -> int:
    import tempfile

    failures = run_orphan_self_test() + run_api_self_test()
    for name, rel, snippet, expected in SELF_TEST_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(snippet)
            # Minimal catalog + a matching registration so metric cases can
            # distinguish documented from undocumented series and live from
            # stale rows (skipped when the case under test owns these paths).
            catalog = root / METRIC_CATALOG
            catalog.parent.mkdir(parents=True, exist_ok=True)
            if not catalog.exists():
                catalog.write_text(
                    "# Metric catalog\n\n"
                    "| `proxy.fetches` | counter | `outcome` | Fetches. |\n\n"
                    "`rsa_verify`\n`key_check`\n")
            seedmetric = root / "src/globedoc/seeded_proxy.cpp"
            if not seedmetric.exists():
                seedmetric.parent.mkdir(parents=True, exist_ok=True)
                seedmetric.write_text(
                    '  ok_ = &registry_->counter("proxy.fetches", labels);\n')
            # Minimal lock hierarchy + a matching mutex member so lock cases
            # can distinguish ranked from unranked and live from stale
            # (skipped when the case under test owns these paths).
            hierarchy = root / LOCK_HIERARCHY
            hierarchy.parent.mkdir(parents=True, exist_ok=True)
            if not hierarchy.exists():
                hierarchy.write_text("10 util.Ranked.mu_  # self-test seed\n")
            seedmutex = root / "src/util/ranked.hpp"
            if not seedmutex.exists():
                seedmutex.parent.mkdir(parents=True, exist_ok=True)
                seedmutex.write_text(
                    "class Ranked {\n  mutable util::Mutex mu_;\n};\n")
            # Minimal capacity registry + a matching GLOBE_BOUNDED member so
            # capacity cases can distinguish ranked from unranked and live
            # from stale (skipped when the case under test owns these paths).
            capfile = root / CAPACITY_BOUNDS
            if not capfile.exists():
                capfile.write_text("64 util.Registered.ring_  # self-test seed\n")
            seedmember = root / "src/util/registered.hpp"
            if not seedmember.exists():
                seedmember.parent.mkdir(parents=True, exist_ok=True)
                seedmember.write_text(
                    "class Registered {\n"
                    "  std::deque<int> ring_ GLOBE_BOUNDED;\n"
                    "};\n")
            # Minimal allow-lists, one file per rule seeded with a call, so
            # allow-list cases can distinguish allowed from not and live
            # from stale (skipped when the case under test owns the path).
            seeds = {
                "raw-crypto": ("src/globedoc/integrity.cpp",
                               "  auto sig = crypto::rsa_sign_sha1(key, body);\n"),
                "replica-check": ("src/globedoc/verify.cpp",
                                  "  if (!oid.matches_key(*key)) return bad();\n"),
            }
            for seed_rel, seed in seeds.values():
                seedfile = root / seed_rel
                if not seedfile.exists():
                    seedfile.parent.mkdir(parents=True, exist_ok=True)
                    seedfile.write_text(seed)
            violations: list[str] = []
            global REPO, ALLOW_LISTS
            saved_repo, saved_lists = REPO, ALLOW_LISTS
            try:
                REPO = root
                ALLOW_LISTS = [(tag, pattern, {seeds[tag][0]}, dirs, why)
                               for tag, pattern, _a, dirs, why in saved_lists]
                check_file(target, violations)
                check_allow_lists(violations)
                check_metric_catalog(violations)
                check_probe_catalog(violations)
                check_slo_catalog(violations)
                check_lock_hierarchy(violations)
                check_capacity_registry(violations)
            finally:
                REPO, ALLOW_LISTS = saved_repo, saved_lists
            tags = {re.search(r"\[([\w-]+)\]", v).group(1) for v in violations}
            if expected is None:
                ok = not violations
                detail = f"unexpected: {violations}" if not ok else ""
            else:
                ok = expected in tags
                detail = f"expected [{expected}], got {sorted(tags) or 'nothing'}"
            print(f"  {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if not ok else ""))
            failures += 0 if ok else 1
    if failures:
        print(f"tools/lint.py --self-test: {failures} case(s) FAILED.")
        return 1
    total = (len(SELF_TEST_CASES) + len(ORPHAN_SELF_TEST_CASES)
             + len(API_SELF_TEST_CASES))
    print(f"tools/lint.py --self-test: all {total} cases passed.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="verify each check fires on seeded violations")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    return run_lint()


if __name__ == "__main__":
    sys.exit(main())
