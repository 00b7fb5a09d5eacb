#!/usr/bin/env python3
"""Trust-boundary taint analysis for the GlobeDoc tree (DESIGN.md §9).

Proves the paper's §3 dataflow invariant over the whole call graph: bytes
obtained from an untrusted source (RPC replies, location records, naming
records, plain-HTTP bodies, wire payloads) must pass a verification entry
point (a GLOBE_SANITIZER) before they reach a trusted sink (element-cache
insert, client response, replica-state install, contact dial).  Sources,
sanitizers and sinks are declared in the source itself via the macros in
src/util/taint_annotations.hpp.

This file is a thin command-line shim over the taint pass of the analyzer
package in tools/analysis/, which holds the lexer, both frontends (libclang
over compile_commands.json; the stdlib-only ``lite`` tokenizer), the driver
(``--frontend auto`` tries clang, then falls back to lite) and the
dataflow core this pass shares with bounds_check.py.

The dataflow core runs a flow-sensitive intraprocedural walk (statements
in textual order, so sanitize-then-retaint is caught) plus an
interprocedural fixpoint over function summaries:

  * ``returns taint``      — which parameters (or internal sources) flow to
                             the return value;
  * ``sanitizes param i``  — annotated sanitizers, plus functions that pass
                             a parameter straight into one;
  * ``sink paths``         — which parameters reach a sink inside the
                             function or transitively through its callees
                             (this is what yields multi-hop call chains).

A finding is a concrete source reaching a sink with no sanitizer in
between; each is reported with the full call chain.  Intentional flows
(e.g. the paper's §3.1.2 speculative dial of unverified contact addresses)
are suppressed through tools/taint_baseline.txt, which requires a written
justification per entry.

Exit status: 0 = clean (modulo baseline), 1 = findings or stale baseline,
2 = usage/environment error.

Usage:
  tools/taint_check.py [--frontend auto|clang|lite] [paths...]
  tools/taint_check.py --self-test [--frontend clang]   # tests/taint/
  tools/taint_check.py --list               # dump annotated functions
"""

import sys

from analysis import driver, taint

if __name__ == "__main__":
    sys.exit(driver.main(taint, __doc__))
