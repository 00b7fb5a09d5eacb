#!/usr/bin/env python3
"""Resource-bound analysis for the GlobeDoc tree (DESIGN.md §14).

The paper's replicas, Location Service and naming servers are untrusted, so
every length or count field decoded off the wire is attacker-controlled.
This analyzer proves two resource invariants over the whole call graph:

  1. Untrusted-size allocation: any allocation-sized call — ``resize``,
     ``reserve``, the count form of ``assign``, count construction of
     ``std::string``/``std::vector``/``Bytes``, ``make_unique<T[]>`` — whose
     size derives from a GLOBE_UNTRUSTED source (the same annotations, and
     the same dataflow core, as the taint pass) must first pass a clamp
     annotated GLOBE_LENGTH_GUARD (``util::checked_count``,
     ``util::Reader::need``).  Findings carry the full source→allocation
     call chain.  ``substr`` and iterator-pair/copy construction are NOT
     sinks: the standard clamps their size to the existing object, so they
     are bounded by input already allocated.  Likewise ``.size()`` of a
     tainted buffer is input-bounded metadata, not an untrusted size.

  2. Unbounded-growth state: a container member grown
     (push_back/emplace/insert/append/+=, or any ``m[k]`` on a map, whose
     ``operator[]`` inserts every new key however its result is used:
     assigned, bound to a reference, incremented or written through) from
     a member function of a long-lived class (anything in src/cache,
     src/replication, src/obs, or a class whose name marks it as a
     server/proxy/dispatcher/pool/...) must
     either carry GLOBE_BOUNDED (src/util/bounds_annotations.hpp) or be
     ranked in tools/capacity_bounds.txt.  A declared bound must be real:
     unless its registry entry is capacity 0 (grows only during trusted
     configuration), the class must contain an enforcement point for the
     member — an eviction/shrink call or a size check.

This file is a thin command-line shim over the bounds pass of the analyzer
package in tools/analysis/, which holds the shared lexer, both frontends
(libclang over compile_commands.json in CI; the stdlib-only ``lite``
tokenizer under plain ``ctest``) and the driver.

Intentional exceptions are suppressed through tools/bounds_baseline.txt,
which requires a written justification per entry.

Exit status: 0 = clean (modulo baseline), 1 = findings or stale baseline,
2 = usage/environment error.

Usage:
  tools/bounds_check.py [--frontend auto|clang|lite] [paths...]
  tools/bounds_check.py --self-test [--frontend clang]   # tests/bounds/
  tools/bounds_check.py --list      # guards, bounded members, growth sites
"""

import sys

from analysis import driver, bounds

if __name__ == "__main__":
    sys.exit(driver.main(bounds, __doc__))
