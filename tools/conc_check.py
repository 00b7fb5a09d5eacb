#!/usr/bin/env python3
"""Concurrency-hazard analysis for the GlobeDoc tree (DESIGN.md §13).

Turns the repo's comment-only locking conventions into machine-checked
invariants, ahead of the async-reactor rewrite that will multiply the
concurrency surface.  Two analyses run over one interprocedural call-graph
fixpoint:

  * lock-order — every `util::Mutex` / `util::RecursiveMutex` member holds
    a rank in tools/lock_hierarchy.txt (lower rank = outer lock, acquired
    first).  The analyzer extracts the static lock-acquisition graph from
    LockGuard/UniqueLock/RecursiveLockGuard sites — including locks held
    across calls, via per-function acquisition summaries — and reports any
    edge that runs against the declared order or touches an unranked
    mutex, with cycle detection over the whole graph and full
    acquisition-chain diagnostics.

  * blocking-under-lock — the GLOBE_BLOCKING attribute
    (src/util/thread_annotations.hpp, expands to [[clang::annotate]])
    marks primitives that park the calling thread: Transport::call, RPC
    client calls, condvar waits, SingleFlight coalescing, sleeps.
    Blocking-ness propagates transitively through the call graph; any
    path that reaches a blocking call while a lock is held is a finding.
    The one modeled exemption is a condition-variable wait releasing its
    OWN lock (`cv_.wait(lock)`); any other lock held across the wait
    still flags.

This file is a thin command-line shim over the conc pass of the analyzer
package in tools/analysis/.  The package's two frontends (libclang over
compile_commands.json, reading [[clang::annotate("globe::blocking")]], in
CI; the stdlib-only ``lite`` tokenizer under plain ``ctest``) hand each
function body to the pass's own event builder, which records guard
declarations, manual lock/unlock, condvar waits and calls, and lifts
lambdas into functions of their own.

Intentional holds (e.g. the proxy's documented one-browser-one-proxy
serialization) are suppressed through tools/conc_baseline.txt, which
requires a written justification per entry.

Exit status: 0 = clean (modulo baseline), 1 = findings or stale baseline,
2 = usage/environment error.

Usage:
  tools/conc_check.py [--frontend auto|clang|lite] [paths...]
  tools/conc_check.py --self-test [--frontend clang]    # tests/conc/
  tools/conc_check.py --edges               # dump the acquisition graph
  tools/conc_check.py --list                # dump mutexes + blocking fns
"""

import sys

from analysis import driver, conc

if __name__ == "__main__":
    sys.exit(driver.main(conc, __doc__))
