// Session-wide trace assembly (DESIGN.md §10).
//
// Every side of an RPC records its span tree as an independent fragment:
// the proxy's "fetch" root on the client flow, one "rpc:<service>/<method>"
// root per handled request on each serving host.  Fragments share a 128-bit
// trace id and carry the span id of their remote parent, so the collector
// can stitch them back into ONE tree per trace — the cross-host view the
// paper's §4 latency decomposition needs (network time is the gap between a
// client stage span and the server spans nested under it).
//
// Memory is bounded twice over: assembled traces live in a fixed-capacity
// ring (oldest evicted first) and unassembled fragments in a bounded
// pending pool (whole oldest traces evicted when full).  Retention is
// tail-based: once the ROOT fragment arrives and the trace's total duration
// is known, the trace is kept if it is slow (root duration at or above
// `keep_slower_than`), and otherwise only every `keep_one_in`-th trace is
// kept — the classic keep-if-slow tail sampler, decided where the latency
// is known rather than up front.  One fixed rule overrides the policy: a
// trace any of whose spans holds a warn-or-above event (obs/trace.hpp) is
// always kept, because that event is the only account of a retry.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "util/mutex.hpp"
#include "util/bounds_annotations.hpp"

namespace globe::obs {

/// Tail-based retention policy.  Defaults keep every slow trace plus a
/// 1-in-16 sample of the rest; a trace holding a warning is kept whatever
/// the policy says.
struct TailSamplingPolicy {
  /// Traces whose root duration is >= this are always kept.
  util::SimDuration keep_slower_than = util::millis(250);
  /// Of the remaining (fast) traces, keep every Nth.  1 keeps everything;
  /// 0 keeps only slow traces.
  std::uint64_t keep_one_in = 16;
};

/// One assembled trace: the root fragment with every remote fragment
/// attached under the span that caused it.
struct StitchedTrace {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  bool complete = true;       // false when fragments never found their parent
  std::size_t fragments = 1;  // fragments merged into `root` (incl. the root)
  SpanRecord root;

  std::string trace_id() const {
    return TraceContext{trace_hi, trace_lo, 0, true}.trace_id();
  }
  util::SimDuration duration() const { return root.duration; }
};

class TraceCollector final : public TraceSink {
 public:
  explicit TraceCollector(std::size_t capacity = 256);

  /// Thread-safe; called by tracers on every flow and serving host.
  void record(TraceFragment fragment) override GLOBE_EXCLUDES(mutex_);

  void set_policy(const TailSamplingPolicy& policy) GLOBE_EXCLUDES(mutex_);

  /// Up to `max` most recent kept traces whose root duration is at least
  /// `min_duration`, newest first.
  std::vector<StitchedTrace> recent(std::size_t max = 64,
                                    util::SimDuration min_duration = 0) const
      GLOBE_EXCLUDES(mutex_);

  /// The kept trace with this id, if it is still in the ring.
  std::optional<StitchedTrace> find(std::uint64_t trace_hi,
                                    std::uint64_t trace_lo) const
      GLOBE_EXCLUDES(mutex_);

  std::size_t size() const GLOBE_EXCLUDES(mutex_);  // kept traces in the ring
  std::size_t capacity() const { return capacity_; }
  std::size_t pending_fragments() const GLOBE_EXCLUDES(mutex_);
  std::uint64_t traces_seen() const GLOBE_EXCLUDES(mutex_);
  std::uint64_t traces_kept() const GLOBE_EXCLUDES(mutex_);

  /// Drops every kept trace, pending fragment and counter (test isolation).
  void clear() GLOBE_EXCLUDES(mutex_);

 private:
  using TraceKey = std::pair<std::uint64_t, std::uint64_t>;

  void assemble_locked(const TraceKey& key, TraceFragment root)
      GLOBE_REQUIRES(mutex_);
  void evict_pending_locked() GLOBE_REQUIRES(mutex_);

  const std::size_t capacity_;

  mutable util::Mutex mutex_;
  TailSamplingPolicy policy_ GLOBE_GUARDED_BY(mutex_);
  // Fragments waiting for their trace's root, in arrival order per trace.
  std::map<TraceKey, std::vector<TraceFragment>> pending_
      GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  std::deque<TraceKey> pending_order_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  std::size_t pending_count_ GLOBE_GUARDED_BY(mutex_) = 0;
  std::deque<StitchedTrace> ring_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);  // oldest first
  std::uint64_t seen_ GLOBE_GUARDED_BY(mutex_) = 0;
  std::uint64_t kept_ GLOBE_GUARDED_BY(mutex_) = 0;
};

/// Process-wide default collector.  The RPC dispatcher and the proxy record
/// here unless handed a specific collector; /tracez serves from it.
TraceCollector& global_trace_collector();

}  // namespace globe::obs
