// Observability substrate (S23): a thread-safe metrics registry.
//
// Every layer of the stack — proxy, object server, naming, location,
// replication — reports what it does through counters, gauges and
// fixed-bucket histograms addressed by (name, label set).  A registry
// snapshot is a plain value that the exporters (export.hpp) turn into
// flat text for humans or JSON for the BENCH_*.json artifacts, so the
// paper's §4 decomposition ("where does secure-fetch time go?") is
// observable at every layer instead of a single ad-hoc field.
//
// Concurrency: metric handles returned by the registry are stable for the
// registry's lifetime and individually thread-safe (atomics); the registry
// itself serializes registration and snapshotting with a mutex.  Handlers
// running on ThreadPool workers may increment concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.hpp"

namespace globe::obs {

/// Label set identifying one time series of a metric.  Stored sorted by
/// key; the registry normalizes whatever order the caller passes.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// True when `labels` carries every pair of `subset`, in any order.
bool labels_contain(const Labels& labels, const Labels& subset);

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value that can move both ways (queue depth, replica count).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// 128-bit trace id attached to a histogram bucket: the trace that last
/// observed into it.  {0,0} = no exemplar recorded.
struct Exemplar {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

/// Fixed-bucket histogram: `bounds` are strictly increasing upper bounds
/// (inclusive); one implicit overflow bucket catches everything above the
/// last bound.  Quantiles are estimated by linear interpolation inside the
/// bucket holding the target rank — exact bucket choice, approximate
/// position, the standard fixed-bucket trade-off.
///
/// Exemplars: every observation made while the calling thread is inside a
/// sampled trace span stamps its bucket with that trace's id, so a slow
/// bucket in /metrics or /federate links straight to a /tracez trace.
/// Best-effort under concurrency (the two id halves are separate relaxed
/// atomics, so a torn pair can mix two concurrent traces) — acceptable for
/// a debugging aid, never used for control decisions.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  /// Per-bucket exemplars, same indexing as bucket_counts().
  std::vector<Exemplar> exemplars() const;

  /// Estimated q-quantile (q in [0,1]).  Returns 0 when empty.  Ranks that
  /// land in the overflow bucket report the last finite bound (the
  /// histogram cannot see past it).
  double quantile(double q) const;

  /// Drops every observation, keeping the bucket layout.
  void reset();

 private:
  struct BucketExemplar {
    std::atomic<std::uint64_t> hi{0};
    std::atomic<std::uint64_t> lo{0};
  };

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::vector<BucketExemplar> exemplars_;           // parallel to counts_
  std::atomic<double> sum_{0.0};
};

/// The quantile estimator of Histogram::quantile over explicit bucket
/// counts (`counts.size() == bounds.size() + 1`, last = overflow) — shared
/// with merged snapshot samples, whose buckets exist only as plain vectors.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double q);

/// One metric's state at snapshot time.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  double value = 0;  // counter/gauge value; histogram sum

  // Histogram-only fields (empty otherwise).
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::vector<Exemplar> exemplars;  // per bucket; may be empty (none recorded)
  std::uint64_t count = 0;
  double p50 = 0, p90 = 0, p99 = 0;
};

/// Point-in-time copy of a whole registry, ordered by (name, labels).
struct Snapshot {
  std::vector<MetricSample> samples;
};

/// Merges histogram sample `from` into `into` bucket-wise: counts and sums
/// add, quantiles are re-estimated from the merged buckets, and `from`'s
/// exemplars overwrite where present (last writer wins, matching gauge
/// semantics).  Returns false — leaving `into` untouched — when either
/// sample is not a histogram or the bucket layouts differ: snapshots from
/// different build generations must not silently blend.
bool merge_histogram_sample(MetricSample& into, const MetricSample& from);

class MetricsRegistry {
 public:
  /// Returns the series for (name, labels), creating it on first use.
  /// References stay valid for the registry's lifetime (reset() included:
  /// reset zeroes values but never deletes series).
  Counter& counter(const std::string& name, Labels labels = {})
      GLOBE_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name, Labels labels = {}) GLOBE_EXCLUDES(mutex_);
  /// `bounds` applies on first registration; later calls for the same
  /// series return the existing histogram unchanged.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       Labels labels = {}) GLOBE_EXCLUDES(mutex_);

  /// Labels stamped on every sample at snapshot time — how a per-node
  /// registry tags itself (node=, role=) without touching each call site.
  /// A series label with the same key wins over the default.
  void set_default_labels(Labels labels) GLOBE_EXCLUDES(mutex_);

  Snapshot snapshot() const GLOBE_EXCLUDES(mutex_);

  /// Zeroes every counter/gauge and drops every histogram observation,
  /// keeping handles valid — lets one process run several independent
  /// bench scenarios.
  void reset() GLOBE_EXCLUDES(mutex_);

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      return name != o.name ? name < o.name : labels < o.labels;
    }
  };

  mutable util::Mutex mutex_;
  // Map *structure* is guarded; the pointed-to metric objects are internally
  // thread-safe atomics updated without the registry lock.
  std::map<Key, std::unique_ptr<Counter>> counters_ GLOBE_GUARDED_BY(mutex_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ GLOBE_GUARDED_BY(mutex_);
  std::map<Key, std::unique_ptr<Histogram>> histograms_ GLOBE_GUARDED_BY(mutex_);
  Labels default_labels_ GLOBE_GUARDED_BY(mutex_);
};

/// Process-wide default registry.  Components report here unless handed a
/// specific registry; benches snapshot/reset it between scenarios.
MetricsRegistry& global_registry();

}  // namespace globe::obs
