// Continuous cost profiling (DESIGN.md §15): scoped probes that attribute
// CPU time to code paths.
//
// Spans (obs/trace.hpp) measure wall time per request stage; this layer
// answers the complementary question — *where do the cycles go?* — at the
// granularity of crypto primitives and serving stages.  A CostProbe is a
// scoped RAII guard: on entry it reads a wall clock and the calling
// thread's CPU clock (CLOCK_THREAD_CPUTIME_ID), on exit it records the
// deltas plus one call into a ProfileRegistry, keyed by the *stack* of
// open probes on this thread, so `fetch;resolve;rsa_verify` folds
// exactly like a flamegraph frame.
//
//   {
//     GLOBE_PROFILE_SCOPE("rsa_verify");
//     ... modular exponentiation ...
//   }   // <- records calls+1, wall/cpu deltas under the current stack
//
// Both clocks are pluggable per registry, so the deterministic simulator
// can substitute a virtual source (tests install a step clock and assert
// byte-identical folded output across runs); the default wall clock is the
// monotonic clock and the default CPU clock is per-thread CPU time where
// the platform has it, falling back to the wall clock elsewhere.
//
// Registry resolution: an explicit registry passed to CostProbe wins, else
// the thread's installed ProfileRegistryScope (how a per-node server
// attributes the crypto work done on its behalf to its own registry),
// else the process-wide global_profile_registry().
//
// Concurrency: the registry is sharded by stack hash; record() touches one
// shard mutex, snapshot() walks the shards one at a time.  Probe state
// (the open-probe stack) is thread-local and needs no lock.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/bounds_annotations.hpp"
#include "util/mutex.hpp"

namespace globe::obs {

class MetricsRegistry;

/// Accumulated cost of one probe stack.  `wall_ns`/`cpu_ns` are inclusive
/// (children counted); the `self_*` pair subtracts time spent under nested
/// probes, which is what a flamegraph frame's width must show — emitting
/// inclusive values per stack would double-count every parent.
struct ProbeStat {
  std::uint64_t calls = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t self_wall_ns = 0;
  std::uint64_t self_cpu_ns = 0;
};

/// One stack's state at snapshot time.  `stack` is the folded path
/// ("fetch;resolve;rsa_verify"); `leaf` is its last frame.
struct ProfileSample {
  std::string stack;
  std::string leaf;
  ProbeStat stat;
};

/// Point-in-time copy of a profile registry, ordered by stack.
struct ProfileSnapshot {
  std::vector<ProfileSample> samples;
};

class ProfileRegistry {
 public:
  using ClockFn = std::function<std::uint64_t()>;

  /// Bounds: probe stacks come from code literals, so cardinality is small
  /// in practice; the cap is a backstop against a probe label accidentally
  /// interpolating data.  Beyond it new stacks are dropped (counted).
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kMaxStacksPerShard = 512;
  static constexpr std::size_t kMaxPublishedLeaves = 1024;

  ProfileRegistry();

  /// Replaces the wall/CPU time sources.  Call at setup, before probes are
  /// in flight — the functions themselves are read without a lock on the
  /// probe hot path.  Passing a null function keeps the current source.
  void set_clocks(ClockFn wall, ClockFn cpu);

  std::uint64_t wall_now() const { return wall_clock_(); }
  std::uint64_t cpu_now() const { return cpu_clock_(); }

  /// Folds `delta` into the stat for `stack` (the leaf is derived from the
  /// stack's last frame at snapshot time).  Called by ~CostProbe; rarely
  /// useful directly.
  void record(std::string_view stack, const ProbeStat& delta);

  ProfileSnapshot snapshot() const;

  /// Drops every recorded stack (bench scenarios reset between runs).
  void reset();

  /// Stacks rejected by the kMaxStacksPerShard backstop since construction.
  std::uint64_t dropped() const;

  /// Publishes per-leaf aggregates as counters into `registry`:
  /// `profile.cpu_ns{probe=<leaf>}`, `profile.wall_ns{probe=<leaf>}` and
  /// `profile.calls{probe=<leaf>}` (inclusive time; a leaf appearing under
  /// several stacks is summed).  Counters only move forward: each call
  /// publishes the delta since the previous one, so scraping through
  /// /metrics or the telemetry plane sees ordinary monotone series.
  void publish_to(MetricsRegistry& registry) GLOBE_EXCLUDES(publish_mutex_);

 private:
  struct Shard {
    mutable util::Mutex mutex;
    std::map<std::string, ProbeStat, std::less<>> stacks
        GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex);
    std::uint64_t dropped GLOBE_GUARDED_BY(mutex) = 0;
  };

  Shard& shard_for(std::string_view stack);
  const Shard& shard_for(std::string_view stack) const;

  // Read lock-free on the probe hot path; replaced only at setup.
  ClockFn wall_clock_;
  ClockFn cpu_clock_;

  Shard shards_[kShards];

  // publish_to bookkeeping: last published value per leaf, so deltas keep
  // the target counters monotone.
  mutable util::Mutex publish_mutex_;
  std::map<std::string, ProbeStat> published_
      GLOBE_BOUNDED GLOBE_GUARDED_BY(publish_mutex_);
};

/// Process-wide default registry: probes land here unless a registry scope
/// or an explicit argument says otherwise.
ProfileRegistry& global_profile_registry();

/// Thread-scoped registry override.  A per-node server installs one at
/// handler entry so every probe fired on its behalf — crypto primitives
/// included — lands in that node's registry instead of the global one.
/// Nests: the previous scope is restored on destruction.  Constructing
/// with nullptr is a no-op override — the ambient scope (outer scope, or
/// the global registry) stays in effect — so a component with no
/// configured registry composes under a caller that installed one.
class ProfileRegistryScope {
 public:
  explicit ProfileRegistryScope(ProfileRegistry* registry);
  ~ProfileRegistryScope();

  ProfileRegistryScope(const ProfileRegistryScope&) = delete;
  ProfileRegistryScope& operator=(const ProfileRegistryScope&) = delete;

  /// The registry probes on this thread currently resolve to.
  static ProfileRegistry& current();

 private:
  ProfileRegistry* prev_;
};

/// Scoped cost probe.  `label` must outlive the probe — in practice it is
/// a string literal (GLOBE_PROFILE_SCOPE enforces that shape, and
/// tools/lint.py checks every such literal is cataloged in
/// docs/metrics.md).  Probes nested deeper than kMaxDepth are inert.
class CostProbe {
 public:
  static constexpr std::size_t kMaxDepth = 64;

  explicit CostProbe(const char* label, ProfileRegistry* registry = nullptr);
  ~CostProbe();

  CostProbe(const CostProbe&) = delete;
  CostProbe& operator=(const CostProbe&) = delete;

 private:
  ProfileRegistry* registry_;  // null = inert (depth overflow)
  const char* label_;
  std::uint64_t wall_start_ = 0;
  std::uint64_t cpu_start_ = 0;
};

/// Renders folded flamegraph stacks: one "frame;frame;frame <value>" line
/// per stack, sorted, value = self CPU nanoseconds.  Feed straight into
/// flamegraph.pl / speedscope.
std::string to_folded(const ProfileSnapshot& snapshot);

/// Renders the /profilez self-profile table: top `top_n` stacks by
/// inclusive cpu_ns with calls, ns/call and wall time.
std::string to_table(const ProfileSnapshot& snapshot, std::size_t top_n);

}  // namespace globe::obs

// Declares a scoped probe named after the source line.  The label literal
// becomes the flamegraph frame; keep it short, stable and cataloged.
#define GLOBE_PROFILE_CONCAT_(a, b) a##b
#define GLOBE_PROFILE_CONCAT(a, b) GLOBE_PROFILE_CONCAT_(a, b)
#define GLOBE_PROFILE_SCOPE(label)                                        \
  ::globe::obs::CostProbe GLOBE_PROFILE_CONCAT(globe_profile_probe_, \
                                               __LINE__)(label)
