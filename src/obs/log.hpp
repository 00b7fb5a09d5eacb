// Structured, span-correlated event log (DESIGN.md §10).
//
// Where the metrics registry answers "how often" and the trace collector
// answers "where did the time go", the event log answers "what exactly
// happened": discrete, security- and availability-relevant occurrences
// (an element failing verification, a replica failing over, a replica
// installed) recorded as JSON lines.  Every record is stamped with the
// trace context in force on the emitting thread, so an event can be
// joined back to the exact fetch (and the exact span) that triggered it —
// `grep <trace_id>` across /tracez output and the event log tells the
// whole story of one request.
//
// Records live in a bounded ring (oldest evicted first).  Emission is
// thread-safe and cheap when the record is below the minimum level.
// Records at warn or above are also written to stderr, one line each
// (`[WARN] component: event: detail`) — the process's only plain-text log.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/bounds_annotations.hpp"
#include "util/mutex.hpp"

namespace globe::obs {

enum class EventLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug" / "info" / "warn" / "error".
const char* event_level_name(EventLevel level);

/// One structured event.  `trace_hi`/`trace_lo`/`span_id` are captured from
/// the emitting thread's current trace context (all zero when the event
/// happened outside any traced operation).
struct EventRecord {
  EventLevel level = EventLevel::kInfo;
  util::SimTime time = 0;     // virtual (or wall) time; 0 = not supplied
  std::string component;      // subsystem label, e.g. "proxy", "replication"
  std::string event;          // machine-readable name, e.g. "binding_failed"
  std::string detail;         // free-form human context
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;  // innermost open span when emitted

  /// One JSON object (one line, no trailing newline).  `trace_id` and
  /// `span_id` appear only when the event was inside a trace.
  std::string to_json() const;
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 1024);

  /// Records an event, stamping the calling thread's trace context, and
  /// writes warn-and-above records to stderr.  Discarded when below the
  /// minimum level.  Thread-safe.
  void emit(EventLevel level, std::string component, std::string event,
            std::string detail = "", util::SimTime time = 0)
      GLOBE_EXCLUDES(mutex_);

  void set_min_level(EventLevel level) GLOBE_EXCLUDES(mutex_);
  EventLevel min_level() const GLOBE_EXCLUDES(mutex_);

  /// Up to `max` most recent records, newest first.
  std::vector<EventRecord> recent(std::size_t max = 128) const
      GLOBE_EXCLUDES(mutex_);

  /// Every retained record belonging to the given trace, oldest first.
  std::vector<EventRecord> for_trace(std::uint64_t trace_hi,
                                     std::uint64_t trace_lo) const
      GLOBE_EXCLUDES(mutex_);

  std::size_t size() const GLOBE_EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }
  /// Total records accepted since construction/clear (including evicted).
  std::uint64_t emitted() const GLOBE_EXCLUDES(mutex_);

  void clear() GLOBE_EXCLUDES(mutex_);

 private:
  const std::size_t capacity_;

  mutable util::Mutex mutex_;
  EventLevel min_level_ GLOBE_GUARDED_BY(mutex_) = EventLevel::kDebug;
  std::deque<EventRecord> ring_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);  // oldest first
  std::uint64_t emitted_ GLOBE_GUARDED_BY(mutex_) = 0;
};

/// Process-wide default log: instrumented subsystems emit here.
EventLog& global_event_log();

}  // namespace globe::obs
