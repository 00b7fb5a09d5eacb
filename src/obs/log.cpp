#include "obs/log.hpp"

#include <cstdio>
#include <sstream>

#include "obs/export.hpp"

namespace globe::obs {

namespace {

/// Writes "[WARN] component: event: detail" to stderr as one fwrite of the
/// whole line (stderr is unbuffered), so concurrent emitters never
/// interleave mid-line.
void write_stderr_line(const EventRecord& record) {
  std::string line = record.level == EventLevel::kError ? "[ERROR] " : "[WARN] ";
  line += record.component + ": " + record.event;
  if (!record.detail.empty()) line += ": " + record.detail;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace

const char* event_level_name(EventLevel level) {
  switch (level) {
    case EventLevel::kDebug: return "debug";
    case EventLevel::kInfo: return "info";
    case EventLevel::kWarn: return "warn";
    case EventLevel::kError: return "error";
  }
  return "info";
}

std::string EventRecord::to_json() const {
  std::ostringstream os;
  os << "{\"t\":" << time << ",\"level\":\"" << event_level_name(level)
     << "\",\"component\":\"" << json_escape(component) << "\",\"event\":\""
     << json_escape(event) << '"';
  if (!detail.empty()) os << ",\"detail\":\"" << json_escape(detail) << '"';
  if ((trace_hi | trace_lo) != 0) {
    os << ",\"trace_id\":\""
       << TraceContext{trace_hi, trace_lo, 0, true}.trace_id()
       << "\",\"span_id\":" << span_id;
  }
  os << '}';
  return os.str();
}

EventLog::EventLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void EventLog::emit(EventLevel level, std::string component, std::string event,
                    std::string detail, util::SimTime time) {
  // Early-out before building the record or mirroring, so suppressed events
  // cost one lock round-trip and nothing else (the "cheap below the minimum
  // level" promise in the header).
  {
    util::LockGuard lock(mutex_);
    if (level < min_level_) return;
  }

  EventRecord record;
  record.level = level;
  record.time = time;
  record.component = std::move(component);
  record.event = std::move(event);
  record.detail = std::move(detail);
  TraceContext ctx = current_trace_context();
  record.trace_hi = ctx.trace_hi;
  record.trace_lo = ctx.trace_lo;
  record.span_id = ctx.parent_span;

  // Warnings and errors also go to stderr, where an operator (and
  // bench_live's captured server logs) sees them without polling the ring.
  if (level >= EventLevel::kWarn) write_stderr_line(record);

  util::LockGuard lock(mutex_);
  if (level < min_level_) return;
  ++emitted_;
  ring_.push_back(std::move(record));
  while (ring_.size() > capacity_) ring_.pop_front();
}

void EventLog::set_min_level(EventLevel level) {
  util::LockGuard lock(mutex_);
  min_level_ = level;
}

EventLevel EventLog::min_level() const {
  util::LockGuard lock(mutex_);
  return min_level_;
}

std::vector<EventRecord> EventLog::recent(std::size_t max) const {
  util::LockGuard lock(mutex_);
  std::vector<EventRecord> out;
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < max; ++it) {
    out.push_back(*it);
  }
  return out;
}

std::vector<EventRecord> EventLog::for_trace(std::uint64_t trace_hi,
                                             std::uint64_t trace_lo) const {
  util::LockGuard lock(mutex_);
  std::vector<EventRecord> out;
  for (const EventRecord& record : ring_) {
    if (record.trace_hi == trace_hi && record.trace_lo == trace_lo) {
      out.push_back(record);
    }
  }
  return out;
}

std::size_t EventLog::size() const {
  util::LockGuard lock(mutex_);
  return ring_.size();
}

std::uint64_t EventLog::emitted() const {
  util::LockGuard lock(mutex_);
  return emitted_;
}

void EventLog::clear() {
  util::LockGuard lock(mutex_);
  ring_.clear();
  emitted_ = 0;
}

EventLog& global_event_log() {
  static EventLog log(1024);
  return log;
}

}  // namespace globe::obs
