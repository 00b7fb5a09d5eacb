// Nested trace spans over a pluggable clock, with cross-process context.
//
// A Tracer timestamps spans through a caller-supplied "now" function, so
// the same instrumented code records *virtual* SimNet time when driven by
// a simulated flow (`[&] { return flow->now(); }`) and wall-clock time in
// the live TCP examples (`[] { return RealClock{}.now(); }`).  Spans nest
// strictly: a span opened while another is in progress becomes its child,
// which is exactly the shape of the proxy's Fig. 3 pipeline — one "fetch"
// root with resolve / locate / key_check / identity / integrity_verify /
// element_verify children (the paper's Fig. 4 numerator is the sum of the
// last four).
//
// Distributed tracing (DESIGN.md §10): every span carries a 64-bit span id
// and belongs to a trace identified by a 128-bit trace id.  The innermost
// open span of the calling thread is published as a thread-local
// TraceContext; the RPC layer injects it into request framing and the
// server-side dispatcher adopts it, so a proxy fetch that fans out to the
// naming resolver, the location tree and an object replica produces span
// fragments that all share ONE trace id.  A TraceSink (obs/collector.hpp)
// receives completed root fragments and stitches them back into a single
// cross-host tree.
//
// Span events (DESIGN.md §10): emit_event() records an occurrence such as
// a rejected replica on the innermost open span of the calling thread, so
// /tracez shows it inside the fetch it cost, and the tail sampler
// (obs/collector.hpp) always keeps a trace holding a warn-or-above event.
//
// A Tracer belongs to one logical flow, like net::Transport: it is NOT
// thread-safe, and a flow must stay on one thread while it has open spans
// (the propagated context is thread-local).  Use one tracer per concurrent
// fetch.  Tracers sharing a thread must nest strictly (open/close like a
// stack), which the RAII Span handles guarantee in practice.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"
#include "util/serial.hpp"
#include "util/bounds_annotations.hpp"

namespace globe::obs {

/// Propagated trace context: which trace the caller is inside, and which of
/// its spans is the parent of whatever the callee opens next.  The wire
/// form rides an optional RPC framing header (docs/PROTOCOL.md).
struct TraceContext {
  std::uint64_t trace_hi = 0;    // 128-bit trace id, high half
  std::uint64_t trace_lo = 0;    // 128-bit trace id, low half
  std::uint64_t parent_span = 0; // innermost open span of the caller (0 = root)
  bool sampled = true;           // cleared → downstream records nothing

  /// A context is valid when it names a trace (the all-zero id is "none").
  bool valid() const { return (trace_hi | trace_lo) != 0; }

  /// 32 lowercase hex chars (the usual W3C-style rendering).
  std::string trace_id() const;

  /// Wire form: u64 hi, u64 lo, u64 parent, u8 flags (bit 0 = sampled).
  static constexpr std::size_t kWireSize = 25;
  void encode(util::Writer& w) const;
  /// Throws util::SerialError on truncation (Reader bounds checking).
  static TraceContext decode(util::Reader& r);
};

/// Context of the innermost open span on this thread (invalid when none).
/// This is what RpcClient injects into outgoing request framing.
TraceContext current_trace_context();

/// Fresh span id (never 0).  Ids come from an atomic counter passed through
/// a splitmix64 mix, so they are unique within a process; the counter starts
/// at a per-process random seed, so independently started processes produce
/// distinct sequences (collision across processes is ~birthday-bound on 64
/// bits, not guaranteed-impossible).
std::uint64_t next_span_id();

enum class EventLevel : int { kInfo, kWarn, kError };

/// One event recorded on the span it happened in.
struct SpanEvent {
  EventLevel level = EventLevel::kInfo;
  util::SimTime time = 0;  // the recording tracer's clock
  std::string component;   // subsystem label, e.g. "proxy", "replication"
  std::string event;       // machine-readable name, e.g. "binding_failed"
  std::string detail;      // free-form human context
};

/// Events kept per span; later ones are dropped (their stderr lines, for
/// warnings and errors, are still written).
inline constexpr std::size_t kMaxSpanEvents = 32;

/// One completed span: half-open interval [start, start + duration) with
/// completed children, in start order.
struct SpanRecord {
  std::string name;
  util::SimTime start = 0;
  util::SimDuration duration = 0;
  std::uint64_t span_id = 0;  // unique within the trace
  std::string host;           // recording side's label (roots only; "" = unset)
  std::vector<SpanRecord> children;
  std::vector<SpanEvent> events;  // emission order, at most kMaxSpanEvents
};

/// Records an event on the innermost open span of the calling thread,
/// timed by that span's tracer.  Warn and error also write one
/// "[WARN] component: event: detail" line to stderr, with control bytes
/// escaped so text a peer chose (an RPC error message) cannot start a line
/// of its own.  An info event outside any span is dropped.
void emit_event(EventLevel level, std::string_view component,
                std::string_view event, std::string detail = "");

/// Sum of the durations of every span named `name` in the tree (the tree
/// may contain several, e.g. one `key_check` per replica attempted).
util::SimDuration span_total(const SpanRecord& root, std::string_view name);

/// First span named `name` in depth-first order, or nullptr.
const SpanRecord* find_span(const SpanRecord& root, std::string_view name);

/// Every span named `name`, depth-first.  Pointers are into `root`.
std::vector<const SpanRecord*> find_all_spans(const SpanRecord& root,
                                              std::string_view name);

/// Total time spent on the far side of an RPC within this subtree: the sum
/// of the durations of *maximal* spans whose name starts with `prefix`
/// (recursion stops at a match, so a server span that itself contains
/// nested RPC spans is counted once).  Server-side RPC spans are named
/// "rpc:<service>/<method>" by the dispatcher.
util::SimDuration remote_span_total(const SpanRecord& root,
                                    std::string_view prefix = "rpc:");

/// One completed span tree plus the trace coordinates needed to stitch it
/// under its remote parent.
struct TraceFragment {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t parent_span = 0;  // 0 = this fragment is the trace root
  bool sampled = true;
  SpanRecord span;
};

/// Receives completed root fragments.  Implementations must be thread-safe
/// (fragments arrive from every flow); obs/collector.hpp provides the
/// session-wide stitching implementation.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(TraceFragment fragment) = 0;
};

class Tracer {
 public:
  using NowFn = std::function<util::SimTime()>;

  explicit Tracer(NowFn now);
  /// Convenience over a util::Clock (which must outlive the tracer).
  explicit Tracer(const util::Clock& clock);

  /// Completed root spans are also delivered to `sink` (in addition to
  /// take_finished()).  Pass nullptr to detach.  The sink must outlive the
  /// tracer's last span.
  void set_sink(TraceSink* sink) { sink_ = sink; }

  /// Label stamped on root spans (e.g. "proxy", an object server's name).
  void set_host(std::string host) { host_ = std::move(host); }

  /// Adopts a remote caller's context: root spans opened after this join
  /// the caller's trace as children of `ctx.parent_span` instead of
  /// starting a fresh trace.  This is what the server-side RPC dispatcher
  /// calls with the context extracted from request framing.
  void adopt(const TraceContext& ctx) { inherited_ = ctx; }

  /// RAII handle: the span ends when end() is called or the handle is
  /// destroyed, whichever comes first.  Ending a span that still has open
  /// children ends the children too (at the same instant).
  class Span {
   public:
    Span(Span&& other) noexcept;
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

    void end();

   private:
    friend class Tracer;
    Span(Tracer* tracer, SpanRecord* node) : tracer_(tracer), node_(node) {}

    Tracer* tracer_ = nullptr;
    SpanRecord* node_ = nullptr;  // null once ended
  };

  /// Opens a span as a child of the innermost open span (or as a new root).
  Span span(std::string name);

  /// Completed root spans, oldest first; clears the tracer's record.
  /// Roots still open are not returned.
  std::vector<SpanRecord> take_finished();

  std::size_t open_spans() const { return stack_.size(); }

  /// Trace id of the current (or most recently completed) root span; 0/0
  /// before the first span opens.
  std::uint64_t trace_hi() const { return trace_hi_; }
  std::uint64_t trace_lo() const { return trace_lo_; }

 private:
  friend void emit_event(EventLevel, std::string_view, std::string_view,
                         std::string);

  void end_node(SpanRecord* node);
  void publish_current();

  NowFn now_;
  TraceSink* sink_ = nullptr;
  std::string host_;
  TraceContext inherited_;             // adopted remote context (may be invalid)
  std::uint64_t trace_hi_ = 0, trace_lo_ = 0;
  std::uint64_t root_parent_ = 0;      // parent span id of the open root
  bool sampled_ = true;
  TraceContext enclosing_;             // thread context saved at root open
  Tracer* enclosing_tracer_ = nullptr; // thread's open tracer saved at root open
  std::vector<SpanRecord> finished_ GLOBE_BOUNDED;
  std::unique_ptr<SpanRecord> root_;   // in-progress root (stable address)
  std::vector<SpanRecord*> stack_ GLOBE_BOUNDED;     // open spans, outermost first
};

}  // namespace globe::obs
