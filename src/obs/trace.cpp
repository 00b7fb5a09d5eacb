#include "obs/trace.hpp"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <random>
#include <utility>

#include "obs/export.hpp"

namespace globe::obs {

namespace {

/// splitmix64 finalizer: a bijection on u64, so distinct counter values can
/// never collide.  Used instead of util::SplitMix64 to avoid shared mutable
/// state — each id mixes a fresh atomic counter value.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Per-process entropy folded into the counter's start, so independently
/// started processes (the wire header crosses real process boundaries in
/// the TCP deployment) don't all emit the identical span-id sequence.
std::uint64_t id_counter_seed() {
  std::random_device rd;
  std::uint64_t seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  return seed != 0 ? seed : 1;
}

std::atomic<std::uint64_t> g_id_counter{id_counter_seed()};

/// Innermost open span of this thread, as seen by the RPC layer.
thread_local TraceContext t_current_context;
/// The tracer owning that span: emit_event() records on its innermost span.
thread_local Tracer* t_current_tracer = nullptr;

/// Writes "[WARN] component: event: detail" to stderr as one fwrite of the
/// whole line (stderr is unbuffered), so concurrent emitters never
/// interleave mid-line.
void write_stderr_line(EventLevel level, std::string_view component,
                       std::string_view event, std::string_view detail) {
  std::string line = level == EventLevel::kError ? "[ERROR] " : "[WARN] ";
  append_escaped(line, component);
  line += ": ";
  append_escaped(line, event);
  if (!detail.empty()) {
    line += ": ";
    append_escaped(line, detail);
  }
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace

void emit_event(EventLevel level, std::string_view component,
                std::string_view event, std::string detail) {
  // Warnings and errors also go to stderr, where an operator (and
  // bench_live's captured server logs) sees them without polling /tracez.
  if (level >= EventLevel::kWarn) {
    write_stderr_line(level, component, event, detail);
  }
  Tracer* tracer = t_current_tracer;
  if (tracer == nullptr || tracer->stack_.empty()) return;
  SpanRecord& span = *tracer->stack_.back();
  if (span.events.size() >= kMaxSpanEvents) return;
  span.events.push_back(SpanEvent{level, tracer->now_(), std::string(component),
                                  std::string(event), std::move(detail)});
}

std::uint64_t next_span_id() {
  std::uint64_t id = mix64(g_id_counter.fetch_add(1, std::memory_order_relaxed));
  return id != 0 ? id : 1;
}

std::string TraceContext::trace_id() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(trace_hi),
                static_cast<unsigned long long>(trace_lo));
  return buf;
}

void TraceContext::encode(util::Writer& w) const {
  w.u64(trace_hi);
  w.u64(trace_lo);
  w.u64(parent_span);
  w.u8(sampled ? 1 : 0);
}

TraceContext TraceContext::decode(util::Reader& r) {
  TraceContext ctx;
  ctx.trace_hi = r.u64();
  ctx.trace_lo = r.u64();
  ctx.parent_span = r.u64();
  ctx.sampled = (r.u8() & 1) != 0;
  return ctx;
}

TraceContext current_trace_context() { return t_current_context; }

util::SimDuration span_total(const SpanRecord& root, std::string_view name) {
  util::SimDuration total = root.name == name ? root.duration : 0;
  for (const SpanRecord& child : root.children) total += span_total(child, name);
  return total;
}

const SpanRecord* find_span(const SpanRecord& root, std::string_view name) {
  if (root.name == name) return &root;
  for (const SpanRecord& child : root.children) {
    if (const SpanRecord* found = find_span(child, name)) return found;
  }
  return nullptr;
}

namespace {
void collect_spans(const SpanRecord& root, std::string_view name,
                   std::vector<const SpanRecord*>& out) {
  if (root.name == name) out.push_back(&root);
  for (const SpanRecord& child : root.children) collect_spans(child, name, out);
}
}  // namespace

std::vector<const SpanRecord*> find_all_spans(const SpanRecord& root,
                                              std::string_view name) {
  std::vector<const SpanRecord*> out;
  collect_spans(root, name, out);
  return out;
}

util::SimDuration remote_span_total(const SpanRecord& root,
                                    std::string_view prefix) {
  if (root.name.compare(0, prefix.size(), prefix) == 0) return root.duration;
  util::SimDuration total = 0;
  for (const SpanRecord& child : root.children) {
    total += remote_span_total(child, prefix);
  }
  return total;
}

Tracer::Tracer(NowFn now) : now_(std::move(now)) {}

Tracer::Tracer(const util::Clock& clock)
    : now_([&clock] { return clock.now(); }) {}

Tracer::Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_), node_(other.node_) {
  other.node_ = nullptr;
}

Tracer::Span& Tracer::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    node_ = other.node_;
    other.node_ = nullptr;
  }
  return *this;
}

Tracer::Span::~Span() { end(); }

void Tracer::Span::end() {
  if (node_ == nullptr) return;
  tracer_->end_node(node_);
  node_ = nullptr;
}

void Tracer::publish_current() {
  if (stack_.empty()) {
    t_current_context = enclosing_;
    t_current_tracer = enclosing_tracer_;
    return;
  }
  t_current_context = TraceContext{trace_hi_, trace_lo_,
                                   stack_.back()->span_id, sampled_};
  t_current_tracer = this;
}

Tracer::Span Tracer::span(std::string name) {
  SpanRecord node;
  node.name = std::move(name);
  node.start = now_();
  node.span_id = next_span_id();

  SpanRecord* placed;
  if (stack_.empty()) {
    // Root: join the adopted remote trace if there is one, else start a
    // fresh trace; remember the thread context in force so it can be
    // restored when this root closes (tracers on one thread nest strictly).
    enclosing_ = t_current_context;
    enclosing_tracer_ = t_current_tracer;
    if (inherited_.valid()) {
      trace_hi_ = inherited_.trace_hi;
      trace_lo_ = inherited_.trace_lo;
      root_parent_ = inherited_.parent_span;
      sampled_ = inherited_.sampled;
    } else {
      trace_hi_ = next_span_id();
      trace_lo_ = next_span_id();
      root_parent_ = 0;
      sampled_ = true;
    }
    node.host = host_;
    root_ = std::make_unique<SpanRecord>(std::move(node));
    placed = root_.get();
  } else {
    // Appending to the innermost open span only: pointers held in stack_
    // are the ancestors of `placed`, whose own children vectors are
    // untouched, so they stay valid.
    stack_.back()->children.push_back(std::move(node));
    placed = &stack_.back()->children.back();
  }
  stack_.push_back(placed);
  publish_current();
  return Span(this, placed);
}

void Tracer::end_node(SpanRecord* node) {
  // A handle can outlive its span when an ancestor's end() already closed
  // it; ending twice is a no-op.
  bool open = false;
  for (SpanRecord* s : stack_) {
    if (s == node) {
      open = true;
      break;
    }
  }
  if (!open) return;

  util::SimTime now = now_();
  // Close `node` and any open descendants (innermost first) at the same
  // instant.
  while (!stack_.empty()) {
    SpanRecord* top = stack_.back();
    stack_.pop_back();
    top->duration = now >= top->start ? now - top->start : 0;
    if (top == node) break;
  }
  publish_current();
  if (stack_.empty() && root_) {
    if (sink_ != nullptr && sampled_) {
      sink_->record(TraceFragment{trace_hi_, trace_lo_, root_parent_, sampled_,
                                  *root_});
    }
    finished_.push_back(std::move(*root_));
    root_.reset();
  }
}

std::vector<SpanRecord> Tracer::take_finished() {
  std::vector<SpanRecord> out = std::move(finished_);
  finished_.clear();  // defined-empty, and the drain is visible to bounds_check
  return out;
}

}  // namespace globe::obs
