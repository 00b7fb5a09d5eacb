#include "obs/collector.hpp"

#include <algorithm>

namespace globe::obs {

namespace {

/// Upper bound on fragments parked while waiting for their root; whole
/// oldest traces are evicted past it, so a lost root (crashed client, link
/// cut mid-trace) cannot grow the pool without bound.
constexpr std::size_t kMaxPendingFragments = 4096;

/// Depth-first search for the span with `span_id`; returns a mutable
/// pointer into `node`'s subtree or nullptr.
SpanRecord* find_by_id(SpanRecord& node, std::uint64_t span_id) {
  if (node.span_id == span_id) return &node;
  for (SpanRecord& child : node.children) {
    if (SpanRecord* found = find_by_id(child, span_id)) return found;
  }
  return nullptr;
}

/// True when a span of the tree holds a warn-or-above event.
bool holds_warning(const SpanRecord& span) {
  for (const SpanEvent& event : span.events) {
    if (event.level >= EventLevel::kWarn) return true;
  }
  for (const SpanRecord& child : span.children) {
    if (holds_warning(child)) return true;
  }
  return false;
}

/// Inserts `span` into `parent`'s children keeping start order.
void attach_child(SpanRecord& parent, SpanRecord span) {
  auto it = std::upper_bound(
      parent.children.begin(), parent.children.end(), span,
      [](const SpanRecord& a, const SpanRecord& b) { return a.start < b.start; });
  parent.children.insert(it, std::move(span));
}

}  // namespace

TraceCollector::TraceCollector(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceCollector::set_policy(const TailSamplingPolicy& policy) {
  util::LockGuard lock(mutex_);
  policy_ = policy;
}

void TraceCollector::evict_pending_locked() {
  while (pending_count_ > kMaxPendingFragments && !pending_order_.empty()) {
    TraceKey oldest = pending_order_.front();
    pending_order_.pop_front();
    auto it = pending_.find(oldest);
    if (it != pending_.end()) {
      pending_count_ -= it->second.size();
      pending_.erase(it);
    }
  }
}

void TraceCollector::record(TraceFragment fragment) {
  if (!fragment.sampled) return;
  TraceKey key{fragment.trace_hi, fragment.trace_lo};
  util::LockGuard lock(mutex_);
  if (fragment.parent_span != 0) {
    // A remote fragment: park it until the trace's root arrives.
    auto [it, inserted] = pending_.try_emplace(key);
    if (inserted) pending_order_.push_back(key);
    it->second.push_back(std::move(fragment));
    ++pending_count_;
    evict_pending_locked();
    return;
  }
  assemble_locked(key, std::move(fragment));
}

void TraceCollector::assemble_locked(const TraceKey& key, TraceFragment root) {
  StitchedTrace trace;
  trace.trace_hi = key.first;
  trace.trace_lo = key.second;
  trace.root = std::move(root.span);

  auto it = pending_.find(key);
  if (it != pending_.end()) {
    std::vector<TraceFragment> fragments = std::move(it->second);
    pending_count_ -= fragments.size();
    pending_.erase(it);
    for (auto order = pending_order_.begin(); order != pending_order_.end();) {
      order = *order == key ? pending_order_.erase(order) : order + 1;
    }

    // Attach fragments whose parent span is already in the tree; repeat so
    // a fragment whose parent is another fragment (a server that nested a
    // traced call to a second server) lands once its parent does.
    std::vector<bool> attached(fragments.size(), false);
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < fragments.size(); ++i) {
        if (attached[i]) continue;
        SpanRecord* parent = find_by_id(trace.root, fragments[i].parent_span);
        if (parent == nullptr) continue;
        attach_child(*parent, std::move(fragments[i].span));
        attached[i] = true;
        ++trace.fragments;
        progress = true;
      }
    }
    // Orphans (parent span never seen — e.g. the parent fragment was
    // evicted) hang off the root so the work is still visible.
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      if (attached[i]) continue;
      attach_child(trace.root, std::move(fragments[i].span));
      ++trace.fragments;
      trace.complete = false;
    }
  }

  // Tail-based retention: the decision runs here, where the root duration
  // and every fragment's events are finally known.  A warning is the only
  // account of a retry (a rejected replica, a failed refresh), so a trace
  // holding one is always kept.
  ++seen_;
  bool keep = trace.root.duration >= policy_.keep_slower_than ||
              (policy_.keep_one_in != 0 && seen_ % policy_.keep_one_in == 0) ||
              holds_warning(trace.root);
  if (!keep) return;
  ++kept_;
  ring_.push_back(std::move(trace));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<StitchedTrace> TraceCollector::recent(
    std::size_t max, util::SimDuration min_duration) const {
  util::LockGuard lock(mutex_);
  std::vector<StitchedTrace> out;
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < max; ++it) {
    if (it->root.duration < min_duration) continue;
    out.push_back(*it);
  }
  return out;
}

std::optional<StitchedTrace> TraceCollector::find(std::uint64_t trace_hi,
                                                  std::uint64_t trace_lo) const {
  util::LockGuard lock(mutex_);
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->trace_hi == trace_hi && it->trace_lo == trace_lo) return *it;
  }
  return std::nullopt;
}

std::size_t TraceCollector::size() const {
  util::LockGuard lock(mutex_);
  return ring_.size();
}

std::size_t TraceCollector::pending_fragments() const {
  util::LockGuard lock(mutex_);
  return pending_count_;
}

std::uint64_t TraceCollector::traces_seen() const {
  util::LockGuard lock(mutex_);
  return seen_;
}

std::uint64_t TraceCollector::traces_kept() const {
  util::LockGuard lock(mutex_);
  return kept_;
}

void TraceCollector::clear() {
  util::LockGuard lock(mutex_);
  pending_.clear();
  pending_order_.clear();
  pending_count_ = 0;
  ring_.clear();
  seen_ = 0;
  kept_ = 0;
}

TraceCollector& global_trace_collector() {
  static TraceCollector collector(256);
  return collector;
}

}  // namespace globe::obs
