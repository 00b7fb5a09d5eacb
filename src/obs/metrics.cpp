#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace globe::obs {

namespace {

Labels normalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Series labels + registry defaults for keys the series doesn't set,
/// re-sorted so snapshot ordering stays canonical.
Labels with_defaults(const Labels& labels, const Labels& defaults) {
  if (defaults.empty()) return labels;
  Labels out = labels;
  for (const auto& def : defaults) {
    bool present = false;
    for (const auto& have : labels) {
      if (have.first == def.first) {
        present = true;
        break;
      }
    }
    if (!present) out.push_back(def);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1),
      exemplars_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("histogram bounds must be strictly increasing");
  }
}

void Histogram::observe(double v) {
  std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  TraceContext ctx = current_trace_context();
  if (ctx.valid() && ctx.sampled) {
    exemplars_[i].hi.store(ctx.trace_hi, std::memory_order_relaxed);
    exemplars_[i].lo.store(ctx.trace_lo, std::memory_order_relaxed);
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<Exemplar> Histogram::exemplars() const {
  std::vector<Exemplar> out(exemplars_.size());
  for (std::size_t i = 0; i < exemplars_.size(); ++i) {
    out[i].trace_hi = exemplars_[i].hi.load(std::memory_order_relaxed);
    out[i].trace_lo = exemplars_[i].lo.load(std::memory_order_relaxed);
  }
  return out;
}

bool labels_contain(const Labels& labels, const Labels& subset) {
  return std::all_of(subset.begin(), subset.end(), [&](const auto& pair) {
    return std::find(labels.begin(), labels.end(), pair) != labels.end();
  });
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double q) {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0;

  // Rank of the target observation (1-based, ceil so q=1 hits the last).
  std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5));
  rank = std::min(rank, total);

  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    if (i >= bounds.size()) {
      // Overflow bucket: the histogram cannot resolve past the last bound.
      return bounds.empty() ? 0 : bounds.back();
    }
    double lo = i == 0 ? 0.0 : bounds[i - 1];
    double hi = bounds[i];
    double within = (static_cast<double>(rank - seen)) /
                    static_cast<double>(counts[i]);
    return lo + (hi - lo) * within;
  }
  return bounds.empty() ? 0 : bounds.back();  // unreachable
}

double Histogram::quantile(double q) const {
  return bucket_quantile(bounds_, bucket_counts(), q);
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  for (auto& e : exemplars_) {
    e.hi.store(0, std::memory_order_relaxed);
    e.lo.store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

bool merge_histogram_sample(MetricSample& into, const MetricSample& from) {
  if (into.kind != MetricSample::Kind::kHistogram ||
      from.kind != MetricSample::Kind::kHistogram) {
    return false;
  }
  if (into.bounds != from.bounds ||
      into.bucket_counts.size() != from.bucket_counts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < into.bucket_counts.size(); ++i) {
    into.bucket_counts[i] += from.bucket_counts[i];
  }
  into.count += from.count;
  into.value += from.value;  // histogram sum
  if (!from.exemplars.empty()) {
    if (into.exemplars.empty()) into.exemplars.resize(into.bucket_counts.size());
    for (std::size_t i = 0;
         i < from.exemplars.size() && i < into.exemplars.size(); ++i) {
      if (from.exemplars[i].valid()) into.exemplars[i] = from.exemplars[i];
    }
  }
  into.p50 = bucket_quantile(into.bounds, into.bucket_counts, 0.50);
  into.p90 = bucket_quantile(into.bounds, into.bucket_counts, 0.90);
  into.p99 = bucket_quantile(into.bounds, into.bucket_counts, 0.99);
  return true;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  Key key{name, normalize(std::move(labels))};
  util::LockGuard lock(mutex_);
  auto& slot = counters_[std::move(key)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  Key key{name, normalize(std::move(labels))};
  util::LockGuard lock(mutex_);
  auto& slot = gauges_[std::move(key)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds, Labels labels) {
  Key key{name, normalize(std::move(labels))};
  util::LockGuard lock(mutex_);
  auto& slot = histograms_[std::move(key)];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void MetricsRegistry::set_default_labels(Labels labels) {
  util::LockGuard lock(mutex_);
  default_labels_ = normalize(std::move(labels));
}

Snapshot MetricsRegistry::snapshot() const {
  util::LockGuard lock(mutex_);
  Snapshot snap;
  snap.samples.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, counter] : counters_) {
    MetricSample s;
    s.name = key.name;
    s.labels = with_defaults(key.labels, default_labels_);
    s.kind = MetricSample::Kind::kCounter;
    s.value = static_cast<double>(counter->value());
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [key, gauge] : gauges_) {
    MetricSample s;
    s.name = key.name;
    s.labels = with_defaults(key.labels, default_labels_);
    s.kind = MetricSample::Kind::kGauge;
    s.value = gauge->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [key, histogram] : histograms_) {
    MetricSample s;
    s.name = key.name;
    s.labels = with_defaults(key.labels, default_labels_);
    s.kind = MetricSample::Kind::kHistogram;
    s.value = histogram->sum();
    s.bounds = histogram->bounds();
    s.bucket_counts = histogram->bucket_counts();
    s.exemplars = histogram->exemplars();
    s.count = histogram->count();
    s.p50 = histogram->quantile(0.50);
    s.p90 = histogram->quantile(0.90);
    s.p99 = histogram->quantile(0.99);
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name != b.name ? a.name < b.name : a.labels < b.labels;
            });
  return snap;
}

void MetricsRegistry::reset() {
  util::LockGuard lock(mutex_);
  for (auto& [key, counter] : counters_) counter->reset();
  for (auto& [key, gauge] : gauges_) gauge->set(0);
  for (auto& [key, histogram] : histograms_) histogram->reset();
}

MetricsRegistry& global_registry() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace globe::obs
