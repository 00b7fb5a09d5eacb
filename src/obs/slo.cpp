// SLO evaluation: the TelemetryAggregator members (obs/telemetry.hpp) that
// turn each round's window deltas into alert states, and the /alertz body.
#include "obs/slo.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/export.hpp"
#include "obs/telemetry.hpp"

namespace globe::obs {

namespace {

/// Bad fraction → burn rate against the spec's error budget.
double burn_rate(double bad_fraction, double objective) {
  return std::clamp(bad_fraction, 0.0, 1.0) / (1.0 - objective);
}

/// Burn of one alert instance over one window delta; 0 when the window
/// holds no traffic for it — absence of traffic is not an outage.
double window_burn(const SloSpec& spec, const Labels& instance,
                   const std::vector<MetricSample>& delta) {
  if (spec.type == SloSpec::Type::kAvailability) {
    double total = 0, good = 0;
    for (const MetricSample& s : delta) {
      if (s.name != spec.metric || s.kind != MetricSample::Kind::kCounter ||
          !labels_contain(s.labels, instance)) {
        continue;
      }
      total += s.value;
      if (labels_contain(s.labels, spec.good_labels)) good += s.value;
    }
    if (total <= 0) return 0;
    return burn_rate((total - good) / total, spec.objective);
  }
  auto series = std::find_if(delta.begin(), delta.end(), [&](const auto& s) {
    return s.name == spec.metric && s.labels == instance &&
           s.kind == MetricSample::Kind::kHistogram;
  });
  if (series == delta.end() || series->count == 0) return 0;
  // Good = observations in buckets whose upper bound fits the threshold.
  // A threshold strictly between bounds rounds UP: the straddling bucket
  // counts as good, because the histogram cannot distinguish its members.
  std::uint64_t good = 0;
  bool boundary_hit = false;
  for (std::size_t i = 0; i < series->bounds.size(); ++i) {
    if (series->bounds[i] <= spec.threshold_ms) {
      good += series->bucket_counts[i];
      boundary_hit = series->bounds[i] == spec.threshold_ms;
    } else {
      if (!boundary_hit) good += series->bucket_counts[i];  // round up
      break;
    }
  }
  return burn_rate(static_cast<double>(series->count - good) /
                       static_cast<double>(series->count),
                   spec.objective);
}

}  // namespace

const char* alert_state_name(AlertStateKind state) {
  switch (state) {
    case AlertStateKind::kPending: return "pending";
    case AlertStateKind::kFiring: return "firing";
    case AlertStateKind::kResolved: return "resolved";
  }
  return "unknown";
}

void TelemetryAggregator::add_slo(SloSpec spec) {
  if (spec.objective <= 0 || spec.objective >= 1) {
    throw std::invalid_argument("SLO objective must be in (0, 1): " +
                                spec.name);
  }
  if (spec.short_window == 0 || spec.long_window < spec.short_window) {
    throw std::invalid_argument("SLO windows must satisfy 0 < short <= long: " +
                                spec.name);
  }
  util::LockGuard lock(mutex_);
  slos_.push_back(std::move(spec));
}

std::vector<AlertState> TelemetryAggregator::alerts() const {
  util::LockGuard lock(mutex_);
  std::vector<AlertState> out;
  out.reserve(alerts_.size());
  for (const auto& [key, state] : alerts_) out.push_back(state);
  return out;
}

void TelemetryAggregator::evaluate_slos_locked() {
  const Round& latest = ring_.back();
  // Each distinct window's delta is computed once per round.
  std::map<util::SimDuration, std::vector<MetricSample>> deltas;
  for (const SloSpec& spec : slos_) {
    for (util::SimDuration window : {spec.short_window, spec.long_window}) {
      auto [it, added] = deltas.try_emplace(window);
      if (!added) continue;
      if (auto delta = window_delta_locked(window)) {
        it->second = std::move(delta->series);
      }
    }
  }

  for (const SloSpec& spec : slos_) {
    // Availability: one instance per node= value among the latest round's
    // series, so the alert names the offending node rather than a faceless
    // cluster total.  Latency: one per matching series.
    std::set<Labels> instances;
    for (const auto& [node, snap] : latest.per_node) {
      for (const MetricSample& s : snap.samples) {
        if (s.name != spec.metric) continue;
        if (spec.type == SloSpec::Type::kLatency) {
          if (labels_contain(s.labels, spec.filter)) instances.insert(s.labels);
          continue;
        }
        for (const auto& [key, value] : s.labels) {
          if (key != "node") continue;
          Labels instance = spec.filter;
          instance.emplace_back(key, value);
          std::sort(instance.begin(), instance.end());
          instances.insert(std::move(instance));
        }
      }
    }
    for (const Labels& instance : instances) {
      double burn_short =
          window_burn(spec, instance, deltas.at(spec.short_window));
      double burn_long = window_burn(spec, instance, deltas.at(spec.long_window));
      bool short_hot = burn_short > spec.burn_threshold;
      bool long_hot = burn_long > spec.burn_threshold;
      AlertStateKind next = short_hot && long_hot ? AlertStateKind::kFiring
                            : short_hot || long_hot ? AlertStateKind::kPending
                                                    : AlertStateKind::kResolved;
      auto it = alerts_.find({spec.name, instance});
      if (it == alerts_.end()) {
        // A clean series never creates an instance: /alertz lists
        // incidents, not the whole SLO catalog.
        if (next == AlertStateKind::kResolved) continue;
        AlertState state;
        state.slo = spec.name;
        state.metric = spec.metric;
        state.labels = instance;
        state.state = next;
        state.since = latest.time;
        it = alerts_.emplace(std::pair(spec.name, instance), std::move(state))
                 .first;
      } else if (it->second.state != next) {
        it->second.state = next;
        it->second.since = latest.time;
      }
      it->second.burn_short = burn_short;
      it->second.burn_long = burn_long;
    }
  }

  std::size_t firing = 0, pending = 0;
  for (const auto& [key, state] : alerts_) {
    if (state.state == AlertStateKind::kFiring) ++firing;
    if (state.state == AlertStateKind::kPending) ++pending;
  }
  alerts_firing_->set(static_cast<double>(firing));
  alerts_pending_->set(static_cast<double>(pending));
}

std::string alerts_to_json(const std::vector<AlertState>& alerts) {
  std::ostringstream os;
  os << "{\"alerts\":[";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const AlertState& a = alerts[i];
    if (i > 0) os << ',';
    os << "{\"slo\":\"" << json_escape(a.slo) << "\",\"metric\":\""
       << json_escape(a.metric) << "\",\"labels\":{";
    for (std::size_t l = 0; l < a.labels.size(); ++l) {
      if (l > 0) os << ',';
      os << '"' << json_escape(a.labels[l].first) << "\":\""
         << json_escape(a.labels[l].second) << '"';
    }
    os << "},\"state\":\"" << alert_state_name(a.state)
       << "\",\"burn_short\":" << a.burn_short
       << ",\"burn_long\":" << a.burn_long << ",\"since_ns\":" << a.since
       << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace globe::obs
