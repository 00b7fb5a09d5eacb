// Declarative SLOs over the federated telemetry plane (DESIGN.md §11).
//
// A SloSpec states an objective over metrics the TelemetryAggregator
// already collects — no instrumented component knows SLOs exist.  Specs are
// installed with TelemetryAggregator::add_slo and evaluated at the end of
// every scrape round, over the same window deltas that feed /federate's
// derived series:
//
//   * availability: of the windowed delta of a counter family (all series
//     matching `filter`, summed across label values), the fraction matching
//     `good_labels` must be >= objective.  Evaluated per node= label value,
//     so the alert that fires names the offending node.
//   * latency: of the windowed observations of a histogram series, the
//     fraction at or under threshold_ms must be >= objective.  Evaluated
//     per label set (one proxy.fetch_ms series per replica), so a single
//     slow replica fires its own alert.
//
// Alerting is multi-window burn-rate (the SRE-workbook shape): the burn
// rate is bad_fraction / error_budget with error_budget = 1 - objective,
// so burn 1.0 consumes the budget exactly at the objective's pace.  An
// alert FIRES only when BOTH the short and the long window burn above
// `burn_threshold` — the long window proves the problem is sustained, the
// short window proves it is still happening (and lets the alert resolve
// quickly once the cause is fixed).  One window above, one below, is
// PENDING (arriving or draining); both below is RESOLVED.
//
// The evaluation itself is part of the aggregator; its definitions live in
// obs/slo.cpp next to the burn math.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace globe::obs {

struct SloSpec {
  enum class Type { kAvailability, kLatency };

  std::string name;     // alert/SLO identifier, e.g. "proxy-fetch-latency"
  Type type = Type::kAvailability;
  std::string metric;   // counter (availability) or histogram (latency)
  Labels filter;        // base labels a series must contain to participate

  // Availability only: labels marking the GOOD subset of `metric`.
  Labels good_labels;

  // Latency only: an observation is good when <= threshold_ms.  The
  // threshold should sit on a bucket boundary of the histogram — the
  // evaluator counts whole buckets and refuses to guess inside one (a
  // threshold between bounds is rounded UP to the next boundary).
  double threshold_ms = 0;

  double objective = 0.99;  // required good fraction, in (0, 1)

  util::SimDuration short_window = util::seconds(60);
  util::SimDuration long_window = util::seconds(300);
  double burn_threshold = 2.0;  // fire when both windows burn above this
};

enum class AlertStateKind { kPending, kFiring, kResolved };

const char* alert_state_name(AlertStateKind state);

/// One alert instance: a spec applied to one offending label set.
/// Instances appear on their first non-clean round and persist (as
/// kResolved) afterwards, so /alertz shows an incident's history.
struct AlertState {
  std::string slo;      // SloSpec::name
  std::string metric;
  Labels labels;        // offending series labels (node=, replica=, ...)
  AlertStateKind state = AlertStateKind::kPending;
  double burn_short = 0;
  double burn_long = 0;
  util::SimTime since = 0;  // time of the scrape round that entered `state`
};

/// /alertz body: {"alerts":[{slo, metric, labels, state, burn_short,
/// burn_long, since_ns}, ...]} in the given order, on one line.
std::string alerts_to_json(const std::vector<AlertState>& alerts);

}  // namespace globe::obs
