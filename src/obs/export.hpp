// Exporters: turn a registry snapshot (or a span tree) into flat text for
// humans or JSON for the BENCH_*.json artifacts.
//
// JSON shape of a snapshot:
//   [
//     {"name": "proxy.fetches", "labels": {"outcome": "ok"},
//      "kind": "counter", "value": 6},
//     {"name": "proxy.fetch_ms", "labels": {}, "kind": "histogram",
//      "sum": 12.5, "count": 6, "p50": ..., "p90": ..., "p99": ...,
//      "buckets": [{"le": 1, "count": 2}, ..., {"le": "inf", "count": 0}]}
//   ]
// and of a bench artifact (write_bench_json):
//   {"bench": "<name>", "metrics": [ ...snapshot... ]}
//
// Numbers are printed with enough precision to round-trip; the output is
// deterministic (samples are sorted by name then labels) so artifacts can
// be checked in and diffed.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace globe::obs {

/// "name{k=v,...} value" lines, one metric per line; histograms get one
/// summary line plus indented bucket lines.
std::string to_text(const Snapshot& snapshot);

/// JSON array of metric samples (shape above).
std::string to_json(const Snapshot& snapshot);

/// JSON object for one span tree:
///   {"name": "fetch", "start_ns": 0, "duration_ns": 123, "children": [...]}
/// A span holding events also carries, before its children,
///   "events": [{"time_ns": 90, "level": "warn", "component": "proxy",
///               "event": "element_rejected", "detail": "..."}]
std::string to_json(const SpanRecord& span);

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

/// Appends `s` to `out` with bytes below 0x20 and 0x7f written as \xNN, so
/// peer-chosen text stays on one inert line (stderr events, /federate
/// node comments).
void append_escaped(std::string& out, std::string_view s);

/// Writes {"bench": bench_name, "metrics": <snapshot JSON>} to `path`.
util::Status write_bench_json(const std::string& path,
                              const std::string& bench_name,
                              const Snapshot& snapshot);

}  // namespace globe::obs
