#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace globe::obs {

namespace {

/// Shortest representation that round-trips: integers print bare, other
/// values with up to 17 significant digits trimmed of trailing zeros.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 9.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* kind_name(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

const char* level_name(EventLevel level) {
  switch (level) {
    case EventLevel::kInfo: return "info";
    case EventLevel::kWarn: return "warn";
    case EventLevel::kError: return "error";
  }
  return "info";
}

void labels_to_json(std::ostringstream& os, const Labels& labels) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(key) << "\":\"" << json_escape(value) << '"';
  }
  os << '}';
}

void sample_to_json(std::ostringstream& os, const MetricSample& s) {
  os << "{\"name\":\"" << json_escape(s.name) << "\",\"labels\":";
  labels_to_json(os, s.labels);
  os << ",\"kind\":\"" << kind_name(s.kind) << '"';
  if (s.kind == MetricSample::Kind::kHistogram) {
    os << ",\"sum\":" << number(s.value) << ",\"count\":" << s.count
       << ",\"p50\":" << number(s.p50) << ",\"p90\":" << number(s.p90)
       << ",\"p99\":" << number(s.p99) << ",\"buckets\":[";
    for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
      if (i > 0) os << ',';
      os << "{\"le\":";
      if (i < s.bounds.size()) {
        os << number(s.bounds[i]);
      } else {
        os << "\"inf\"";
      }
      os << ",\"count\":" << s.bucket_counts[i] << '}';
    }
    os << ']';
  } else {
    os << ",\"value\":" << number(s.value);
  }
  os << '}';
}

void span_to_json(std::ostringstream& os, const SpanRecord& span) {
  os << "{\"name\":\"" << json_escape(span.name)
     << "\",\"start_ns\":" << span.start
     << ",\"duration_ns\":" << span.duration;
  // Tracing fields are emitted only when set, so span trees built without
  // ids (plain local tracing) keep their original shape.
  if (span.span_id != 0) os << ",\"span_id\":" << span.span_id;
  if (!span.host.empty()) {
    os << ",\"host\":\"" << json_escape(span.host) << '"';
  }
  if (!span.events.empty()) {
    os << ",\"events\":[";
    for (std::size_t i = 0; i < span.events.size(); ++i) {
      const SpanEvent& e = span.events[i];
      if (i > 0) os << ',';
      os << "{\"time_ns\":" << e.time << ",\"level\":\""
         << level_name(e.level) << "\",\"component\":\""
         << json_escape(e.component) << "\",\"event\":\""
         << json_escape(e.event) << '"';
      if (!e.detail.empty()) {
        os << ",\"detail\":\"" << json_escape(e.detail) << '"';
      }
      os << '}';
    }
    os << ']';
  }
  os << ",\"children\":[";
  for (std::size_t i = 0; i < span.children.size(); ++i) {
    if (i > 0) os << ',';
    span_to_json(os, span.children[i]);
  }
  os << "]}";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20 || byte == 0x7f) {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\x%02x", byte);
      out += buf;
    } else {
      out += c;
    }
  }
}

std::string to_text(const Snapshot& snapshot) {
  std::ostringstream os;
  for (const MetricSample& s : snapshot.samples) {
    os << s.name;
    if (!s.labels.empty()) {
      os << '{';
      bool first = true;
      for (const auto& [key, value] : s.labels) {
        if (!first) os << ',';
        first = false;
        os << key << '=' << value;
      }
      os << '}';
    }
    if (s.kind == MetricSample::Kind::kHistogram) {
      os << " count=" << s.count << " sum=" << number(s.value)
         << " p50=" << number(s.p50) << " p90=" << number(s.p90)
         << " p99=" << number(s.p99) << '\n';
      for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
        os << "  le=";
        if (i < s.bounds.size()) {
          os << number(s.bounds[i]);
        } else {
          os << "inf";
        }
        os << ' ' << s.bucket_counts[i];
        // The trace that last landed in this bucket: a slow bucket on
        // /federate links straight to its /tracez trace.
        if (i < s.exemplars.size() && s.exemplars[i].valid()) {
          os << "  # exemplar trace="
             << TraceContext{s.exemplars[i].trace_hi, s.exemplars[i].trace_lo,
                             0, true}
                    .trace_id();
        }
        os << '\n';
      }
    } else {
      os << ' ' << number(s.value) << '\n';
    }
  }
  return os.str();
}

std::string to_json(const Snapshot& snapshot) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < snapshot.samples.size(); ++i) {
    if (i > 0) os << ",\n";
    os << "  ";
    sample_to_json(os, snapshot.samples[i]);
  }
  os << "\n]";
  return os.str();
}

std::string to_json(const SpanRecord& span) {
  std::ostringstream os;
  span_to_json(os, span);
  return os.str();
}

util::Status write_bench_json(const std::string& path,
                              const std::string& bench_name,
                              const Snapshot& snapshot) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return util::Status(util::ErrorCode::kUnavailable,
                        "cannot open " + path + " for writing");
  }
  out << "{\"bench\":\"" << json_escape(bench_name) << "\",\n\"metrics\":"
      << to_json(snapshot) << "}\n";
  out.flush();
  if (!out) {
    return util::Status(util::ErrorCode::kUnavailable, "write failed: " + path);
  }
  return util::Status::ok();
}

}  // namespace globe::obs
