#include "obs/consistency.hpp"

#include <utility>

namespace globe::obs {

using util::BytesView;
using util::ErrorCode;
using util::Reader;
using util::Result;
using util::Writer;

namespace {

constexpr std::size_t kOidSize = 20;

}  // namespace

void encode_consistency(Writer& w, const ConsistencyReport& report) {
  w.u8(kConsistencyVersion);
  w.u32(static_cast<std::uint32_t>(report.docs.size()));
  for (const DocConsistency& d : report.docs) {
    // Locally-built reports always carry exact-size fields
    // (ObjectServer::consistency_report); the decoder enforces it anyway.
    w.raw(d.oid);
    w.u64(d.epoch);
    w.raw(d.digest);
    w.u64(d.earliest_expiry);
  }
}

Result<ConsistencyReport> decode_consistency(BytesView data) {
  try {
    Reader r(data);
    std::uint8_t version = r.u8();
    if (version != kConsistencyVersion) {
      return Result<ConsistencyReport>(
          ErrorCode::kProtocol,
          "unsupported consistency version " + std::to_string(version));
    }
    std::uint32_t n = util::checked_count(
        r.u32(), static_cast<std::uint32_t>(kMaxReportDocs));
    ConsistencyReport report;
    report.docs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      DocConsistency d;
      d.oid = r.raw(kOidSize);
      d.epoch = r.u64();
      d.digest = r.raw(kConsistencyDigestSize);
      d.earliest_expiry = r.u64();
      report.docs.push_back(std::move(d));
    }
    r.expect_end();
    return report;
  } catch (const util::SerialError& e) {
    return Result<ConsistencyReport>(ErrorCode::kProtocol, e.what());
  }
}

const char* replica_consistency_name(ReplicaConsistency state) {
  switch (state) {
    case ReplicaConsistency::kFresh: return "fresh";
    case ReplicaConsistency::kStale: return "stale";
    case ReplicaConsistency::kDiverged: return "diverged";
    case ReplicaConsistency::kExpired: return "expired";
    case ReplicaConsistency::kMissing: return "missing";
    case ReplicaConsistency::kUnreachable: return "unreachable";
  }
  return "unreachable";
}

}  // namespace globe::obs
