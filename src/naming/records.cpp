#include "naming/records.hpp"

#include "util/serial.hpp"

namespace globe::naming {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

Bytes OidRecord::serialize() const {
  util::Writer w;
  w.u8(1);  // record type tag, bound under the signature
  w.str(name);
  w.bytes(oid);
  w.u64(expires);
  return w.take();
}

Result<OidRecord> OidRecord::parse(BytesView data) {
  try {
    util::Reader r(data);
    if (r.u8() != 1) return Result<OidRecord>(ErrorCode::kProtocol, "not an OID record");
    OidRecord rec;
    rec.name = r.str();
    rec.oid = r.bytes();
    rec.expires = r.u64();
    r.expect_end();
    if (rec.oid.size() != kOidSize) {
      return Result<OidRecord>(ErrorCode::kProtocol, "OID must be 20 bytes");
    }
    return rec;
  } catch (const util::SerialError& e) {
    return Result<OidRecord>(ErrorCode::kProtocol, e.what());
  }
}

Bytes DelegationRecord::serialize() const {
  util::Writer w;
  w.u8(2);
  w.str(zone);
  w.bytes(child_public_key);
  net::write_endpoint(w, name_server);
  w.u64(expires);
  return w.take();
}

Result<DelegationRecord> DelegationRecord::parse(BytesView data) {
  try {
    util::Reader r(data);
    if (r.u8() != 2) {
      return Result<DelegationRecord>(ErrorCode::kProtocol, "not a delegation record");
    }
    DelegationRecord rec;
    rec.zone = r.str();
    rec.child_public_key = r.bytes();
    rec.name_server = net::read_endpoint(r);
    rec.expires = r.u64();
    r.expect_end();
    return rec;
  } catch (const util::SerialError& e) {
    return Result<DelegationRecord>(ErrorCode::kProtocol, e.what());
  }
}

Bytes SignedBlob::serialize() const {
  util::Writer w;
  w.bytes(record);
  w.bytes(signature);
  return w.take();
}

Result<SignedBlob> SignedBlob::parse(BytesView data) {
  try {
    util::Reader r(data);
    SignedBlob blob;
    blob.record = r.bytes();
    blob.signature = r.bytes();
    r.expect_end();
    return blob;
  } catch (const util::SerialError& e) {
    return Result<SignedBlob>(ErrorCode::kProtocol, e.what());
  }
}

bool name_in_zone(const std::string& name, const std::string& zone) {
  if (zone.empty()) return true;  // root
  if (name == zone) return true;
  if (name.size() > zone.size() &&
      name.compare(name.size() - zone.size(), zone.size(), zone) == 0 &&
      name[name.size() - zone.size() - 1] == '.') {
    return true;
  }
  return false;
}

}  // namespace globe::naming
