#include "globedoc/adversary.hpp"

#include "globedoc/element.hpp"
#include "globedoc/fetch_many.hpp"
#include "globedoc/server.hpp"
#include "location/tree.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "util/serial.hpp"

namespace globe::globedoc {

using util::Bytes;
using util::BytesView;
using util::Result;

namespace {

struct RpcHeader {
  std::uint16_t service = 0;
  std::uint16_t method = 0;
  std::size_t prefix = 0;  // bytes before the service id (trace header)
  BytesView payload;
};

bool read_header(BytesView request, RpcHeader& out) {
  // A competent man-in-the-middle speaks the full framing: skip the
  // optional trace header (marker 0xFFFF, version, context) if present.
  std::size_t off = 0;
  if (request.size() >= 2 && request[0] == 0xff && request[1] == 0xff) {
    off = 2 + 1 + obs::TraceContext::kWireSize;
  }
  if (request.size() < off + 4) return false;
  out.prefix = off;
  out.service = static_cast<std::uint16_t>(std::uint16_t{request[off]} << 8 |
                                           request[off + 1]);
  out.method = static_cast<std::uint16_t>(std::uint16_t{request[off + 2]} << 8 |
                                          request[off + 3]);
  out.payload = request.subspan(off + 4);
  return true;
}

/// What `inner` answers, in one buffer, for the attacks that rewrite it.
Result<Bytes> flat_reply(const net::MessageHandler& inner, net::ServerContext& ctx,
                         BytesView request) {
  auto reply = inner(ctx, request);
  if (!reply.is_ok()) return reply.status();
  return std::move(*reply).flatten();
}

}  // namespace

net::MessageHandler tampering_element_attack(net::MessageHandler inner) {
  return [inner = std::move(inner)](net::ServerContext& ctx,
                                    BytesView request) -> Result<Bytes> {
    auto response = flat_reply(inner, ctx, request);
    RpcHeader header;
    if (!response.is_ok() || !read_header(request, header) ||
        header.service != rpc::kGlobeDocAccess ||
        (header.method != kGetElement && header.method != kFetchMany)) {
      return response;
    }
    Bytes graffiti = util::to_bytes("<!-- owned -->");
    if (header.method == kFetchMany) {
      // Batched path: deface the first element present in the batch, leave
      // the rest genuine — a partial tamper the verifier must still catch.
      auto batch = FetchManyResponse::parse(*response);
      if (!batch.is_ok()) return response;
      for (auto& item : batch->items) {
        if (!item.found) continue;
        auto element = PageElement::parse(item.element);
        if (!element.is_ok()) continue;
        if (element->content.empty()) {
          element->content = graffiti;
        } else {
          element->content[element->content.size() / 2] ^= 0xff;
        }
        item.element = element->serialize();
        break;
      }
      return batch->serialize();
    }
    auto element = PageElement::parse(*response);
    if (!element.is_ok()) return response;
    // Inject a defacement into the genuine element body.
    if (element->content.empty()) {
      element->content = graffiti;
    } else {
      element->content[element->content.size() / 2] ^= 0xff;
    }
    return element->serialize();
  };
}

net::MessageHandler element_swap_attack(net::MessageHandler inner,
                                        std::string decoy_element) {
  return [inner = std::move(inner), decoy = std::move(decoy_element)](
             net::ServerContext& ctx, BytesView request) -> Result<net::Reply> {
    RpcHeader header;
    if (!read_header(request, header) || header.service != rpc::kGlobeDocAccess ||
        (header.method != kGetElement && header.method != kFetchMany)) {
      return inner(ctx, request);
    }
    util::Writer w;
    w.raw(request.first(header.prefix));  // preserve any trace header
    w.u16(header.service);
    w.u16(header.method);
    if (header.method == kFetchMany) {
      // Batched path: every requested name becomes the decoy.
      auto batch = FetchManyRequest::parse(header.payload);
      if (!batch.is_ok()) return inner(ctx, request);
      for (auto& name : batch->names) name = decoy;
      w.raw(batch->serialize());
      return inner(ctx, w.buffer());
    }
    try {
      util::Reader r(header.payload);
      Bytes oid = r.raw(Oid::kSize);
      (void)r.str();  // discard the requested name
      r.expect_end();
      w.raw(oid);
      w.str(decoy);
      return inner(ctx, w.buffer());
    } catch (const util::SerialError&) {
      return inner(ctx, request);
    }
  };
}

net::MessageHandler key_substitution_attack(net::MessageHandler inner,
                                            Bytes attacker_key_serialized) {
  return [inner = std::move(inner), key = std::move(attacker_key_serialized)](
             net::ServerContext& ctx, BytesView request) -> Result<net::Reply> {
    auto response = inner(ctx, request);
    RpcHeader header;
    if (!response.is_ok() || !read_header(request, header) ||
        header.service != rpc::kGlobeDocSecurity || header.method != kGetPublicKey) {
      return response;
    }
    return net::Reply(key);
  };
}

net::MessageHandler misdirecting_location_node(
    std::vector<net::Endpoint> bogus_addresses) {
  return [addresses = std::move(bogus_addresses)](
             net::ServerContext&, BytesView request) -> Result<Bytes> {
    RpcHeader header;
    if (!read_header(request, header) || header.service != rpc::kLocationService ||
        header.method != location::kLookup) {
      return Result<Bytes>(util::ErrorCode::kNotFound, "malicious node: no method");
    }
    location::LookupReply reply;
    reply.found = true;
    reply.addresses = addresses;
    return reply.serialize();
  };
}

net::MessageHandler certificate_forgery_attack(net::MessageHandler inner) {
  return [inner = std::move(inner)](net::ServerContext& ctx,
                                    BytesView request) -> Result<Bytes> {
    auto response = flat_reply(inner, ctx, request);
    RpcHeader header;
    if (!response.is_ok() || !read_header(request, header) ||
        header.service != rpc::kGlobeDocSecurity ||
        header.method != kGetIntegrityCert) {
      return response;
    }
    Bytes forged = *response;
    if (!forged.empty()) forged[forged.size() - 1] ^= 0x01;  // mangle the signature
    return forged;
  };
}

}  // namespace globe::globedoc
