// RPC framing and dispatch over the Transport abstraction.
//
// Wire format: u16 service id, u16 method id, then the method payload.
// A ServiceDispatcher multiplexes any number of (service, method) handlers
// behind one bound endpoint — this is how a Globe object server exposes the
// GlobeDoc access interface, the security interface and the admin interface
// on a single contact address (paper §2.1.3, §3).
//
// Trace propagation (DESIGN.md §10): a request MAY carry one optional
// framing header before the service id —
//
//   u16 0xFFFF (marker), u8 version (=1), 25-byte obs::TraceContext
//
// RpcClient injects the calling thread's current trace context when one is
// in force; ServiceDispatcher strips the header and opens a server-side
// span ("rpc:<service>/<method>") as a child of the caller's span, so a
// proxy fetch and the work it causes on every serving host share one trace
// id.  The marker can never collide with a real first field: service ids
// are small, so a legacy request's first u16 is never 0xFFFF.  Untagged
// requests (old peers, raw probes) dispatch exactly as before.  The context
// length is fixed per version, so a marker with any other version byte is
// rejected as a protocol error — there is no way to skip an unknown layout.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "util/mutex.hpp"

#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/serial.hpp"
#include "util/taint_annotations.hpp"
#include "util/bounds_annotations.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace globe::rpc {

/// Well-known service ids.
enum ServiceId : std::uint16_t {
  kNamingService = 1,
  kLocationService = 2,
  kGlobeDocAccess = 3,    // page-element retrieval (untrusted path)
  kGlobeDocSecurity = 4,  // public key / certificates (paper §3.1.2)
  kGlobeDocAdmin = 5,     // replica management, keystore-ACL'd (paper §2.1.3)
  // 6 is retired (it was HttpGateway, which nothing registered: the static
  // HTTP server serves on its own endpoint).
  // 7 is retired (it was GlobeDocDynamic, which no client called).
  kTelemetryService = 8,  // per-node metrics scrape (obs/telemetry.hpp)
};

using MethodFn =
    std::function<util::Result<net::Reply>(net::ServerContext&, util::BytesView)>;

/// Marker u16 that introduces the optional trace header (see file comment).
inline constexpr std::uint16_t kTraceMarker = 0xFFFF;
inline constexpr std::uint8_t kTraceVersion = 1;

/// Span name for the server side of an RPC: "rpc:<service>/<method>", with
/// well-known service ids rendered by name ("rpc:gd.access/3").
std::string rpc_span_name(std::uint16_t service, std::uint16_t method);

/// Routes (service, method) to registered handlers.  Registration is done
/// at setup time; dispatch is thread-safe.
class ServiceDispatcher {
 public:
  void register_method(std::uint16_t service, std::uint16_t method, MethodFn fn)
      GLOBE_EXCLUDES(mutex_);

  /// Completed server-side span fragments go to `sink`; nullptr (the
  /// default) means obs::global_trace_collector().  Setup-time only.
  void set_trace_sink(obs::TraceSink* sink) GLOBE_EXCLUDES(mutex_);

  /// Host label stamped on server-side spans.  Empty (the default) derives
  /// "host<N>" from the serving context.  Setup-time only.
  void set_trace_host(std::string host) GLOBE_EXCLUDES(mutex_);

  /// Adapter to bind on a SimNet endpoint or TcpServer.
  net::MessageHandler handler();

  /// A util::SerialError that the method throws, on a payload it cannot
  /// decode, is answered as kProtocol with the error's message.
  util::Result<net::Reply> dispatch(net::ServerContext& ctx,
                                    util::BytesView request) const
      GLOBE_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  std::map<std::pair<std::uint16_t, std::uint16_t>, MethodFn> methods_
      GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  obs::TraceSink* trace_sink_ GLOBE_GUARDED_BY(mutex_) = nullptr;
  std::string trace_host_ GLOBE_GUARDED_BY(mutex_);
};

/// Client stub for one remote endpoint.
class RpcClient {
 public:
  /// Constructing a stub is the "dial" of a contact address: the endpoint
  /// must come from a verified record (a signed delegation, a verified
  /// binding) — untrusted addresses reaching here are flagged by the taint
  /// pass and need an explicit justification in tools/taint_baseline.txt.
  RpcClient(net::Transport& transport, GLOBE_TRUSTED_SINK net::Endpoint endpoint)
      : transport_(&transport), endpoint_(endpoint) {}

  /// Reply payloads originate at a remote, possibly malicious, party.
  /// Blocking: one full round trip on the underlying transport.
  GLOBE_BLOCKING GLOBE_UNTRUSTED util::Result<util::Bytes> call(std::uint16_t service,
                                                 std::uint16_t method,
                                                 util::BytesView payload) const;

  const net::Endpoint& endpoint() const { return endpoint_; }
  net::Transport& transport() const { return *transport_; }

 private:
  net::Transport* transport_;
  net::Endpoint endpoint_;
};

}  // namespace globe::rpc
