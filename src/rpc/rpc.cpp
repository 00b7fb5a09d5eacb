#include "rpc/rpc.hpp"

#include <stdexcept>

#include "obs/collector.hpp"

namespace globe::rpc {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

namespace {

const char* service_name(std::uint16_t service) {
  switch (service) {
    case kNamingService: return "naming";
    case kLocationService: return "location";
    case kGlobeDocAccess: return "gd.access";
    case kGlobeDocSecurity: return "gd.security";
    case kGlobeDocAdmin: return "gd.admin";
    case kTelemetryService: return "telemetry";
  }
  return nullptr;
}

}  // namespace

std::string rpc_span_name(std::uint16_t service, std::uint16_t method) {
  std::string name = "rpc:";
  if (const char* known = service_name(service)) {
    name += known;
  } else {
    name += std::to_string(service);
  }
  name += '/';
  name += std::to_string(method);
  return name;
}

void ServiceDispatcher::register_method(std::uint16_t service, std::uint16_t method,
                                        MethodFn fn) {
  util::LockGuard lock(mutex_);
  auto [it, inserted] = methods_.emplace(std::make_pair(service, method), std::move(fn));
  (void)it;
  if (!inserted) {
    throw std::logic_error("ServiceDispatcher: duplicate method " +
                           std::to_string(service) + "/" + std::to_string(method));
  }
}

void ServiceDispatcher::set_trace_sink(obs::TraceSink* sink) {
  util::LockGuard lock(mutex_);
  trace_sink_ = sink;
}

void ServiceDispatcher::set_trace_host(std::string host) {
  util::LockGuard lock(mutex_);
  trace_host_ = std::move(host);
}

Result<net::Reply> ServiceDispatcher::dispatch(net::ServerContext& ctx,
                                               BytesView request) const {
  std::uint16_t service, method;
  util::BytesView payload;
  obs::TraceContext caller;
  try {
    util::Reader r(request);
    std::uint16_t first = r.u16();
    if (first == kTraceMarker) {
      // Optional trace header: version byte, then the caller's context.
      // Legacy peers never produce the marker (service ids are small), so
      // untagged requests take the plain path below unchanged.  The context
      // length is version-defined, so an unknown version cannot be framed
      // past safely and is rejected rather than guessed at.
      std::uint8_t version = r.u8();
      if (version != kTraceVersion) {
        return Result<net::Reply>(ErrorCode::kProtocol,
                                  "unsupported trace header version " +
                                      std::to_string(version));
      }
      caller = obs::TraceContext::decode(r);
      service = r.u16();
    } else {
      service = first;
    }
    method = r.u16();
    // Slice only after the Reader bounds-checked the whole header:
    // subspan(off) with off > size() is UB, so a truncated frame must throw
    // above before any offset is formed.
    payload = request.subspan(request.size() - r.remaining());
  } catch (const util::SerialError& e) {
    return Result<net::Reply>(ErrorCode::kProtocol, e.what());
  }
  // A registered method is never erased or replaced (a duplicate throws), and
  // a std::map node does not move, so the handler is called through a pointer
  // after the lock is released: copying the std::function would allocate
  // whenever its captures outgrow the inline buffer.  The host is copied for
  // traced requests only.
  const bool traced = caller.valid() && caller.sampled;
  const MethodFn* fn = nullptr;
  obs::TraceSink* sink;
  std::string host;
  {
    util::LockGuard lock(mutex_);
    auto it = methods_.find({service, method});
    if (it == methods_.end()) {
      return Result<net::Reply>(ErrorCode::kNotFound,
                                "no method " + std::to_string(service) + "/" +
                                    std::to_string(method));
    }
    fn = &it->second;
    sink = trace_sink_;
    if (traced) host = trace_host_;
  }

  // A handler decodes its payload with util::Reader and lets a truncated or
  // malformed one throw: the answer is PROTOCOL with the reader's message.
  auto call = [&]() -> Result<net::Reply> {
    try {
      return (*fn)(ctx, payload);
    } catch (const util::SerialError& e) {
      return Result<net::Reply>(ErrorCode::kProtocol, e.what());
    }
  };
  if (!traced) return call();

  // Open the server-side span as a child of the caller's innermost span.
  // SimNet runs handlers inline on the caller's thread; the tracer saves
  // the caller's thread-local context at root open and restores it when the
  // root closes, so client-side spans resume correctly afterwards.
  obs::Tracer tracer([&ctx] { return ctx.now(); });
  tracer.set_host(host.empty() ? "host" + std::to_string(ctx.local_host().value)
                               : host);
  tracer.set_sink(sink != nullptr ? sink : &obs::global_trace_collector());
  tracer.adopt(caller);
  auto span = tracer.span(rpc_span_name(service, method));
  return call();
}

net::MessageHandler ServiceDispatcher::handler() {
  return [this](net::ServerContext& ctx, BytesView request) {
    return dispatch(ctx, request);
  };
}

Result<Bytes> RpcClient::call(std::uint16_t service, std::uint16_t method,
                              BytesView payload) const {
  util::Writer w;
  obs::TraceContext trace = obs::current_trace_context();
  if (trace.valid() && trace.sampled) {
    w.u16(kTraceMarker);
    w.u8(kTraceVersion);
    trace.encode(w);
  }
  w.u16(service);
  w.u16(method);
  w.raw(payload);
  return transport_->call(endpoint_, w.buffer());
}

}  // namespace globe::rpc
