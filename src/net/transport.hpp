// The blocking transport abstraction every GlobeDoc protocol is written
// against (DESIGN.md §6).
//
// Protocol code (proxy, object server, naming, location) calls
// Transport::call and, when it performs cryptographic work, reports it via
// charge() so the simulated clock advances by the era CPU model.  The live
// TCP transport implements the same interface with a wall clock and no-op
// charges, so identical protocol code runs in benchmarks and for real.
#pragma once

#include <functional>
#include <memory>

#include "net/address.hpp"
#include "net/cpu_model.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"
#include "util/taint_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace globe::net {

/// Context available to a message handler while it serves one request.
class ServerContext {
 public:
  virtual ~ServerContext() = default;

  /// Current (virtual or wall) time at the serving host.
  virtual util::SimTime now() const = 0;

  /// Accounts CPU work performed by the handler (advances virtual time).
  virtual void charge(CpuOp op, std::uint64_t amount) = 0;

  /// Host the handler is running on.
  virtual HostId local_host() const = 0;

  /// Transport for nested outgoing calls made while handling this request.
  /// Nested calls must not form cross-host cycles (see SimNet docs).
  virtual class Transport& transport() = 0;
};

/// A handler's response bytes: an owned head, then a tail that views
/// immutable storage the reply shares ownership of.  A handler that builds
/// bytes returns them as a flat reply (Bytes converts implicitly); one that
/// serves stored content puts a few header bytes in the head and views the
/// content, so the content is not copied per request.  TcpServer writes the
/// two parts with one sendmsg; SimNet and wrappers that read the bytes
/// flatten() the reply.
class Reply {
 public:
  Reply() = default;
  Reply(util::Bytes bytes) : head_(std::move(bytes)) {}  // NOLINT(google-explicit-constructor)
  /// `tail` must lie inside the storage `owner` keeps alive.
  Reply(util::Bytes head, util::BytesView tail, std::shared_ptr<const void> owner)
      : head_(std::move(head)), tail_(tail), owner_(std::move(owner)) {}

  util::BytesView head() const { return head_; }
  util::BytesView tail() const { return tail_; }
  std::size_t size() const { return head_.size() + tail_.size(); }

  /// The reply's bytes in one buffer; a flat reply gives up its head as is.
  util::Bytes flatten() && {
    util::Bytes out = std::move(head_);
    util::append(out, tail_);
    return out;
  }

 private:
  util::Bytes head_;
  util::BytesView tail_;
  std::shared_ptr<const void> owner_;
};

/// A bound service: receives opaque request bytes, returns a Reply.
/// Handlers must be thread-safe; concurrent flows may invoke them from
/// multiple threads (per-host serialization is provided by SimNet).
using MessageHandler =
    std::function<util::Result<Reply>(ServerContext&, util::BytesView)>;

/// Client-side transport handle.  One instance per logical flow (client
/// session); not thread-safe across flows.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends `request` to `ep` and blocks for the response.  UNAVAILABLE when
  /// nothing is bound at `ep` or the link is down.  The reply crossed the
  /// wire from a host we do not control: every byte of it is untrusted
  /// until a verification entry point has vouched for it (DESIGN.md §9).
  /// Blocking: parks the calling flow until the reply arrives; must not be
  /// reached while any mutex is held (tools/conc_check.py, DESIGN.md §13).
  GLOBE_BLOCKING GLOBE_UNTRUSTED virtual util::Result<util::Bytes> call(const Endpoint& ep,
                                                         util::BytesView request) = 0;

  /// Current time of this flow.
  virtual util::SimTime now() const = 0;

  /// Accounts client-side CPU work (e.g. the proxy hashing a page element).
  virtual void charge(CpuOp op, std::uint64_t amount) = 0;

  /// Host this flow originates from.
  virtual HostId local_host() const = 0;

  /// Advances this flow's clock to at least `t` (never backwards, no CPU
  /// accounting).  Used when a request is satisfied by work another flow
  /// completed at `t` — e.g. a coalesced cache fill: the waiter paid no
  /// network or CPU of its own, but cannot observe the result before the
  /// fill that produced it finished.  No-op for wall-clock transports,
  /// where real time already covers the wait.
  virtual void advance_to(util::SimTime t) { (void)t; }
};

}  // namespace globe::net
