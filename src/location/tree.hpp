// Globe Location Service: a distributed search tree mapping OIDs to replica
// contact addresses (paper §2.1.2).
//
// The world is divided into hierarchical domains (site ⊂ region ⊂ ... ⊂
// root).  A replica's contact address is stored at its site node; every
// enclosing domain up to the root stores a *pointer*: the endpoint of the
// child that leads to it.  Lookups use expanding rings: the client asks its
// local site, then each enclosing domain in turn; the first node holding a
// pointer resolves it downward (server-side recursion along tree edges,
// which is acyclic) and returns the contact addresses.
//
// The Location Service is deliberately *untrusted* (paper §3.1.2): records
// carry no signatures.  A malicious node can cause at most denial of
// service, because clients verify everything they fetch from replicas via
// the self-certifying OID and the integrity certificate.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"
#include "util/bounds_annotations.hpp"
#include "util/bytes.hpp"
#include "util/mutex.hpp"
#include "util/taint_annotations.hpp"

namespace globe::location {

/// RPC method ids under rpc::kLocationService.
enum LocationMethod : std::uint16_t {
  kLookup = 1,         // {oid} -> LookupReply
  kInsert = 2,         // {oid, endpoint} (site nodes only)
  kRemove = 3,         // {oid, endpoint}
  kInsertPointer = 4,  // {oid, child domain}   (tree-internal)
  kRemovePointer = 5,  // {oid, child domain}   (tree-internal)
};

/// Protocol ceiling on replica addresses per lookup reply.  parse() rejects
/// replies claiming more as a protocol error before allocating for them.
inline constexpr std::size_t kMaxLookupAddresses = 64;

struct LookupReply {
  bool found = false;
  std::vector<net::Endpoint> addresses;  // when found
  bool has_parent = false;
  net::Endpoint parent;                  // next ring when not found

  util::Bytes serialize() const;
  static util::Result<LookupReply> parse(util::BytesView data);
};

/// One node of the search tree.  Its one table maps an OID to endpoints:
/// contact addresses at a site, the endpoints of the children leading to a
/// replica at an interior node.
class LocationNode {
 public:
  /// `registry` receives the location.node.* series (labeled with this
  /// node's domain); nullptr means the process-wide obs::global_registry().
  LocationNode(std::string domain, bool is_site,
               obs::MetricsRegistry* registry = nullptr);

  /// Wires the tree: parent endpoint (absent for the root) and named
  /// children (interior nodes).
  void set_parent(const net::Endpoint& parent);
  void add_child(const std::string& child_domain, const net::Endpoint& child);

  void register_with(rpc::ServiceDispatcher& dispatcher);

  /// OIDs this node holds records for (addresses at a site, pointers at
  /// an interior node).
  std::size_t records_stored() const GLOBE_EXCLUDES(mutex_);

 private:
  /// One entry of records_, as a mutation names it.
  struct Record {
    util::Bytes oid;
    net::Endpoint entry;
  };

  // Wire payloads from arbitrary callers: tainted at entry.  The stored
  // records stay untrusted by design (§3.1.2) — there is no sanitizer here,
  // and no trusted sink either: consumers re-verify whatever they fetch.
  util::Result<util::Bytes> handle_lookup(net::ServerContext& ctx,
                                          GLOBE_UNTRUSTED util::BytesView payload);
  /// kInsert and kInsertPointer: the one way an entry enters records_.
  util::Result<util::Bytes> handle_insert(net::ServerContext& ctx, std::uint16_t method,
                                          GLOBE_UNTRUSTED util::BytesView payload);
  /// kRemove and kRemovePointer: the one way an entry leaves records_.
  util::Result<util::Bytes> handle_remove(net::ServerContext& ctx, std::uint16_t method,
                                          GLOBE_UNTRUSTED util::BytesView payload);

  /// Decodes a mutation: {oid, endpoint} for kInsert/kRemove, which only a
  /// site takes (an interior node refuses them before decoding); {oid,
  /// child domain} for the pointer methods, whose child must be one of
  /// children_ and is mapped to its endpoint.
  util::Result<Record> read_record(std::uint16_t method,
                                   GLOBE_UNTRUSTED util::BytesView payload) const;

  /// Sends `method` (kInsertPointer or kRemovePointer) for `oid`, naming
  /// this domain, to the parent; ok at the root.
  util::Status tell_parent(net::ServerContext& ctx, std::uint16_t method,
                           const util::Bytes& oid) const;

  std::string domain_;
  bool is_site_;
  bool has_parent_ = false;
  net::Endpoint parent_;
  std::map<std::string, net::Endpoint> children_ GLOBE_BOUNDED;

  mutable util::Mutex mutex_;
  // OID -> contact addresses at a site, child endpoints at an interior node.
  std::map<util::Bytes, std::set<net::Endpoint>> records_ GLOBE_GUARDED_BY(mutex_);
  // Registry series, labeled by this node's domain.
  obs::Counter* lookups_counter_;
  obs::Counter* lookup_hits_;
  obs::Counter* inserts_counter_;
  obs::Counter* removes_counter_;
};

/// Client-side expanding-ring lookup and replica (de)registration.
class LocationClient {
 public:
  /// `registry` receives the location.client.* series; nullptr means the
  /// process-wide obs::global_registry().
  LocationClient(net::Transport& transport, net::Endpoint local_site,
                 obs::MetricsRegistry* registry = nullptr);

  /// Expanding-ring search from the local site.  NOT_FOUND when the OID is
  /// unknown all the way to the root.  Location records carry no signatures
  /// (paper §3.1.2): the addresses returned are untrusted hints that the
  /// caller may only dial speculatively — every byte fetched from them must
  /// still pass the self-certifying/integrity checks.
  GLOBE_UNTRUSTED util::Result<std::vector<net::Endpoint>> lookup(util::BytesView oid);

  /// Registers / deregisters a contact address at a specific site node.
  util::Status insert(const net::Endpoint& site, util::BytesView oid,
                      const net::Endpoint& address);
  util::Status remove(const net::Endpoint& site, util::BytesView oid,
                      const net::Endpoint& address);

  /// Rings climbed by the last lookup (1 = answered at the local site).
  std::size_t last_rings() const { return last_rings_; }

 private:
  net::Transport* transport_;
  net::Endpoint local_site_;
  std::size_t last_rings_ = 0;
  obs::Counter* lookups_counter_;
  obs::Histogram* rings_histogram_;
};

}  // namespace globe::location
