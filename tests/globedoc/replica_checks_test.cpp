// One fault, one typed outcome, on every path that verifies replica bytes.
//
// The proxy's direct fetch, the proxy through an edge-tier fill, the tier's
// delayed pull and a peer pull all run the checks of globedoc/verify.hpp,
// so each fault below must give the same code on each of them — a delayed
// pull, which has no caller to answer, counts a failure instead — and no
// path may cache, serve or install the faulty element.
#include <gtest/gtest.h>

#include "cache/tier.hpp"
#include "globedoc/adversary.hpp"
#include "replication/refresher.hpp"
#include "tests/globedoc/operator_view.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::globedoc {
namespace {

using globe::globedoc::testing::WorldFixture;
using util::ErrorCode;

enum class Path { kDirect, kTierFill, kDelayedPull, kPeerPull };
constexpr Path kPaths[] = {Path::kDirect, Path::kTierFill, Path::kDelayedPull,
                           Path::kPeerPull};

const char* path_name(Path path) {
  switch (path) {
    case Path::kDirect: return "direct proxy fetch";
    case Path::kTierFill: return "proxy through a tier fill";
    case Path::kDelayedPull: return "delayed pull";
    case Path::kPeerPull: return "peer pull";
  }
  return "?";
}

enum class Fault { kTampered, kSwapped, kMissing, kExpired };

struct Cell {
  const char* name;  // test name suffix
  Fault fault;
  ErrorCode code;
};

void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.name; }

const Cell kCells[] = {
    {"TamperedBytes", Fault::kTampered, ErrorCode::kHashMismatch},
    {"SwappedElement", Fault::kSwapped, ErrorCode::kWrongElement},
    {"MissingElement", Fault::kMissing, ErrorCode::kNotFound},
    {"ExpiredEntry", Fault::kExpired, ErrorCode::kExpired},
};

// What one path did with the element under test, "index.html".
struct Outcome {
  util::Status status;     // the typed result a caller sees
  std::size_t failed = 0;  // delayed pull: elements that failed
  bool admitted = false;   // cached, served or installed
};

struct ReplicaChecksFixture : WorldFixture {
  void SetUp() override {
    WorldFixture::SetUp();
    // Two elements: a delayed pull scheduled on the decoy then pulls only
    // the element under test.
    owner->object().remove_element("story.txt");
    ASSERT_TRUE(owner->refresh_replicas(*publish_flow, 0, util::seconds(3600))
                    .is_ok());
  }

  Oid oid() { return owner->object().oid(); }
  IntegrityCertificate cert() { return owner->object().snapshot().certificate; }

  void inject(Fault fault) {
    net::MessageHandler honest = server_dispatcher.handler();
    switch (fault) {
      case Fault::kTampered:
        net.unbind(server_ep);
        net.bind(server_ep, tampering_element_attack(honest));
        break;
      case Fault::kSwapped:
        net.unbind(server_ep);
        net.bind(server_ep, element_swap_attack(honest, "logo.gif"));
        break;
      case Fault::kMissing: {
        ReplicaState state = owner->object().snapshot();
        std::erase_if(state.elements, [](const PageElement& e) {
          return e.name == "index.html";
        });
        ASSERT_TRUE(object_server->install_replica_unchecked(state).is_ok());
        break;
      }
      case Fault::kExpired:
        break;  // run() starts the path past the entries' validity
    }
  }

  Outcome run(Path path, Fault fault) {
    auto flow = net.open_flow(client_host);
    if (fault == Fault::kExpired) flow->advance(util::seconds(4000));
    cache::TierConfig tier_config;
    tier_config.delayed_replication = false;
    cache::EdgeCacheTier tier(tier_config);
    Outcome out;
    switch (path) {
      case Path::kDirect:
      case Path::kTierFill: {
        ProxyConfig config = proxy_config(/*identity=*/false);
        if (path == Path::kTierFill) config.edge_cache = &tier;
        GlobeDocProxy proxy(*flow, config);
        auto fetched = proxy.fetch(object_name, "index.html");
        out.status = fetched.status();
        out.admitted = fetched.is_ok() || tier.element_cache().size() > 0;
        break;
      }
      case Path::kDelayedPull: {
        EXPECT_TRUE(tier.replicator().schedule(oid(), server_ep, cert(),
                                               "logo.gif"));
        auto stats = tier.replicator().pump(*flow);
        out.failed = stats.elements_failed;
        out.admitted =
            stats.elements_pulled > 0 || tier.element_cache().size() > 0;
        break;
      }
      case Path::kPeerPull: {
        ObjectServer peer("peer", 91);
        auto pulled =
            replication::pull_replica(*flow, server_ep, oid(), peer, 0);
        out.status = pulled.status();
        out.admitted = testing::hosts(peer, oid());
        break;
      }
    }
    return out;
  }
};

// One instance per fault, each in a fresh world.
struct ReplicaFaultTest : ReplicaChecksFixture,
                          ::testing::WithParamInterface<Cell> {};

TEST_P(ReplicaFaultTest, EveryPathGivesTheSameTypedOutcome) {
  const Cell& cell = GetParam();
  inject(cell.fault);
  for (Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    Outcome out = run(path, cell.fault);
    if (path == Path::kDelayedPull) {
      EXPECT_EQ(out.failed, 1u);
    } else {
      EXPECT_EQ(out.status.code(), cell.code) << out.status.to_string();
    }
    EXPECT_FALSE(out.admitted);
  }
}

INSTANTIATE_TEST_SUITE_P(Faults, ReplicaFaultTest, ::testing::ValuesIn(kCells),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                           return std::string(info.param.name);
                         });

TEST_F(ReplicaChecksFixture, EachVerifiedElementChargesOneSha1OverItsBytes) {
  const net::CpuModel& cpu = net.host(client_host).cpu;
  auto sha1 = [&](const std::string& name) {
    return cpu.cost(net::CpuOp::kSha1,
                    owner->object().element(name)->serialize().size());
  };
  for (Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    auto flow = net.open_flow(client_host);
    util::SimDuration expected = 0;
    util::SimDuration before = 0;
    switch (path) {
      case Path::kDirect:
      case Path::kTierFill: {
        // Bind on a first fetch; the second fetch under the cached binding
        // charges only its element check (a tier miss, so a fill).
        cache::TierConfig tier_config;
        tier_config.delayed_replication = false;
        cache::EdgeCacheTier tier(tier_config);
        ProxyConfig config = proxy_config(/*identity=*/false);
        config.cache_bindings = true;
        if (path == Path::kTierFill) config.edge_cache = &tier;
        GlobeDocProxy proxy(*flow, config);
        ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
        before = flow->client_cpu();
        ASSERT_TRUE(proxy.fetch(object_name, "logo.gif").is_ok());
        expected = sha1("logo.gif");
        break;
      }
      case Path::kDelayedPull: {
        cache::EdgeCacheTier tier(cache::TierConfig{});
        ASSERT_TRUE(tier.replicator().schedule(oid(), server_ep, cert(),
                                               "logo.gif"));
        before = flow->client_cpu();
        EXPECT_EQ(tier.replicator().pump(*flow).elements_pulled, 1u);
        expected = sha1("index.html");
        break;
      }
      case Path::kPeerPull: {
        // Plus the key's self-certifying SHA-1 and the certificate's RSA.
        ObjectServer peer("peer", 91);
        ASSERT_TRUE(
            replication::pull_replica(*flow, server_ep, oid(), peer, 0).is_ok());
        expected =
            cpu.cost(net::CpuOp::kSha1,
                     owner->object().public_key().serialize().size()) +
            cpu.cost(net::CpuOp::kRsaVerify, 1) + sha1("index.html") +
            sha1("logo.gif");
        break;
      }
    }
    EXPECT_EQ(flow->client_cpu() - before, expected);
  }
}

}  // namespace
}  // namespace globe::globedoc
