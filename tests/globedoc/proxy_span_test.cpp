// The proxy's per-fetch span tree: structure matches the Fig. 3 pipeline
// and the security-stage spans sum to the reported security_time (they ARE
// the Fig. 4 numerator — derived, not separately accumulated).  Each stage
// is also the cost-profile frame of the same name, so the profile's stacks
// follow the stitched trace tree.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "cache/tier.hpp"
#include "globedoc/proxy.hpp"
#include "obs/collector.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::globedoc {
namespace {

using globe::globedoc::testing::WorldFixture;

struct ProxySpanFixture : WorldFixture {};

TEST_F(ProxySpanFixture, TraceHasOneSpanPerPipelineStage) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const obs::SpanRecord& trace = result->metrics.trace;
  EXPECT_EQ(trace.name, FetchStage::kFetch);
  for (const char* stage :
       {FetchStage::kResolve, FetchStage::kLocate, FetchStage::kKeyCheck,
        FetchStage::kIdentity, FetchStage::kIntegrityVerify,
        FetchStage::kElementVerify}) {
    const obs::SpanRecord* span = obs::find_span(trace, stage);
    ASSERT_NE(span, nullptr) << "missing span: " << stage;
    EXPECT_GT(span->duration, 0u) << stage;
  }
}

TEST_F(ProxySpanFixture, SecurityStagesSumToReportedSecurityTime) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const auto& m = result->metrics;
  util::SimDuration sum = obs::span_total(m.trace, FetchStage::kKeyCheck) +
                          obs::span_total(m.trace, FetchStage::kIdentity) +
                          obs::span_total(m.trace, FetchStage::kIntegrityVerify) +
                          obs::span_total(m.trace, FetchStage::kElementVerify);
  EXPECT_EQ(sum, m.security_time);
  EXPECT_GT(m.security_time, 0u);
  EXPECT_LT(m.security_time, m.total_time);
}

TEST_F(ProxySpanFixture, WithoutIdentityChecksIdentitySpanIsAbsent) {
  GlobeDocProxy proxy(*client_flow, proxy_config(/*identity=*/false));
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const obs::SpanRecord& trace = result->metrics.trace;
  EXPECT_EQ(obs::find_span(trace, FetchStage::kIdentity), nullptr);
  util::SimDuration sum = obs::span_total(trace, FetchStage::kKeyCheck) +
                          obs::span_total(trace, FetchStage::kIntegrityVerify) +
                          obs::span_total(trace, FetchStage::kElementVerify);
  EXPECT_EQ(sum, result->metrics.security_time);
}

TEST_F(ProxySpanFixture, RootSpanCoversTotalTime) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const auto& m = result->metrics;
  EXPECT_EQ(m.trace.duration, m.total_time);
  // Children are contained in the root's half-open interval.
  for (const auto& child : m.trace.children) {
    EXPECT_GE(child.start, m.trace.start);
    EXPECT_LE(child.start + child.duration, m.trace.start + m.trace.duration);
  }
}

TEST_F(ProxySpanFixture, CachedRefetchSkipsResolveAndLocate) {
  auto config = proxy_config();
  config.cache_bindings = true;
  GlobeDocProxy proxy(*client_flow, config);
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());

  auto result = proxy.fetch(object_name, "story.txt");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const obs::SpanRecord& trace = result->metrics.trace;
  // The binding is cached: no resolve / locate / key-check work this time,
  // but the element itself is still verified.
  EXPECT_EQ(obs::find_span(trace, FetchStage::kResolve), nullptr);
  EXPECT_EQ(obs::find_span(trace, FetchStage::kLocate), nullptr);
  EXPECT_EQ(obs::find_span(trace, FetchStage::kKeyCheck), nullptr);
  ASSERT_NE(obs::find_span(trace, FetchStage::kElementVerify), nullptr);
  EXPECT_EQ(obs::span_total(trace, FetchStage::kElementVerify),
            result->metrics.security_time);
}

TEST_F(ProxySpanFixture, FetchCountersTrackOutcomes) {
  auto& registry = obs::global_registry();
  GlobeDocProxy proxy(*client_flow, proxy_config());
  std::uint64_t ok_before =
      registry.counter("proxy.fetches", {{"outcome", "ok"}}).value();
  std::uint64_t err_before =
      registry.counter("proxy.fetches", {{"outcome", "error"}}).value();

  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  ASSERT_FALSE(proxy.fetch(object_name, "no-such-element").is_ok());

  EXPECT_EQ(registry.counter("proxy.fetches", {{"outcome", "ok"}}).value(),
            ok_before + 1);
  EXPECT_EQ(registry.counter("proxy.fetches", {{"outcome", "error"}}).value(),
            err_before + 1);
}

// --- One stage vocabulary: profile frames are trace spans ---------------

/// Counts every span of `node`'s subtree under its `;`-joined path.
void count_span_paths(const obs::SpanRecord& node, const std::string& parent,
                      std::map<std::string, std::uint64_t>& out) {
  std::string path = parent.empty() ? node.name : parent + ";" + node.name;
  ++out[path];
  for (const auto& child : node.children) count_span_paths(child, path, out);
}

/// Probes that time part of a stage and have no span of their own.
bool is_sub_step(const std::string& frame) {
  static const std::set<std::string> kSubSteps = {
      "cert_verify",  "cache.fill",    "rsa_sign",     "rsa_verify",
      "rsa_encrypt",  "rsa_decrypt",   "sha1",         "merkle_build",
      "merkle_prove", "merkle_verify", "fetch_many.encode",
      "fetch_many.decode"};
  return kSubSteps.count(frame) > 0;
}

TEST_F(ProxySpanFixture, ProfileFramesAreTheStitchedTraceSpans) {
  obs::TraceCollector& collector = obs::global_trace_collector();
  collector.set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
  collector.clear();
  obs::ProfileRegistry profile;

  // One direct fetch with identity checks, one through an edge tier.
  ProxyConfig direct_config = proxy_config();
  direct_config.profile = &profile;
  GlobeDocProxy direct(*client_flow, direct_config);
  auto via_direct = direct.fetch(object_name, "index.html");
  ASSERT_TRUE(via_direct.is_ok()) << via_direct.status().to_string();

  cache::TierConfig tier_config;
  tier_config.delayed_replication = false;
  cache::EdgeCacheTier tier(tier_config);
  ProxyConfig edge_config = proxy_config();
  edge_config.profile = &profile;
  edge_config.edge_cache = &tier;
  GlobeDocProxy edge(*client_flow, edge_config);
  auto via_edge = edge.fetch(object_name, "logo.gif");
  ASSERT_TRUE(via_edge.is_ok()) << via_edge.status().to_string();

  std::map<std::string, std::uint64_t> spans;
  for (const FetchResult* result : {&*via_direct, &*via_edge}) {
    auto trace =
        collector.find(result->metrics.trace_hi, result->metrics.trace_lo);
    ASSERT_TRUE(trace.has_value());
    ASSERT_TRUE(trace->complete);
    count_span_paths(trace->root, "", spans);
  }

  // Every stack, with its sub-step frames elided, names a span path, and
  // the probe fired exactly as often as that span was recorded.
  std::map<std::string, std::uint64_t> frames;
  for (const obs::ProfileSample& s : profile.snapshot().samples) {
    std::string path;
    std::istringstream stack(s.stack);
    for (std::string frame; std::getline(stack, frame, ';');) {
      EXPECT_NE(frame, "proxy.fetch") << s.stack;
      EXPECT_NE(frame, "bind") << s.stack;
      EXPECT_NE(frame, "naming.resolve") << s.stack;
      EXPECT_NE(frame.rfind("server.", 0), 0u) << s.stack;
      if (frame == "cert_verify") {
        EXPECT_EQ(path, "fetch;integrity_verify") << s.stack;
      }
      if (is_sub_step(frame)) continue;
      path += (path.empty() ? "" : ";") + frame;
    }
    if (!is_sub_step(s.leaf)) frames[path] += s.stat.calls;
  }
  EXPECT_EQ(frames["fetch"], 2u);
  EXPECT_EQ(frames["fetch;key_check;rpc:gd.security/1"], 2u);
  EXPECT_EQ(frames["fetch;edge_cache;rpc:gd.access/3"], 1u);
  for (const auto& [path, calls] : frames) {
    EXPECT_EQ(spans[path], calls) << path;
  }
}

}  // namespace
}  // namespace globe::globedoc
