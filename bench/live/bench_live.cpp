// bench_live — wall-clock benchmark of GlobeDoc's live loopback path.
//
// One process starts the whole fleet on 127.0.0.1 net::TcpServers:
//   * a naming::NamingServer serving the root zone and a delegated vu.nl;
//   * a location tree: root with sites "a" and "b" (odd documents live at b,
//     every proxy's local site is a, so half the lookups climb a ring and
//     cost the root a nested call down to b);
//   * one globedoc::ObjectServer hosting every document;
//   * one GlobeDocProxy per browser behind a ProxyHttpServer on its own port.
// Browsers are closed loops (the paper's proxy serves one user, whose browser
// waits for each element) sending hybrid-URL GETs through http::HttpClient,
// so each fetch crosses browser → proxy → naming, location, object server.
//
// Everything is timed from outside, at public seams; nothing in src/ is
// instrumented for this binary.  With --trace 1 the binary also decorates
// every proxy and server-to-server Transport, wraps every server handler,
// collects the proxies' stage spans through a bench-owned TraceCollector and
// reads bench-owned metrics/profile registries.  A traced run splits its
// measurement into an untraced half (wrappers inert) and a traced half, so
// the tracing overhead is reported rather than hidden.
//
// Usage:
//   bench_live --workload NAME [--seed N] [--seconds S] [--trace 0|1]
// The last line of stdout is one JSON object: build stamp, operation counts,
// error samples and every metric as {"value", "unit"}.  The process exits 1
// when any operation failed or returned wrong content, 2 on usage errors and
// 3 when the watchdog declares the workload stalled.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/tier.hpp"
#include "crypto/drbg.hpp"
#include "globedoc/owner.hpp"
#include "globedoc/proxy.hpp"
#include "globedoc/proxy_http.hpp"
#include "globedoc/server.hpp"
#include "http/client.hpp"
#include "location/tree.hpp"
#include "naming/service.hpp"
#include "net/tcp.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "rpc/rpc.hpp"
#include "util/thread_pool.hpp"

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

using namespace globe;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double millis_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

// ---------------------------------------------------------------------------
// Workloads

struct ElementSpec {
  const char* name;
  const char* content_type;
  std::size_t bytes;
};

struct Workload {
  const char* name;
  int browsers;
  int documents;
  std::vector<ElementSpec> elements;  // every document carries all of them
  bool cache_bindings;
  bool edge_tier;
  double zipf_s;          // 0 = uniform over (document, element) pairs
  double updates_per_s;   // owner open loop; 0 = no writer
};

// Why each workload exists is recorded in README.md; the short version:
// cold_browse is RPC- and RSA-verify-bound (96 documents overflow the
// proxy's 64-entry certificate memo), warm_large is SHA-1- and copy-bound,
// edge_hot is the shared edge tier under a Zipf crowd, update_mix puts an
// owner's re-sign + update_replica stream beside cached-binding readers.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"cold_browse", 4, 96, {{"index.html", "text/html", 1024}}, false, false, 0, 0},
      {"warm_large", 4, 16,
       {{"data.bin", "application/octet-stream", 256 * 1024}}, true, false, 0, 0},
      {"edge_hot", 4, 64,
       {{"index.html", "text/html", 1024},
        {"big.bin", "application/octet-stream", 64 * 1024}},
       true, true, 1.0, 0},
      {"update_mix", 3, 32, {{"news.html", "text/html", 16 * 1024}}, true, false, 0, 40},
  };
  return kAll;
}

// Key material never depends on --seed: every seed pays for the same key
// generation, so setup_s compares across seeds.
constexpr std::uint64_t kKeySeed = 0x6c697665'6b657973ull;
constexpr std::size_t kKeyBits = 1024;
constexpr util::SimDuration kValidity = util::seconds(6 * 3600);
// Worker threads per infrastructure server.  net::TcpServer pins one worker
// per open connection, so each server needs one more worker than the
// connections the workload keeps open (checked in Fleet).
constexpr std::size_t kServerWorkers = 6;
constexpr std::size_t kFrontWorkers = 2;
constexpr std::size_t kSpanCapacity = 8192;
// Untimed load before the measurement window.
constexpr double kWarmupS = 3;
// setup_s is the median of this many set-ups of the whole fleet.
constexpr int kSetups = 3;

std::string doc_name(int doc) { return "d" + std::to_string(doc) + ".vu.nl"; }

// ---------------------------------------------------------------------------
// Seeded content

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return splitmix(state_); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

// Element content is "v=<10 digits>\n" followed by a body drawn from the
// seed.  The version prefix lets update_mix readers check which version they
// were served; static workloads serve version 1 throughout.
constexpr std::size_t kVersionPrefix = 13;

std::string version_prefix(std::uint64_t version) {
  char buf[kVersionPrefix + 1];
  std::snprintf(buf, sizeof(buf), "v=%010llu\n",
                static_cast<unsigned long long>(version));
  return std::string(buf, kVersionPrefix);
}

util::Bytes make_body(std::uint64_t seed, int doc, int element, std::size_t bytes) {
  std::uint64_t state = seed * 0x100000001b3ull ^ (std::uint64_t(doc) << 20) ^
                        std::uint64_t(element);
  util::Bytes body(bytes - kVersionPrefix);
  for (std::size_t i = 0; i < body.size(); i += 8) {
    std::uint64_t word = splitmix(state);
    std::memcpy(body.data() + i, &word, std::min<std::size_t>(8, body.size() - i));
  }
  return body;
}

util::Bytes versioned(std::uint64_t version, const util::Bytes& body) {
  util::Bytes out = util::to_bytes(version_prefix(version));
  util::append(out, body);
  return out;
}

// ---------------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  auto k = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / v.size();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Latencies in fixed memory: counts in buckets 0.2% wide from 1 us to 100 s.
// Keeping every sample would grow the process by 8 bytes per request, and
// that growth would show in peak_rss_mb in proportion to throughput.
class LatencyLog {
 public:
  void add(double ms) {
    std::size_t i = 0;
    if (ms > kMinMs) {
      i = std::min(kBuckets - 1, static_cast<std::size_t>(std::log(ms / kMinMs) / kLogWidth));
    }
    ++counts_[i];
    ++count_;
    sum_ms_ += ms;
  }

  void merge(const LatencyLog& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ms_ += o.sum_ms_;
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? sum_ms_ / count_ : 0; }

  // The sample of rank round(q * (count - 1)), as the midpoint of its
  // bucket; 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0;
    auto rank = static_cast<std::uint64_t>(q * (count_ - 1) + 0.5);
    std::uint64_t seen = 0;
    std::size_t i = 0;
    while (seen + counts_[i] <= rank) seen += counts_[i++];
    return kMinMs * std::exp((i + 0.5) * kLogWidth);
  }

 private:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kLogWidth = 0.002;
  static constexpr std::size_t kBuckets = 9211;  // ln(100 s / 1 us) / kLogWidth
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t count_ = 0;
  double sum_ms_ = 0;
};

// ---------------------------------------------------------------------------
// Layer recording (--trace 1 only)

enum Service { kNaming, kLocation, kAccess, kSecurity, kAdmin, kOtherService, kServices };
constexpr std::array<const char*, kServices> kServiceNames = {
    "naming", "location", "access", "security", "admin", "other"};

// The service id of an RPC request, after the optional trace header.
Service classify(util::BytesView request) {
  auto u16_at = [&](std::size_t i) { return (request[i] << 8) | request[i + 1]; };
  std::size_t offset = 0;
  if (request.size() >= 2 && u16_at(0) == rpc::kTraceMarker) {
    offset = 3 + obs::TraceContext::kWireSize;  // marker, version byte, context
  }
  if (request.size() < offset + 2) return kOtherService;
  switch (u16_at(offset)) {
    case rpc::kNamingService: return kNaming;
    case rpc::kLocationService: return kLocation;
    case rpc::kGlobeDocAccess: return kAccess;
    case rpc::kGlobeDocSecurity: return kSecurity;
    case rpc::kGlobeDocAdmin: return kAdmin;
    default: return kOtherService;
  }
}

// RPC and handler times of the traced window.
struct LayerSamples {
  std::array<std::vector<double>, kServices> call_us, server_us;
  std::uint64_t nested_calls = 0;
  std::uint64_t reply_bytes = 0;
  std::vector<double> proxy_us;  // ProxyHttpServer handler

  void merge(const LayerSamples& o) {
    for (int s = 0; s < kServices; ++s) {
      call_us[s].insert(call_us[s].end(), o.call_us[s].begin(), o.call_us[s].end());
      server_us[s].insert(server_us[s].end(), o.server_us[s].begin(), o.server_us[s].end());
    }
    nested_calls += o.nested_calls;
    reply_bytes += o.reply_bytes;
    proxy_us.insert(proxy_us.end(), o.proxy_us.begin(), o.proxy_us.end());
  }
};

// One thread's samples; merged once the traced window closes.  The mutex is
// uncontended except against that merge.
struct Recorder {
  std::mutex mutex;
  LayerSamples samples;
};

class LayerTrace {
 public:
  std::atomic<bool> on{false};

  Recorder& local() {
    thread_local Recorder* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard lock(mutex_);
      recorders_.push_back(std::make_unique<Recorder>());
      mine = recorders_.back().get();
    }
    return *mine;
  }

  LayerSamples merged() {
    LayerSamples out;
    std::lock_guard lock(mutex_);
    for (auto& r : recorders_) {
      std::lock_guard rlock(r->mutex);
      out.merge(r->samples);
    }
    return out;
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<Recorder>> recorders_;
};

LayerTrace g_layers;

// Decorates a Transport: times every call by service.  Inert while the
// traced window is closed.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, bool nested) : inner_(&inner), nested_(nested) {}

  util::Result<util::Bytes> call(const net::Endpoint& ep,
                                 util::BytesView request) override {
    if (!g_layers.on.load(std::memory_order_relaxed)) return inner_->call(ep, request);
    auto start = Clock::now();
    auto reply = inner_->call(ep, request);
    double us = micros_between(start, Clock::now());
    Recorder& r = g_layers.local();
    std::lock_guard lock(r.mutex);
    r.samples.call_us[classify(request)].push_back(us);
    if (nested_) ++r.samples.nested_calls;
    if (reply.is_ok()) r.samples.reply_bytes += reply->size();
    return reply;
  }
  util::SimTime now() const override { return inner_->now(); }
  void charge(net::CpuOp op, std::uint64_t amount) override { inner_->charge(op, amount); }
  net::HostId local_host() const override { return inner_->local_host(); }
  void advance_to(util::SimTime t) override { inner_->advance_to(t); }

 private:
  net::Transport* inner_;
  bool nested_;
};

// Server context whose transport() is timed, so server-to-server calls
// (the location root resolving down to site b) are counted as nested.
class TimedContext final : public net::ServerContext {
 public:
  explicit TimedContext(net::ServerContext& inner)
      : inner_(inner), transport_(inner.transport(), /*nested=*/true) {}
  util::SimTime now() const override { return inner_.now(); }
  void charge(net::CpuOp op, std::uint64_t amount) override { inner_.charge(op, amount); }
  net::HostId local_host() const override { return inner_.local_host(); }
  net::Transport& transport() override { return transport_; }

 private:
  net::ServerContext& inner_;
  TimedTransport transport_;
};

enum class HandlerKind { kRpc, kHttpFront };

net::MessageHandler timed_handler(net::MessageHandler inner, HandlerKind kind) {
  return [inner = std::move(inner), kind](net::ServerContext& ctx,
                                          util::BytesView request) {
    if (!g_layers.on.load(std::memory_order_relaxed)) return inner(ctx, request);
    TimedContext timed(ctx);
    auto start = Clock::now();
    auto reply = inner(timed, request);
    double us = micros_between(start, Clock::now());
    Recorder& r = g_layers.local();
    std::lock_guard lock(r.mutex);
    if (kind == HandlerKind::kHttpFront) {
      r.samples.proxy_us.push_back(us);
    } else {
      r.samples.server_us[classify(request)].push_back(us);
    }
    return reply;
  };
}

// ---------------------------------------------------------------------------
// Watchdog: a stalled fleet fails the run instead of hanging it.

class Watchdog {
 public:
  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(double seconds, std::string phase) {
    std::lock_guard lock(mutex_);
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    phase_ = std::move(phase);
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    while (!done_) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      if (!done_ && Clock::now() > deadline_) {
        std::fprintf(stderr, "bench_live: stalled during %s\n", phase_.c_str());
        std::fflush(stderr);
        std::_Exit(3);
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  Clock::time_point deadline_ = Clock::time_point::max();
  std::string phase_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// The fleet

struct Document {
  std::unique_ptr<globedoc::ObjectOwner> owner;
  std::vector<util::Bytes> bodies;          // per element, after the prefix
  std::atomic<std::uint64_t> committed{1};  // acknowledged by the object server
  std::atomic<std::uint64_t> issued{1};     // highest version ever sent
};

net::Endpoint local_ep(std::uint16_t port) { return net::Endpoint{net::HostId{0}, port}; }

// RSA key generation dominates set-up.  Every key comes from its own fixed
// seed and the keys are generated on all cores, one task per key, so a core
// the host slows down takes fewer keys instead of holding up the rest.
std::vector<crypto::RsaKeyPair> generate_keys(std::size_t count) {
  util::ThreadPool pool(nproc());
  std::vector<std::future<crypto::RsaKeyPair>> pending;
  for (std::size_t i = 0; i < count; ++i) {
    pending.push_back(pool.submit([i] {
      auto rng = crypto::HmacDrbg::from_seed(kKeySeed + i);
      return crypto::rsa_generate(kKeyBits, rng);
    }));
  }
  std::vector<crypto::RsaKeyPair> keys;
  for (auto& key : pending) keys.push_back(key.get());
  return keys;
}

class Fleet {
 public:
  Fleet(const Workload& w, std::uint64_t seed, bool traced)
      : w_(w),
        traced_(traced),
        spans_(kSpanCapacity),
        naming_(&registry_),
        loc_root_("root", false, &registry_),
        site_a_("a", true, &registry_),
        site_b_("b", true, &registry_),
        object_("replica", seed ^ 0x5eed, &registry_, &profile_) {
    spans_.set_policy(obs::TailSamplingPolicy{0, 1});
    std::size_t owner_conns = w.updates_per_s > 0 ? 1 : 0;
    auto browsers = static_cast<std::size_t>(w.browsers);

    // Keys 0-2: root zone, vu.nl zone, owner admin credentials; then one
    // per document.
    std::vector<crypto::RsaKeyPair> keys =
        generate_keys(3 + static_cast<std::size_t>(w.documents));
    const crypto::RsaKeyPair& root_keys = keys[0];
    const crypto::RsaKeyPair& vu_keys = keys[1];
    const crypto::RsaKeyPair& admin_keys = keys[2];
    naming_anchor_ = root_keys.pub;

    util::SimTime now = util::RealClock().now();
    auto root_zone = std::make_shared<naming::ZoneAuthority>("", root_keys);
    vu_zone_ = std::make_shared<naming::ZoneAuthority>("vu.nl", vu_keys);
    naming_.add_zone(root_zone);
    naming_.add_zone(vu_zone_);
    naming_.register_with(d_naming_);
    naming_tcp_ = serve(d_naming_, browsers);
    root_zone->delegate("vu.nl", vu_keys.pub, local_ep(naming_tcp_->port()),
                        now + kValidity);

    loc_root_.register_with(d_root_);
    site_a_.register_with(d_a_);
    site_b_.register_with(d_b_);
    root_tcp_ = serve(d_root_, browsers);
    a_tcp_ = serve(d_a_, browsers);
    b_tcp_ = serve(d_b_, browsers);  // transient nested calls from the root
    loc_root_.add_child("a", local_ep(a_tcp_->port()));
    loc_root_.add_child("b", local_ep(b_tcp_->port()));
    site_a_.set_parent(local_ep(root_tcp_->port()));
    site_b_.set_parent(local_ep(root_tcp_->port()));

    object_.authorize(admin_keys.pub);
    object_.register_with(d_object_);
    object_tcp_ = serve(d_object_, browsers + owner_conns);

    // Documents: content, name, signature, replica, location record.
    net::TcpTransport setup_transport;
    docs_.reserve(static_cast<std::size_t>(w.documents));
    for (int d = 0; d < w.documents; ++d) {
      globedoc::GlobeDocObject object(std::move(keys[3 + static_cast<std::size_t>(d)]));
      auto doc = std::make_unique<Document>();
      for (std::size_t e = 0; e < w.elements.size(); ++e) {
        const ElementSpec& spec = w.elements[e];
        doc->bodies.push_back(make_body(seed, d, static_cast<int>(e), spec.bytes));
        object.put_element({spec.name, spec.content_type, versioned(1, doc->bodies.back())});
      }
      doc->owner = std::make_unique<globedoc::ObjectOwner>(std::move(object), admin_keys);
      doc->owner->register_name(*vu_zone_, doc_name(d), now + kValidity);
      auto state = doc->owner->sign_and_snapshot(now, kValidity);
      net::Endpoint site = local_ep((d % 2 == 1 ? b_tcp_ : a_tcp_)->port());
      util::Status published = doc->owner->publish_replica(
          setup_transport, local_ep(object_tcp_->port()), site, state);
      if (!published.is_ok()) {
        throw std::runtime_error("publish " + doc_name(d) + ": " + published.to_string());
      }
      docs_.push_back(std::move(doc));
    }

    if (w.edge_tier) {
      // 1 MB against a 4.2 MB working set leaves ~20% of requests as 64 KB
      // fills, so fetch_p90_ms sits inside the fill mode.  With 2 MB the
      // 90th percentile fell in the gap between hits and fills and moved by
      // ±50% between identical runs.
      cache::TierConfig tier;
      tier.cache.max_bytes = 1u << 20;
      tier.delayed_replication = false;
      tier.registry = &registry_;
      tier_ = std::make_unique<cache::EdgeCacheTier>(tier);
    }
    for (int b = 0; b < w.browsers; ++b) {
      Front front;
      front.tcp_transport = std::make_unique<net::TcpTransport>();
      net::Transport* upstream = front.tcp_transport.get();
      if (traced_) {
        front.timed = std::make_unique<TimedTransport>(*upstream, /*nested=*/false);
        upstream = front.timed.get();
      }
      globedoc::ProxyConfig config;
      config.naming_root = local_ep(naming_tcp_->port());
      config.naming_anchor = naming_anchor_;
      config.location_site = local_ep(a_tcp_->port());
      config.cache_bindings = w.cache_bindings;
      config.edge_cache = tier_.get();
      config.registry = &registry_;
      config.profile = &profile_;
      if (traced_) config.trace_collector = &spans_;
      front.http = std::make_unique<globedoc::ProxyHttpServer>(
          std::make_unique<globedoc::GlobeDocProxy>(*upstream, config));
      net::MessageHandler handler = front.http->handler();
      if (traced_) handler = timed_handler(std::move(handler), HandlerKind::kHttpFront);
      check_workers(kFrontWorkers, 1, "proxy front");
      front.tcp = std::make_unique<net::TcpServer>(0, std::move(handler), kFrontWorkers);
      fronts_.push_back(std::move(front));
    }
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const Workload& workload() const { return w_; }
  net::Endpoint front(int browser) const {
    return local_ep(fronts_[static_cast<std::size_t>(browser)].tcp->port());
  }
  Document& doc(int d) { return *docs_[static_cast<std::size_t>(d)]; }
  obs::MetricsRegistry& registry() { return registry_; }
  obs::ProfileRegistry& profile() { return profile_; }
  obs::TraceCollector& spans() { return spans_; }

 private:
  struct Front {
    std::unique_ptr<net::TcpTransport> tcp_transport;
    std::unique_ptr<TimedTransport> timed;
    std::unique_ptr<globedoc::ProxyHttpServer> http;
    std::unique_ptr<net::TcpServer> tcp;  // declared last: stops first
  };

  static void check_workers(std::size_t workers, std::size_t connections,
                            const char* server) {
    // net::TcpServer serves each connection on one pool worker until the
    // peer hangs up; with no spare worker a new connection waits forever.
    if (workers < connections + 1) {
      throw std::runtime_error(std::string(server) + ": " + std::to_string(workers) +
                               " workers for " + std::to_string(connections) +
                               " connections");
    }
  }

  std::unique_ptr<net::TcpServer> serve(rpc::ServiceDispatcher& dispatcher,
                                        std::size_t connections) {
    check_workers(kServerWorkers, connections, "infrastructure server");
    net::MessageHandler handler = dispatcher.handler();
    if (traced_) handler = timed_handler(std::move(handler), HandlerKind::kRpc);
    return std::make_unique<net::TcpServer>(0, std::move(handler), kServerWorkers);
  }

  const Workload& w_;
  bool traced_;
  obs::MetricsRegistry registry_;
  obs::ProfileRegistry profile_;
  obs::TraceCollector spans_;
  crypto::RsaPublicKey naming_anchor_;
  std::shared_ptr<naming::ZoneAuthority> vu_zone_;
  naming::NamingServer naming_;
  location::LocationNode loc_root_, site_a_, site_b_;
  globedoc::ObjectServer object_;
  std::unique_ptr<cache::EdgeCacheTier> tier_;
  rpc::ServiceDispatcher d_naming_, d_root_, d_a_, d_b_, d_object_;
  std::vector<std::unique_ptr<Document>> docs_;
  // Servers after everything their handlers touch, so they stop first.
  std::unique_ptr<net::TcpServer> naming_tcp_, root_tcp_, a_tcp_, b_tcp_, object_tcp_;
  std::vector<Front> fronts_;
};

// ---------------------------------------------------------------------------
// Load generation

// Measurement windows: one, or with --trace an untraced and a traced one.
constexpr int kWindows = 2;

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t conflicts = 0;      // reloads after an update race, see fetch_and_check
  std::vector<std::string> errors;  // first few, for the report

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(what));
  }
};

// What one load thread records: latencies (ms) of the operations that began
// inside each window, and its tally over the whole run.  Each thread owns
// its log; the controller reads the logs after joining the threads.
struct ThreadLog {
  std::array<LatencyLog, kWindows> latency_ms;
  std::array<LatencyLog, kWindows> late_ms;  // owner only: start - due
  Tally tally;
};

// Window bookkeeping shared by the controller and the load threads.
struct Phase {
  std::atomic<int> window{-1};  // -1 = warm-up
  std::atomic<int> ready{0};    // load threads past their binding warm-up
  std::atomic<bool> stop{false};
};

// The load threads, stopped and joined on every way out of the load.
class LoadThreads {
 public:
  explicit LoadThreads(Phase& phase) : phase_(phase) {}
  ~LoadThreads() { join(); }
  LoadThreads(const LoadThreads&) = delete;
  LoadThreads& operator=(const LoadThreads&) = delete;

  template <typename... Args>
  void spawn(Args&&... args) {
    threads_.emplace_back(std::forward<Args>(args)...);
  }
  int count() const { return static_cast<int>(threads_.size()); }
  void join() {
    phase_.stop.store(true);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  Phase& phase_;
  std::vector<std::thread> threads_;
};

// Draws (document, element) pairs: uniform, or Zipf(s) over the pairs.
// Zipf rank r is element r % E of the (r / E)-th document of a seeded
// permutation: the seed picks which documents are hot, never how many bytes
// the hot set holds, so the hit ratio is the same under every seed.
class Chooser {
 public:
  Chooser(const Workload& w, std::uint64_t seed)
      : elements_(w.elements.size()),
        items_(static_cast<std::size_t>(w.documents) * elements_) {
    if (w.zipf_s <= 0) return;
    double total = 0;
    for (std::size_t r = 1; r <= items_; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), w.zipf_s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    docs_.resize(static_cast<std::size_t>(w.documents));
    for (std::size_t i = 0; i < docs_.size(); ++i) docs_[i] = static_cast<int>(i);
    Rng rng(seed ^ 0x7a697066ull);
    for (std::size_t i = docs_.size() - 1; i > 0; --i) {
      std::swap(docs_[i], docs_[rng.below(i + 1)]);
    }
  }

  std::pair<int, int> draw(Rng& rng) const {
    if (cdf_.empty()) {
      std::size_t item = rng.below(items_);
      return {static_cast<int>(item / elements_), static_cast<int>(item % elements_)};
    }
    auto rank = std::min<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform()) - cdf_.begin(),
        items_ - 1);
    return {docs_[rank / elements_], static_cast<int>(rank % elements_)};
  }

 private:
  std::size_t elements_;
  std::size_t items_;
  std::vector<double> cdf_;
  std::vector<int> docs_;
};

// One fetch and its correctness check: status 200, a version at least the
// one committed when the request started and at most the newest issued, and
// a body byte-identical to that version's content.
//
// The proxy reads a document's integrity certificate and its element in two
// RPCs.  When an update of that document lands between them, the element
// fails the check against the older certificate and the proxy answers 403.
// The browser then reloads once, as a user shown that page would; the
// operation counts in tally.conflicts, and fails only if the reload fails
// too.  A 403 with no update of the document in flight is a failure.
bool fetch_and_check(http::HttpClient& client, const net::Endpoint& front, Fleet& fleet,
                     int d, int e, Tally& tally) {
  Document& doc = fleet.doc(d);
  const Workload& w = fleet.workload();
  std::string url = "http://globe/" + doc_name(d) + "/" + w.elements[e].name;
  std::uint64_t floor = doc.committed.load(std::memory_order_acquire);
  ++tally.attempted;
  auto response = client.get(front, url);
  if (response.is_ok() && response->status == 403 &&
      doc.issued.load(std::memory_order_acquire) > floor) {
    ++tally.conflicts;
    floor = doc.committed.load(std::memory_order_acquire);
    response = client.get(front, url);
  }
  if (!response.is_ok()) {
    tally.fail(url + ": " + response.status().to_string());
    return false;
  }
  if (response->status != 200) {
    tally.fail(url + ": HTTP " + std::to_string(response->status));
    return false;
  }
  const util::Bytes& body = response->body;
  const util::Bytes& expected = doc.bodies[static_cast<std::size_t>(e)];
  std::uint64_t version = 0;
  bool shaped = body.size() == kVersionPrefix + expected.size() && body[0] == 'v' &&
                body[1] == '=' && body[kVersionPrefix - 1] == '\n';
  for (std::size_t i = 2; shaped && i < kVersionPrefix - 1; ++i) {
    if (body[i] < '0' || body[i] > '9') shaped = false;
    version = version * 10 + (body[i] - '0');
  }
  if (!shaped || std::memcmp(body.data() + kVersionPrefix, expected.data(),
                             expected.size()) != 0) {
    tally.fail(url + ": body differs from the published content");
    return false;
  }
  std::uint64_t ceiling = doc.issued.load(std::memory_order_acquire);
  if (version < floor || version > ceiling) {
    tally.fail(url + ": version " + std::to_string(version) + " outside [" +
               std::to_string(floor) + ", " + std::to_string(ceiling) + "]");
    return false;
  }
  return true;
}

void run_browser(Fleet& fleet, int browser, std::uint64_t seed, const Chooser& chooser,
                 Phase& phase, ThreadLog& log) {
  const Workload& w = fleet.workload();
  net::TcpTransport transport;
  http::HttpClient client(transport);
  net::Endpoint front = fleet.front(browser);
  // Cached-binding workloads time warm bindings: bind every document first.
  if (w.cache_bindings) {
    for (int d = 0; d < w.documents; ++d) {
      (void)fetch_and_check(client, front, fleet, d, 0, log.tally);
    }
  }
  ++phase.ready;
  Rng rng(seed * 0x2545f4914f6cdd1dull + std::uint64_t(browser) + 1);
  while (!phase.stop.load(std::memory_order_relaxed)) {
    auto [d, e] = chooser.draw(rng);
    int window = phase.window.load(std::memory_order_acquire);
    auto start = Clock::now();
    bool ok = fetch_and_check(client, front, fleet, d, e, log.tally);
    if (ok && window >= 0) log.latency_ms[window].add(millis_between(start, Clock::now()));
  }
}

// Owner open loop: update k is due at start + k/rate; it rewrites one
// document's element (round robin), re-signs and pushes update_replica.
// Latency runs from the due time, so a stalled update also delays the ones
// queued behind it.
void run_owner(Fleet& fleet, bool traced, Phase& phase, ThreadLog& log) {
  const Workload& w = fleet.workload();
  obs::ProfileRegistryScope profile_scope(&fleet.profile());
  net::TcpTransport tcp;
  TimedTransport timed(tcp, /*nested=*/false);
  net::Transport& transport = traced ? static_cast<net::Transport&>(timed) : tcp;
  auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / w.updates_per_s));
  ++phase.ready;
  auto start = Clock::now();
  for (std::uint64_t k = 0; !phase.stop.load(std::memory_order_relaxed); ++k) {
    auto due = start + period * static_cast<Clock::rep>(k);
    std::this_thread::sleep_until(due);
    if (phase.stop.load(std::memory_order_relaxed)) break;
    int window = phase.window.load(std::memory_order_acquire);
    auto begun = Clock::now();
    int d = static_cast<int>(k % static_cast<std::uint64_t>(w.documents));
    Document& doc = fleet.doc(d);
    std::uint64_t version = doc.issued.load(std::memory_order_relaxed) + 1;
    doc.issued.store(version, std::memory_order_release);
    doc.owner->object().put_element(
        {w.elements[0].name, w.elements[0].content_type, versioned(version, doc.bodies[0])});
    ++log.tally.attempted;
    util::Status pushed =
        doc.owner->refresh_replicas(transport, util::RealClock().now(), kValidity);
    auto end = Clock::now();
    if (!pushed.is_ok()) {
      log.tally.fail("update " + doc_name(d) + ": " + pushed.to_string());
      continue;
    }
    doc.committed.store(version, std::memory_order_release);
    if (window >= 0) {
      log.latency_ms[window].add(millis_between(due, end));
      log.late_ms[window].add(millis_between(due, begun));
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), std::isfinite(value) ? value : 0, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(undefined_behavior_sanitizer)
  return "undefined";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

double counter_sum(const obs::Snapshot& snap, const std::string& name,
                   const obs::Labels& labels = {}) {
  double total = 0;
  for (const auto& s : snap.samples) {
    if (s.name != name || s.kind == obs::MetricSample::Kind::kHistogram) continue;
    bool match = std::all_of(labels.begin(), labels.end(), [&](const auto& want) {
      return std::find(s.labels.begin(), s.labels.end(), want) != s.labels.end();
    });
    if (match) total += s.value;
  }
  return total;
}

const obs::MetricSample* histogram(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& s : snap.samples) {
    if (s.name == name && s.kind == obs::MetricSample::Kind::kHistogram) return &s;
  }
  return nullptr;
}

struct ProbeTotals {
  double calls = 0, wall_us = 0;
};

ProbeTotals probe(const obs::ProfileSnapshot& snap, const std::string& leaf) {
  ProbeTotals t;
  for (const auto& s : snap.samples) {
    if (s.leaf != leaf) continue;
    t.calls += static_cast<double>(s.stat.calls);
    t.wall_us += static_cast<double>(s.stat.wall_ns) / 1000.0;
  }
  return t;
}

// Stage-span durations of the proxies' fetch traces (FetchStage names).
struct StageSamples {
  std::map<std::string, std::vector<double>> stage_us;
  double security_us = 0, total_us = 0;

  void add(const std::vector<obs::StitchedTrace>& traces) {
    static const char* kStages[] = {
        globedoc::FetchStage::kResolve,         globedoc::FetchStage::kLocate,
        globedoc::FetchStage::kKeyCheck,        globedoc::FetchStage::kIntegrityVerify,
        globedoc::FetchStage::kElementVerify,   globedoc::FetchStage::kEdgeCache};
    auto us = [](util::SimDuration d) { return util::to_millis(d) * 1000.0; };
    for (const auto& t : traces) {
      if (t.root.name != globedoc::FetchStage::kFetch) continue;
      for (const char* stage : kStages) {
        if (obs::find_span(t.root, stage) != nullptr) {
          stage_us[stage].push_back(us(obs::span_total(t.root, stage)));
        }
      }
      security_us += us(obs::span_total(t.root, globedoc::FetchStage::kKeyCheck) +
                        obs::span_total(t.root, globedoc::FetchStage::kIdentity) +
                        obs::span_total(t.root, globedoc::FetchStage::kIntegrityVerify) +
                        obs::span_total(t.root, globedoc::FetchStage::kElementVerify));
      total_us += us(t.root.duration);
    }
  }
  double p50(const char* stage) {
    auto it = stage_us.find(stage);
    return it == stage_us.end() ? 0 : median(it->second);
  }
};

struct Usage {
  double cpu_s = 0;
  double ctx_switches = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
            ru.ru_stime.tv_usec / 1e6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_live: %s\nusage: bench_live --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1]\nworkloads:",
               why.c_str());
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const auto& w : workloads()) {
          if (value == w.name) o.workload = &w;
        }
        if (o.workload == nullptr) usage("unknown workload " + value);
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  if (!(o.seconds > 0)) usage("bad duration");
  return o;
}

// The load on one fleet.
struct LoadResult {
  std::array<double, kWindows> window_s{};
  std::array<LatencyLog, kWindows> fetch_ms, update_ms, late_ms;
  Tally tally;
  Usage usage_start, usage_end;  // around the last window
  StageSamples stages;           // traced window only

  double rps(int window) const {
    return ratio(static_cast<double>(fetch_ms[window].count()), window_s[window]);
  }
};

// Binding warm-up, timed warm-up, then one window of --seconds, or with
// --trace an untraced and a traced window of half that each.
LoadResult run_load(Fleet& fleet, const Options& opt) {
  const Workload& w = fleet.workload();
  const int windows = opt.trace ? 2 : 1;
  const bool owner = w.updates_per_s > 0;
  const std::size_t browsers = static_cast<std::size_t>(w.browsers);
  Phase phase;
  Chooser chooser(w, opt.seed);
  std::vector<ThreadLog> logs(browsers + (owner ? 1 : 0));
  LoadThreads load(phase);
  for (std::size_t b = 0; b < browsers; ++b) {
    load.spawn(run_browser, std::ref(fleet), static_cast<int>(b),
               opt.seed * 0x9e3779b97f4a7c15ull, std::cref(chooser), std::ref(phase),
               std::ref(logs[b]));
  }
  if (owner) {
    load.spawn(run_owner, std::ref(fleet), opt.trace, std::ref(phase), std::ref(logs.back()));
  }

  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  while (phase.ready.load() < load.count()) sleep_s(0.01);
  sleep_s(kWarmupS);
  LoadResult r;
  for (int window = 0; window < windows; ++window) {
    bool traced = window == 1;
    if (traced) {
      fleet.registry().reset();
      fleet.profile().reset();
      fleet.spans().clear();
      g_layers.on.store(true);
    }
    r.usage_start = usage_now();
    auto start = Clock::now();
    phase.window.store(window, std::memory_order_release);
    auto until = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(opt.seconds / windows));
    // Drain the span ring often enough that it never wraps.
    while (Clock::now() < until) {
      sleep_s(std::min(0.1, seconds_between(Clock::now(), until)));
      if (traced) {
        r.stages.add(fleet.spans().recent(kSpanCapacity));
        fleet.spans().clear();
      }
    }
    r.window_s[window] = seconds_between(start, Clock::now());
    g_layers.on.store(false);
    r.usage_end = usage_now();
  }
  load.join();

  for (std::size_t i = 0; i < logs.size(); ++i) {
    for (int win = 0; win < kWindows; ++win) {
      (i < browsers ? r.fetch_ms[win] : r.update_ms[win]).merge(logs[i].latency_ms[win]);
      r.late_ms[win].merge(logs[i].late_ms[win]);
    }
    r.tally.attempted += logs[i].tally.attempted;
    r.tally.failed += logs[i].tally.failed;
    r.tally.conflicts += logs[i].tally.conflicts;
    for (auto& e : logs[i].tally.errors) {
      if (r.tally.errors.size() < 5) r.tally.errors.push_back(std::move(e));
    }
  }
  return r;
}

// The per-layer metrics of a traced load, read before its fleet goes away.
void add_layer_metrics(Report& report, Fleet& fleet, const LoadResult& r) {
  const double op_count = std::max<double>(1, static_cast<double>(r.fetch_ms[1].count()));
  LayerSamples layers = g_layers.merged();
  obs::Snapshot snap = fleet.registry().snapshot();
  obs::ProfileSnapshot prof = fleet.profile().snapshot();
  StageSamples stages = r.stages;

  for (int s = 0; s < kOtherService; ++s) {
    std::string prefix = std::string("net.") + kServiceNames[s];
    const auto& call = layers.call_us[s];
    report.add(prefix + ".calls_per_op", call.size() / op_count, "1/op");
    report.add(prefix + ".call_us_p50", median(call), "us");
    report.add(prefix + ".server_us_p50", median(layers.server_us[s]), "us");
    report.add(prefix + ".wire_us_mean",
               call.empty() ? 0 : mean(call) - mean(layers.server_us[s]), "us");
  }
  report.add("net.nested_calls_per_op", layers.nested_calls / op_count, "1/op");
  report.add("net.resp_kb_per_op", layers.reply_bytes / 1024.0 / op_count, "KB/op");
  report.add("proc.ctx_switches_per_op",
             (r.usage_end.ctx_switches - r.usage_start.ctx_switches) / op_count, "1/op");

  ProbeTotals sha1 = probe(prof, "sha1");
  ProbeTotals verify = probe(prof, "rsa_verify");
  ProbeTotals sign = probe(prof, "rsa_sign");
  report.add("crypto.sha1.calls_per_op", sha1.calls / op_count, "1/op");
  report.add("crypto.sha1.us_per_op", sha1.wall_us / op_count, "us");
  report.add("crypto.rsa_verify.calls_per_op", verify.calls / op_count, "1/op");
  report.add("crypto.rsa_verify.us_per_call", ratio(verify.wall_us, verify.calls), "us");
  report.add("crypto.rsa_sign.calls_per_op", sign.calls / op_count, "1/op");
  report.add("crypto.rsa_sign.us_per_call", ratio(sign.wall_us, sign.calls), "us");

  double resolves = counter_sum(snap, "naming.resolves", {{"outcome", "ok"}});
  report.add("naming.resolve_us_p50", stages.p50(globedoc::FetchStage::kResolve), "us");
  report.add("naming.sigs_per_resolve",
             ratio(counter_sum(snap, "naming.signatures_verified"), resolves), "ratio");
  report.add("naming.referrals_per_resolve",
             ratio(counter_sum(snap, "naming.referrals"), resolves), "ratio");
  report.add("location.locate_us_p50", stages.p50(globedoc::FetchStage::kLocate), "us");
  const obs::MetricSample* rings = histogram(snap, "location.client.rings");
  report.add("location.rings_per_lookup",
             rings ? ratio(rings->value, static_cast<double>(rings->count)) : 0, "ratio");

  double memo_hits = counter_sum(snap, "proxy.cert_verify_memo_hits");
  double fetches_ok = counter_sum(snap, "proxy.fetches", {{"outcome", "ok"}});
  report.add("globedoc.key_check_us_p50", stages.p50(globedoc::FetchStage::kKeyCheck), "us");
  report.add("globedoc.integrity_verify_us_p50",
             stages.p50(globedoc::FetchStage::kIntegrityVerify), "us");
  report.add("globedoc.element_verify_us_p50",
             stages.p50(globedoc::FetchStage::kElementVerify), "us");
  report.add("globedoc.edge_cache_us_p50", stages.p50(globedoc::FetchStage::kEdgeCache), "us");
  report.add("globedoc.cert_memo_hit_ratio",
             ratio(memo_hits, memo_hits + counter_sum(snap, "proxy.cert_verifies")), "ratio");
  report.add("globedoc.security_share", ratio(stages.security_us, stages.total_us), "ratio");
  report.add("globedoc.binding_hit_ratio",
             ratio(counter_sum(snap, "proxy.cache.binding_hits"), fetches_ok), "ratio");

  double hits = counter_sum(snap, "cache.hits");
  double misses = counter_sum(snap, "cache.misses");
  const obs::MetricSample* fill = histogram(snap, "cache.fill_ms");
  report.add("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
  report.add("cache.coalesced_ratio",
             ratio(counter_sum(snap, "cache.coalesced_waiters"), misses), "ratio");
  report.add("cache.fill_ms_p50", fill && fill->count > 0 ? fill->p50 : 0, "ms");
  report.add("cache.evictions_per_kop",
             counter_sum(snap, "cache.evictions") * 1000.0 / op_count, "1/kop");

  report.add("http.browser_us_p50", r.fetch_ms[1].quantile(0.5) * 1000.0, "us");
  report.add("http.proxy_us_p50", median(layers.proxy_us), "us");
  report.add("http.hop_us_mean", r.fetch_ms[1].mean() * 1000.0 - mean(layers.proxy_us), "us");

  report.add("loadgen.update_late_ms_p90", r.late_ms[1].quantile(0.9), "ms");
  report.add("proc.cpu_busy_ratio",
             (r.usage_end.cpu_s - r.usage_start.cpu_s) / (r.window_s[1] * nproc()), "ratio");
  report.add("trace.overhead_ratio", ratio(r.rps(1), r.rps(0)), "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_args(argc, argv);
  const Workload& w = *opt.workload;
  Watchdog watchdog;

  // A set-up builds the whole fleet from scratch: keys, servers, signed and
  // published documents.  The first fleet, timed from process start, is the
  // one loaded; the other set-ups run after it is torn down, so peak_rss_mb
  // sees one fleet set up and loaded.  A traced run sets up once.
  std::vector<double> setup_s;
  auto set_up = [&](Clock::time_point start) {
    watchdog.arm(60, "setup");
    auto fleet = std::make_unique<Fleet>(w, opt.seed, opt.trace);
    setup_s.push_back(seconds_between(start, Clock::now()));
    return fleet;
  };
  Report report;
  LoadResult r;
  double peak_rss_mb = 0;
  try {
    std::unique_ptr<Fleet> fleet = set_up(g_process_start);
    watchdog.arm(3 * (kWarmupS + opt.seconds) + 10, "load");
    r = run_load(*fleet, opt);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    peak_rss_mb = ru.ru_maxrss / 1024.0;
    if (opt.trace) add_layer_metrics(report, *fleet, r);
    watchdog.arm(30, "teardown");
    fleet.reset();
    for (int k = 1; k < (opt.trace ? 1 : kSetups); ++k) set_up(Clock::now());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_live: setup failed: %s\n", e.what());
    return 1;
  }

  // Untraced-window results; with --trace they are the baseline the traced
  // window is compared with.  Update latencies read 0 without a writer.
  report.add("fetch_rps", r.rps(0), "1/s");
  report.add("fetch_p50_ms", r.fetch_ms[0].quantile(0.5), "ms");
  report.add("fetch_p90_ms", r.fetch_ms[0].quantile(0.9), "ms");
  report.add("fetch_p99_ms", r.fetch_ms[0].quantile(0.99), "ms");
  report.add("fetch_samples", static_cast<double>(r.fetch_ms[0].count()), "count");
  report.add("update_p50_ms", r.update_ms[0].quantile(0.5), "ms");
  report.add("update_p90_ms", r.update_ms[0].quantile(0.9), "ms");
  report.add("update_samples", static_cast<double>(r.update_ms[0].count()), "count");
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb, "MB");
  const Tally& total = r.tally;
  double error_ratio = ratio(static_cast<double>(total.failed),
                             static_cast<double>(total.attempted));
  report.add("error_ratio", error_ratio, "ratio");
  report.add("ops", static_cast<double>(total.attempted), "count");
  report.add("ops_failed", static_cast<double>(total.failed), "count");
  report.add("update_conflicts", static_cast<double>(total.conflicts), "count");

  for (const auto& e : total.errors) std::fprintf(stderr, "bench_live: error: %s\n", e.c_str());
  std::string json = "{\"workload\":\"" + std::string(w.name) +
                     "\",\"seed\":" + std::to_string(opt.seed) +
                     ",\"trace\":" + (opt.trace ? "1" : "0") +
                     ",\"seconds\":" + std::to_string(opt.seconds) + ",\"stamp\":{" +
                     "\"compiler\":\"" + json_escape(__VERSION__) + "\"," +
                     "\"build_type\":\"" + json_escape(BENCH_BUILD_TYPE) + "\"," +
                     "\"optimized\":" + (optimized() ? "true" : "false") + "," +
                     "\"sanitizer\":\"" + sanitizer() + "\"," +
                     "\"cpu\":\"" + json_escape(cpu_model()) + "\"," +
                     "\"nproc\":" + std::to_string(nproc()) + "}," +
                     "\"attempted\":" + std::to_string(total.attempted) +
                     ",\"failed\":" + std::to_string(total.failed) + ",\"errors\":[";
  for (std::size_t i = 0; i < total.errors.size(); ++i) {
    json += (i ? ",\"" : "\"") + json_escape(total.errors[i]) + "\"";
  }
  json += "],\"metrics\":{";
  bool first = true;
  for (const auto& m : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "\"" : ",\"") + m.name + "\":{\"value\":" + value + ",\"unit\":\"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return total.failed == 0 && total.attempted > 0 ? 0 : 1;
}
