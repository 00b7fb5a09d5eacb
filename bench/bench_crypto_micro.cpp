// Ablation A5 — real wall-clock microbenchmarks of the from-scratch crypto
// substrate (google-benchmark).  These are the 2026 numbers; the simulated
// figures use the era CpuModel instead (see DESIGN.md §2).  The context lines
// `sha_compress` and `mod_pow_lanes` name the SHA compression path and the
// lane kernel this CPU took.
#include <benchmark/benchmark.h>

#include <array>

#include "crypto/aes.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/mod_pow_lanes.hpp"
#include "crypto/prime.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha_compress.hpp"
#include "globedoc/integrity.hpp"

namespace {

using namespace globe;

util::Bytes test_data(std::size_t n) {
  auto rng = crypto::HmacDrbg::from_seed(n);
  return rng.bytes(n);
}

const crypto::RsaKeyPair& key1024() {
  static const crypto::RsaKeyPair kp = [] {
    auto rng = crypto::HmacDrbg::from_seed(1);
    return crypto::rsa_generate(1024, rng);
  }();
  return kp;
}

void BM_Sha1(benchmark::State& state) {
  util::Bytes data = test_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 262144 is warm_large's element size in bench_live.
BENCHMARK(BM_Sha1)->Arg(1024)->Arg(65536)->Arg(262144)->Arg(1048576);

// SHA-1's portable compression function called directly, whatever path
// Sha1 takes on this CPU: what CPUs without SHA-NI hash at.
void BM_Sha1Portable(benchmark::State& state) {
  util::Bytes data = test_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto h = crypto::detail::kSha1Iv;
    crypto::detail::sha1_compress_portable(h.data(), data.data(), data.size() / 64);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Portable)->Arg(262144);

void BM_Sha256(benchmark::State& state) {
  util::Bytes data = test_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(65536)->Arg(262144);

void BM_HmacSha1(benchmark::State& state) {
  util::Bytes key = test_data(20);
  util::Bytes data = test_data(65536);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac<crypto::Sha1>(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_HmacSha1);

void BM_AesCtr(benchmark::State& state) {
  util::Bytes key = test_data(16);
  util::Bytes nonce = test_data(12);
  util::Bytes data = test_data(65536);
  for (auto _ : state) {
    crypto::AesCtr ctr(key, nonce);
    util::Bytes copy = data;
    ctr.process(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_AesCtr);

// Both CRT halves as one two-lane pass of the lane kernel, then the
// s^e = m (mod n) check that every signature passes before it is released.
void BM_RsaSign1024(benchmark::State& state) {
  util::Bytes msg = test_data(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign_sha1(key1024().priv, msg));
  }
}
BENCHMARK(BM_RsaSign1024);

void BM_RsaVerify1024(benchmark::State& state) {
  util::Bytes msg = test_data(256);
  util::Bytes sig = crypto::rsa_sign_sha1(key1024().priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_verify_sha1(key1024().pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify1024);

// bench_live derives key i of its fleet from kLiveKeySeed + i.  Keys cost
// unequal numbers of prime candidates, so the keygen cases run one
// iteration per seed of the fleet's first kLiveKeys keys and read their mean.
constexpr std::uint64_t kLiveKeySeed = 0x6c697665'6b657973ull;
constexpr int kLiveKeys = 16;

// Key generation: the work bench_live's set-up repeats once per document.
void BM_RsaKeygen1024(benchmark::State& state) {
  std::uint64_t key = 0;
  for (auto _ : state) {
    auto rng = crypto::HmacDrbg::from_seed(kLiveKeySeed + key++ % kLiveKeys);
    benchmark::DoNotOptimize(crypto::rsa_generate(1024, rng));
  }
}
BENCHMARK(BM_RsaKeygen1024)->Unit(benchmark::kMillisecond)->Iterations(kLiveKeys);

// The first prime (p) of each of those keys.
void BM_GeneratePrime512(benchmark::State& state) {
  std::uint64_t key = 0;
  for (auto _ : state) {
    auto rng = crypto::HmacDrbg::from_seed(kLiveKeySeed + key++ % kLiveKeys);
    benchmark::DoNotOptimize(crypto::generate_prime(512, rng));
  }
}
BENCHMARK(BM_GeneratePrime512)->Unit(benchmark::kMillisecond)->Iterations(kLiveKeys);

// A full-width exponent modulo an odd `bits`-bit modulus: at 512 bits, what
// one CRT half of an RSA-1024 signature and one Miller-Rabin round of keygen
// cost on the portable lane kernel, which runs where the CPU has no IFMA.
void mod_pow_case(benchmark::State& state, std::size_t bits) {
  auto rng = crypto::HmacDrbg::from_seed(2);
  crypto::BigInt base = crypto::BigInt::random_bits(bits, rng);
  crypto::BigInt exp = crypto::BigInt::random_bits(bits, rng);
  crypto::BigInt mod = crypto::BigInt::random_bits(bits, rng);
  if (mod.is_even()) mod = mod + crypto::BigInt(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigInt::mod_pow(base, exp, mod));
  }
}

// One 512-bit draw: what keygen pulls from the DRBG per random start and
// per Miller-Rabin base.
void BM_DrbgDraw512(benchmark::State& state) {
  auto rng = crypto::HmacDrbg::from_seed(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigInt::random_bits(512, rng));
  }
}
BENCHMARK(BM_DrbgDraw512);

void BM_ModPow512(benchmark::State& state) { mod_pow_case(state, 512); }
BENCHMARK(BM_ModPow512);

void BM_ModPow1024(benchmark::State& state) { mod_pow_case(state, 1024); }
BENCHMARK(BM_ModPow1024);

// state.range(0) BM_ModPow512 cases, each with its own modulus, base and
// exponent, in one pass of the lane kernel: side by side on the IFMA kernel,
// one after another on the portable one.  Two lanes are a CRT signature's
// pass, which the IFMA kernel runs on 256-bit registers, and eight a
// screening pass of keygen's sieve survivors, on 512-bit registers.
void BM_ModPow512Lanes(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  auto rng = crypto::HmacDrbg::from_seed(2);
  std::array<crypto::BigInt, crypto::kMaxLanes> base, exp, mod, out;
  std::array<crypto::PowLane, crypto::kMaxLanes> lanes;
  for (std::size_t i = 0; i < count; ++i) {
    base[i] = crypto::BigInt::random_bits(512, rng);
    exp[i] = crypto::BigInt::random_bits(512, rng);
    mod[i] = crypto::BigInt::random_bits(512, rng);
    if (mod[i].is_even()) mod[i] = mod[i] + crypto::BigInt(1);
    lanes[i] = {&base[i], &exp[i], &mod[i]};
  }
  for (auto _ : state) {
    crypto::mod_pow_lanes(512).pass(lanes.data(), count, out.data());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ModPow512Lanes)->Arg(2)->Arg(8);

// The sieve's residue pass: one random 512-bit start modulo each odd prime
// below 2^16, what keygen pays per start before any Miller-Rabin round.
void BM_SieveResidues(benchmark::State& state) {
  auto rng = crypto::HmacDrbg::from_seed(5);
  const crypto::BigInt start = crypto::BigInt::random_bits(512, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::detail::sieve_residues(start));
  }
}
BENCHMARK(BM_SieveResidues);

// What keygen runs on each probable prime: 32 random-base rounds, in passes
// of the lane kernel.
void BM_MillerRabin512(benchmark::State& state) {
  auto rng = crypto::HmacDrbg::from_seed(3);
  crypto::BigInt prime = crypto::generate_prime(512, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::is_probable_prime(prime, rng, 32));
  }
}
BENCHMARK(BM_MillerRabin512);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<util::Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) leaves.push_back(test_data(1024));
  for (auto _ : state) {
    crypto::MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(16)->Arg(256);

void BM_IntegrityCertBuild(benchmark::State& state) {
  std::vector<globedoc::PageElement> elements;
  for (int i = 0; i < state.range(0); ++i) {
    elements.push_back({"el" + std::to_string(i), "text/plain", test_data(1024)});
  }
  auto oid = globedoc::Oid::from_public_key(key1024().pub);
  for (auto _ : state) {
    benchmark::DoNotOptimize(globedoc::IntegrityCertificate::build(
        oid, 1, elements, 0, util::seconds(60), key1024().priv));
  }
}
BENCHMARK(BM_IntegrityCertBuild)->Arg(11);

void BM_CheckElement(benchmark::State& state) {
  std::vector<globedoc::PageElement> elements = {
      {"index.html", "text/html", test_data(65536)}};
  auto oid = globedoc::Oid::from_public_key(key1024().pub);
  auto cert = globedoc::IntegrityCertificate::build(oid, 1, elements, 0,
                                                    util::seconds(60),
                                                    key1024().priv);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cert.check_element("index.html", elements[0], 1));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_CheckElement);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("sha_compress", globe::crypto::detail::compress_path());
  benchmark::AddCustomContext("mod_pow_lanes", globe::crypto::mod_pow_lanes(512).name);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
