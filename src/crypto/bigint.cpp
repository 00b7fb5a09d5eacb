#include "crypto/bigint.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace globe::crypto {

namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

constexpr u64 kBase = u64{1} << 32;

}  // namespace

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<u32>(v));
  if (v >> 32) limbs_.push_back(static_cast<u32>(v >> 32));
}

BigInt BigInt::from_bytes(util::BytesView be) {
  BigInt out;
  out.limbs_.assign((be.size() + 3) / 4, 0);
  // Bytes are big-endian; limb 0 is least significant.
  for (std::size_t i = 0; i < be.size(); ++i) {
    std::size_t byte_index = be.size() - 1 - i;  // significance of be[byte_index]
    out.limbs_[i / 4] |= u32{be[byte_index]} << (8 * (i % 4));
  }
  out.trim();
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  if (hex.empty()) throw std::invalid_argument("BigInt::from_hex: empty");
  std::string padded(hex);
  if (padded.size() % 2) padded.insert(padded.begin(), '0');
  return from_bytes(util::hex_decode(padded));
}

BigInt BigInt::from_dec(std::string_view dec) {
  if (dec.empty()) throw std::invalid_argument("BigInt::from_dec: empty");
  BigInt out;
  BigInt ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') throw std::invalid_argument("BigInt::from_dec: bad digit");
    out = out * ten + BigInt(static_cast<u64>(c - '0'));
  }
  return out;
}

util::Bytes BigInt::to_bytes(std::size_t pad) const {
  util::Bytes minimal;
  minimal.reserve(limbs_.size() * 4);
  // Emit little-endian then reverse; skip leading zeros afterwards.
  for (u32 limb : limbs_) {
    minimal.push_back(static_cast<std::uint8_t>(limb));
    minimal.push_back(static_cast<std::uint8_t>(limb >> 8));
    minimal.push_back(static_cast<std::uint8_t>(limb >> 16));
    minimal.push_back(static_cast<std::uint8_t>(limb >> 24));
  }
  while (!minimal.empty() && minimal.back() == 0) minimal.pop_back();
  std::reverse(minimal.begin(), minimal.end());
  if (pad == 0) return minimal;
  if (minimal.size() > pad) {
    throw std::invalid_argument("BigInt::to_bytes: value does not fit in pad");
  }
  util::Bytes out(pad - minimal.size(), 0);
  util::append(out, minimal);
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = util::hex_encode(to_bytes());
  std::size_t nz = s.find_first_not_of('0');
  return s.substr(nz == std::string::npos ? s.size() - 1 : nz);
}

std::string BigInt::to_dec() const {
  if (is_zero()) return "0";
  std::string out;
  BigInt ten(10), q, r, cur = *this;
  while (!cur.is_zero()) {
    divmod(cur, ten, q, r);
    out.push_back(static_cast<char>('0' + r.low_u64()));
    cur = q;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  u32 top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::uint64_t BigInt::low_u64() const {
  u64 v = limbs_.empty() ? 0 : limbs_[0];
  if (limbs_.size() > 1) v |= u64{limbs_[1]} << 32;
  return v;
}

int BigInt::cmp(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  BigInt out;
  const auto& a = limbs_;
  const auto& b = rhs.limbs_;
  std::size_t n = std::max(a.size(), b.size());
  out.limbs_.resize(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u64 sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.limbs_[i] = static_cast<u32>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<u32>(carry);
  out.trim();
  return out;
}

BigInt BigInt::operator-(const BigInt& rhs) const {
  if (cmp(*this, rhs) < 0) {
    throw std::underflow_error("BigInt subtraction underflow");
  }
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow -
                        (i < rhs.limbs_.size() ? static_cast<std::int64_t>(rhs.limbs_[i]) : 0);
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<u32>(diff);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& rhs) const {
  BigInt out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    u64 ai = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      u64 cur = out.limbs_[i + j] + ai * rhs.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<u32>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + rhs.limbs_.size()] += static_cast<u32>(carry);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  std::size_t limb_shift = bits / 32;
  std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 v = u64{limbs_[i]} << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<u32>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<u32>(v >> 32);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  std::size_t limb_shift = bits / 32;
  std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    u64 v = u64{limbs_[i + limb_shift]} >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= u64{limbs_[i + limb_shift + 1]} << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<u32>(v);
  }
  out.trim();
  return out;
}

namespace {

using u128 = unsigned __int128;

/// Limb i of `limbs` regrouped as 64-bit limbs (zero past the end).
u64 limb64(const std::vector<u32>& limbs, std::size_t i) {
  u64 lo = 2 * i < limbs.size() ? limbs[2 * i] : 0;
  u64 hi = 2 * i + 1 < limbs.size() ? limbs[2 * i + 1] : 0;
  return hi << 32 | lo;
}

/// a[0..len) <<= s in place for 0 < s < 64; a[len - 1]'s top s bits drop.
void shift_left(u64* a, std::size_t len, unsigned s) {
  for (std::size_t i = len; i-- > 1;) a[i] = a[i] << s | a[i - 1] >> (64 - s);
  a[0] <<= s;
}

/// Knuth's Algorithm D (TAOCP 4.3.1) on 64-bit digits.  Divides u[0..len)
/// by v[0..n), where v[n - 1] != 0 and u[len - 1] == 0 (room to normalize),
/// leaving the remainder in u[0..n) and, unless q is null, the quotient in
/// q[0..len - n).  v is left shifted.
void long_divide(u64* u, std::size_t len, u64* v, std::size_t n, u64* q) {
  // Normalize so v's top bit is set: the quotient digit estimates below
  // are then at most two too large.
  const auto s = static_cast<unsigned>(__builtin_clzll(v[n - 1]));
  if (s) {
    shift_left(u, len, s);
    shift_left(v, n, s);
  }
  for (std::size_t j = len - n; j-- > 0;) {
    // Estimate the quotient digit from the top two limbs; the test
    // against v[n - 2] leaves it at most one too large.
    u64 qhat;
    u128 rhat;
    if (u[j + n] == v[n - 1]) {
      qhat = ~u64{0};
      rhat = u128{u[j + n - 1]} + v[n - 1];
    } else {
      u128 num = u128{u[j + n]} << 64 | u[j + n - 1];
      qhat = static_cast<u64>(num / v[n - 1]);
      rhat = num % v[n - 1];
    }
    while (n > 1 && rhat >> 64 == 0 &&
           u128{qhat} * v[n - 2] > (rhat << 64 | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
    }
    // u[j..j+n] -= qhat · v
    u64 carry = 0, borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 p = u128{qhat} * v[i] + carry;
      carry = static_cast<u64>(p >> 64);
      u128 d = u128{u[i + j]} - static_cast<u64>(p) - borrow;
      u[i + j] = static_cast<u64>(d);
      borrow = static_cast<u64>(d >> 64) & 1;
    }
    u128 top = u128{u[j + n]} - carry - borrow;
    u[j + n] = static_cast<u64>(top);
    if (top >> 64) {
      // qhat was one too large: add the divisor back.
      --qhat;
      u64 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 sum = u128{u[i + j]} + v[i] + c;
        u[i + j] = static_cast<u64>(sum);
        c = static_cast<u64>(sum >> 64);
      }
      u[j + n] += c;
    }
    if (q) q[j] = qhat;
  }
  // Denormalize the remainder (u[n] is zero now).
  if (s) {
    for (std::size_t i = 0; i < n; ++i) u[i] = u[i] >> s | u[i + 1] << (64 - s);
  }
}

}  // namespace

BigInt BigInt::from_limbs64(const std::uint64_t* limbs, std::size_t n) {
  BigInt out;
  out.limbs_.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out.limbs_[2 * i] = static_cast<u32>(limbs[i]);
    out.limbs_[2 * i + 1] = static_cast<u32>(limbs[i] >> 32);
  }
  out.trim();
  return out;
}

void BigInt::divmod(const BigInt& num, const BigInt& den, BigInt& quot, BigInt& rem) {
  if (den.is_zero()) throw std::domain_error("BigInt division by zero");
  if (cmp(num, den) < 0) {
    quot = BigInt();
    rem = num;
    return;
  }
  const std::size_t n = (den.limbs_.size() + 1) / 2;
  const std::size_t len = (num.limbs_.size() + 1) / 2 + 1;  // top limb stays 0
  std::vector<u64> u(len), v(n), q(len - n);
  for (std::size_t i = 0; i + 1 < len; ++i) u[i] = limb64(num.limbs_, i);
  for (std::size_t i = 0; i < n; ++i) v[i] = limb64(den.limbs_, i);
  long_divide(u.data(), len, v.data(), n, q.data());
  quot = from_limbs64(q.data(), q.size());
  rem = from_limbs64(u.data(), n);
}

BigInt BigInt::operator/(const BigInt& rhs) const {
  BigInt q, r;
  divmod(*this, rhs, q, r);
  return q;
}

BigInt BigInt::operator%(const BigInt& rhs) const {
  BigInt q, r;
  divmod(*this, rhs, q, r);
  return r;
}

namespace {

/// Fixed-window width for a `bits`-bit exponent: one bit (square-and-
/// multiply, no table) for short exponents such as e = 65537, wider
/// windows once their 2^w − 1 table entries pay for themselves.
std::size_t window_bits(std::size_t bits) {
  return bits > 671 ? 6 : bits > 239 ? 5 : bits > 79 ? 4 : bits > 23 ? 3 : 1;
}

/// The column sum of product scanning, three limbs wide: a column adds at
/// most 2n + 1 products, each below 2^128, to the carry from the column
/// below, so for any n below 2^60 the sum fits.
struct Accumulator {
  u128 low = 0;  // limbs 0 and 1
  u64 high = 0;  // limb 2

  void add(u64 x, u64 y) {
    const u128 p = u128{x} * y;
    low += p;
    high += low < p;
  }

  /// Adds 2·c.
  void add_twice(const Accumulator& c) {
    const u128 twice = c.low << 1;
    high += c.high << 1 | static_cast<u64>(c.low >> 127);
    low += twice;
    high += low < twice;
  }

  /// Returns limb 0 and moves the rest down one limb: the carry into the
  /// next column.
  u64 shift() {
    const u64 limb = static_cast<u64>(low);
    low = low >> 64 | u128{high} << 64;
    high = 0;
    return limb;
  }
};

/// Calls column(k) for k = 0 .. count − 1.  When the count is known at
/// compile time (Count != 0), each call receives k as a constant, so the
/// loops inside every column unroll fully.
template <std::size_t Count, class F>
void for_each_column(std::size_t count, F column) {
  if constexpr (Count != 0) {
    [&]<std::size_t... K>(std::index_sequence<K...>) {
      (column(std::integral_constant<std::size_t, K>{}), ...);
    }(std::make_index_sequence<Count>{});
  } else {
    for (std::size_t k = 0; k < count; ++k) column(k);
  }
}

/// Montgomery arithmetic modulo an odd n-limb m, R = 2^(64n), by product
/// scanning (Koç, Acar and Kaliski's FIPS method).  Column k of the 2n-limb
/// sum a·b + u·m gathers every a[j]·b[k−j] and u[j]·m[k−j] in one
/// accumulator; each of the n low columns picks its quotient digit u[k] so
/// that the column's low limb cancels, and the n high columns are the
/// result r = (a·b + u·m) / R < 2m.  N is the limb count when it is known at
/// compile time (8: the 512-bit Miller–Rabin and CRT moduli of RSA-1024),
/// with u and r on the stack and every column unrolled, and 0 when only the
/// run time knows it, with u and r in the caller's storage; both
/// instantiations are this one source.
template <std::size_t N>
struct Montgomery {
  const u64* m;
  std::size_t limbs;  // n, equal to N when N != 0
  u64 m0inv;          // −m⁻¹ mod 2^64
  u64* t;             // 2n limbs for u and r when N == 0

  std::size_t size() const { return N != 0 ? N : limbs; }

  /// out = a·b·R⁻¹ mod m for a, b < m; out may alias a or b.  mul and sqr
  /// stay out of line: unrolled for 8 limbs, each body is kilobytes of code,
  /// and inlined into window_pow's call sites it ran slower.
  [[gnu::noinline]] void mul(const u64* a, const u64* b, u64* out) const {
    const std::size_t n = size();
    std::array<u64, 2 * N> local{};
    u64* const u = N != 0 ? local.data() : t;
    u64* const r = u + n;
    Accumulator acc;
    for_each_column<2 * N>(2 * n, [&](auto column) {
      const std::size_t k = column;
      for (std::size_t j = k < n ? 0 : k - n + 1; j < k && j < n; ++j) {
        acc.add(a[j], b[k - j]);
        acc.add(u[j], m[k - j]);
      }
      if (k < n) {
        acc.add(a[k], b[0]);
        u[k] = static_cast<u64>(acc.low) * m0inv;
        acc.add(u[k], m[0]);
        acc.shift();
      } else {
        r[k - n] = acc.shift();
      }
    });
    subtract_if_ge(r, static_cast<u64>(acc.low), out);
  }

  /// out = a·a·R⁻¹ mod m for a < m; out may alias a.  Each column sums its
  /// cross products a[j]·a[k−j], j < k − j, once and adds them twice, then
  /// its square a[k/2]² and its u[j]·m[k−j].
  [[gnu::noinline]] void sqr(const u64* a, u64* out) const {
    const std::size_t n = size();
    std::array<u64, 2 * N> local{};
    u64* const u = N != 0 ? local.data() : t;
    u64* const r = u + n;
    Accumulator acc;
    for_each_column<2 * N>(2 * n, [&](auto column) {
      const std::size_t k = column;
      const std::size_t first = k < n ? 0 : k - n + 1;
      Accumulator cross;
      for (std::size_t j = first; j < k - j; ++j) cross.add(a[j], a[k - j]);
      acc.add_twice(cross);
      if (k % 2 == 0 && k / 2 < n) acc.add(a[k / 2], a[k / 2]);
      for (std::size_t j = first; j < k && j < n; ++j) acc.add(u[j], m[k - j]);
      if (k < n) {
        u[k] = static_cast<u64>(acc.low) * m0inv;
        acc.add(u[k], m[0]);
        acc.shift();
      } else {
        r[k - n] = acc.shift();
      }
    });
    subtract_if_ge(r, static_cast<u64>(acc.low), out);
  }

  /// out = x − m if x (n limbs plus the limb `top` above them) is at least
  /// m, else x; x < 2m and x must not alias out.
  void subtract_if_ge(const u64* x, u64 top, u64* out) const {
    const std::size_t n = size();
    u64 borrow = 0;
    for (std::size_t j = 0; j < n; ++j) {
      u128 d = u128{x[j]} - m[j] - borrow;
      out[j] = static_cast<u64>(d);
      borrow = static_cast<u64>(d >> 64) & 1;
    }
    if (borrow > top) std::copy(x, x + n, out);
  }
};

/// Left-to-right fixed windows of width w over the table the caller seeded
/// with table[0] = base·R mod m.  Fills the rest of the table (base^d·R for
/// d < 2^w), runs the windows into acc, and takes acc out of Montgomery
/// form, using `one` (n limbs) as scratch.
template <std::size_t N>
void window_pow(const Montgomery<N>& mont, const BigInt& exp, std::size_t w,
                u64* table, u64* acc, u64* one) {
  const std::size_t n = mont.size();
  const std::size_t entries = (std::size_t{1} << w) - 1;
  if (entries > 1) mont.sqr(table, table + n);
  for (std::size_t d = 2; d < entries; ++d) {
    mont.mul(table + (d - 1) * n, table, table + d * n);
  }

  // The top window holds the exponent's top bit, so it is nonzero and seeds
  // the accumulator.
  auto digit = [&exp](std::size_t lo, std::size_t width) {
    std::size_t d = 0;
    for (std::size_t i = width; i-- > 0;) d = d << 1 | (exp.bit(lo + i) ? 1 : 0);
    return d;
  };
  const std::size_t bits = exp.bit_length();
  std::size_t pos = (bits - 1) / w * w;
  std::copy_n(table + (digit(pos, bits - pos) - 1) * n, n, acc);
  while (pos > 0) {
    pos -= w;
    for (std::size_t i = 0; i < w; ++i) mont.sqr(acc, acc);
    if (std::size_t d = digit(pos, w)) mont.mul(acc, table + (d - 1) * n, acc);
  }

  // Out of Montgomery form: acc·1·R⁻¹.
  std::fill(one, one + n, 0);
  one[0] = 1;
  mont.mul(acc, one, acc);
}

}  // namespace

BigInt BigInt::mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.is_zero()) throw std::domain_error("mod_pow: zero modulus");
  if (m.is_even()) throw std::invalid_argument("mod_pow: even modulus");
  if (m.limbs_.size() == 1 && m.limbs_[0] == 1) return BigInt();
  if (exp.is_zero()) return BigInt(1);

  const std::size_t n = (m.limbs_.size() + 1) / 2;
  const std::size_t base_n = (base.limbs_.size() + 1) / 2;
  const std::size_t w = window_bits(exp.bit_length());
  const std::size_t entries = (std::size_t{1} << w) - 1;

  // The one allocation: modulus, the run-time kernel's u and result, window
  // table, accumulator, and the dividend and divisor that bring the base
  // into Montgomery form.
  const std::size_t num_len = n + base_n + 1;
  std::vector<u64> scratch(n + 2 * n + entries * n + n + num_len + n);
  u64* mod = scratch.data();
  u64* t = mod + n;
  u64* table = t + 2 * n;  // table[(d − 1)·n ..] = base^d·R mod m
  u64* acc = table + entries * n;
  u64* num = acc + n;
  u64* div = num + num_len;

  for (std::size_t i = 0; i < n; ++i) mod[i] = limb64(m.limbs_, i);
  u64 inv = 1;  // Newton: each step doubles the correct low bits of m⁻¹
  for (int i = 0; i < 6; ++i) inv *= 2 - mod[0] * inv;

  // table[0] = base·R mod m, the remainder of base·2^(64n) divided by m.
  for (std::size_t i = 0; i < base_n; ++i) num[n + i] = limb64(base.limbs_, i);
  std::copy(mod, mod + n, div);
  long_divide(num, num_len, div, n, nullptr);
  std::copy(num, num + n, table);

  // The spent dividend is the scratch for leaving Montgomery form.
  if (n == 8) {
    window_pow(Montgomery<8>{mod, n, 0 - inv, t}, exp, w, table, acc, num);
  } else {
    window_pow(Montgomery<0>{mod, n, 0 - inv, t}, exp, w, table, acc, num);
  }
  return from_limbs64(acc, n);
}

namespace {

/// a[0..n) −= b[0..n); returns the borrow out of the top limb.
u64 subtract_in_place(u64* a, const u64* b, std::size_t n) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 d = u128{a[i]} - b[i] - borrow;
    a[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  return borrow;
}

/// a[0..n) += b[0..n); returns the carry out of the top limb.
u64 add_in_place(u64* a, const u64* b, std::size_t n) {
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 sum = u128{a[i]} + b[i] + carry;
    a[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  return carry;
}

/// a[0..n) = (a[0..n) + top·2^(64n)) / 2^k, for 0 < k < 64 and top < 2^k.
void shift_right(u64* a, std::size_t n, unsigned k, u64 top) {
  for (std::size_t i = 0; i + 1 < n; ++i) a[i] = a[i] >> k | a[i + 1] << (64 - k);
  a[n - 1] = a[n - 1] >> k | top << (64 - k);
}

/// a[0..n) = a·2^−k mod m, for a < m, m odd, 0 < k < 64 and
/// m_neg_inv = −m⁻¹ mod 2^64: a plus the multiple t·m, t < 2^k, that makes
/// the sum divisible by 2^k, divided by 2^k, which stays below m.
void divide_by_power_of_two(u64* a, const u64* m, std::size_t n, unsigned k, u64 m_neg_inv) {
  const u64 t = a[0] * m_neg_inv & ((u64{1} << k) - 1);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 sum = u128{a[i]} + u128{t} * m[i] + carry;
    a[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  shift_right(a, n, k, carry);
}

bool is_zero_limbs(const u64* a, std::size_t n) {
  return std::all_of(a, a + n, [](u64 limb) { return limb == 0; });
}

/// Compares a[0..n) with b[0..n).
bool less_limbs(const u64* a, const u64* b, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

}  // namespace

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  if (m.is_zero()) throw std::domain_error("mod_inverse: zero modulus");
  if (m.is_even()) throw std::invalid_argument("mod_inverse: even modulus");
  // Binary extended Euclid over n fixed-width limbs, keeping x·a ≡ u and
  // y·a ≡ v (mod m) with v odd: an even u loses its trailing zeros, k at a
  // time, and x is divided by 2^k mod m with it; otherwise the smaller of u
  // and v is taken from the larger, which leaves an even u.  When u reaches
  // 0, v is gcd(a, m) and y, when v is 1, the inverse.
  const std::size_t n = (m.limbs_.size() + 1) / 2;
  std::vector<u64> scratch(5 * n);
  u64* mod = scratch.data();
  u64* u = mod + n;
  u64* v = u + n;
  u64* x = v + n;
  u64* y = x + n;
  const BigInt reduced = a % m;
  for (std::size_t i = 0; i < n; ++i) {
    mod[i] = limb64(m.limbs_, i);
    u[i] = limb64(reduced.limbs_, i);
  }
  std::copy(mod, mod + n, v);
  x[0] = 1;
  u64 m_inv = 1;  // Newton: each step doubles the correct low bits of m⁻¹
  for (int i = 0; i < 6; ++i) m_inv *= 2 - mod[0] * m_inv;
  while (!is_zero_limbs(u, n)) {
    if (u[0] % 2 == 0) {
      const auto k = static_cast<unsigned>(u[0] == 0 ? 63 : __builtin_ctzll(u[0]));
      shift_right(u, n, k, 0);
      divide_by_power_of_two(x, mod, n, k, 0 - m_inv);
      continue;
    }
    if (less_limbs(u, v, n)) {
      std::swap(u, v);
      std::swap(x, y);
    }
    subtract_in_place(u, v, n);
    if (subtract_in_place(x, y, n)) add_in_place(x, mod, n);
  }
  if (v[0] != 1 || !is_zero_limbs(v + 1, n - 1)) {
    throw std::domain_error("mod_inverse: not coprime");
  }
  return from_limbs64(y, n);
}

BigInt BigInt::random_below(const BigInt& bound, util::RandomSource& rng) {
  if (bound.is_zero()) throw std::domain_error("random_below: zero bound");
  std::size_t bits = bound.bit_length();
  std::size_t nbytes = (bits + 7) / 8;
  unsigned top_mask = bits % 8 ? (1u << (bits % 8)) - 1 : 0xffu;
  for (;;) {
    util::Bytes raw = rng.bytes(nbytes);
    raw[0] = static_cast<std::uint8_t>(raw[0] & top_mask);
    BigInt candidate = from_bytes(raw);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_bits(std::size_t bits, util::RandomSource& rng) {
  if (bits == 0) return BigInt();
  std::size_t nbytes = (bits + 7) / 8;
  util::Bytes raw = rng.bytes(nbytes);
  unsigned top_bit = (bits - 1) % 8;
  unsigned top_mask = (1u << (top_bit + 1)) - 1;
  raw[0] = static_cast<std::uint8_t>((raw[0] & top_mask) | (1u << top_bit));
  return from_bytes(raw);
}

}  // namespace globe::crypto
