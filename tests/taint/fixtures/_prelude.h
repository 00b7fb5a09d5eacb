// Shared fixture prelude: a stand-in for src/util/taint_annotations.hpp so
// each fixture is a self-contained TU under both frontends.
#pragma once
#if defined(__clang__)
#define GLOBE_UNTRUSTED [[clang::annotate("globe::untrusted")]]
#define GLOBE_BLOCKING [[clang::annotate("globe::blocking")]]
#define GLOBE_SANITIZER [[clang::annotate("globe::sanitizer")]]
#define GLOBE_TRUSTED_SINK [[clang::annotate("globe::trusted_sink")]]
#else
#define GLOBE_UNTRUSTED
#define GLOBE_BLOCKING
#define GLOBE_SANITIZER
#define GLOBE_TRUSTED_SINK
#endif

struct Bytes {
  int size() const { return 0; }
};
struct Status {
  bool is_ok() const { return true; }
};
// std::vector-like stand-in.  Lives in the prelude (which the lite frontend
// never parses — it analyzes each fixture TU in isolation) so that a
// `buf.insert(...)` call in a fixture is exactly what the real bug looked
// like: an untyped receiver with a container method name.
struct Buffer {
  int end() { return 0; }
  void insert(int where, const Bytes& a, const Bytes& b) {}
};
inline Buffer make_buffer() { return Buffer{}; }
// std::map-like stand-in, same trick: its lookup stays a bodyless external
// method under both frontends.
struct Table {
  const Bytes& find(const Bytes& key) const;
};
// Declared only, as in <algorithm>: a call spelled std::fill stays external.
namespace std {
template <class It, class T>
void fill(It first, It last, const T& value);
}  // namespace std
