// Shared fixture prelude: stand-ins for src/util/bounds_annotations.hpp,
// src/util/taint_annotations.hpp and the std containers, so each fixture is
// a self-contained TU under the clang frontend.  The lite frontend never
// parses this header — it analyzes each fixture file in isolation, which
// keeps every declared-but-bodiless function opaque, exactly like a real
// out-of-TU callee.
#pragma once
#if defined(__clang__)
#define GLOBE_UNTRUSTED [[clang::annotate("globe::untrusted")]]
#define GLOBE_LENGTH_GUARD [[clang::annotate("globe::length_guard")]]
#define GLOBE_BOUNDED [[clang::annotate("globe::bounded")]]
#else
#define GLOBE_UNTRUSTED
#define GLOBE_LENGTH_GUARD
#define GLOBE_BOUNDED
#endif

using size_t = decltype(sizeof(0));

// Wire-buffer stand-in: size() is input-bounded metadata (SIZE_FILTER), any
// other method on a tainted receiver carries the taint (a Reader-style
// decoded value).
struct Bytes {
  Bytes();
  Bytes(size_t n, int fill);  // count constructor: an allocation-sized call
  size_t size() const;
  unsigned u32() const;  // decoded length field — attacker-controlled
};

namespace std {

template <typename T>
class vector {
 public:
  vector();
  vector(size_t n, const T& fill);
  void resize(size_t n);
  void reserve(size_t n);
  void push_back(const T& v);
  void pop_back();
  void clear();
  size_t size() const;
  bool empty() const;
  T& operator[](size_t i);
};

template <typename T>
class deque {
 public:
  void push_back(const T& v);
  void pop_front();
  size_t size() const;
};

template <typename K, typename V>
class map {
 public:
  void emplace(const K& k, const V& v);
  void erase(const K& k);
  size_t size() const;
  V& operator[](const K& k);
};

class string {
 public:
  string();
  string(const char* s);
  string& operator+=(const string& other);
  size_t size() const;
};

template <typename T>
struct unique_ptr {};

template <typename T>
unique_ptr<T> make_unique(size_t n);

}  // namespace std
