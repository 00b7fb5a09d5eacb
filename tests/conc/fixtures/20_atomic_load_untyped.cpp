// An std::atomic member called on a receiver the frontend cannot type (a
// global here) must not resolve by its bare name: `g_hits20.load()` would
// alias onto Cache20::load, which takes the mutex record() already holds,
// and read as a self-deadlock.
// CONC-EXPECT: clean
#include "_prelude.h"

std::atomic<int> g_hits20;

class Cache20 {
 public:
  int load() {
    util::LockGuard g(mu_);
    return n_;
  }

  void record() {
    util::LockGuard g(mu_);
    n_ = g_hits20.load();
  }

 private:
  util::Mutex mu_;
  int n_ = 0;
};
