// Keyed assignment through a map's operator[] inserts every key it has not
// seen: a memo written as `memo_[k] = v` in a long-lived class grows one
// entry per distinct key forever, exactly like an unbounded emplace.
// BOUNDS-EXPECT: flag kind=growth detail=VerifyCache.memo_
#include "_prelude.h"

class VerifyCache {
 public:
  void remember(const std::string& name, const Bytes& oid) {
    memo_[name] = oid;
  }

 private:
  std::map<std::string, Bytes> memo_;
};
