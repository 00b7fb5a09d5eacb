// Assigning through a vector's operator[] overwrites an existing slot; only
// map-like containers insert on subscript, so this is not growth.
// BOUNDS-EXPECT: clean
#include "_prelude.h"

class SlotCache {
 public:
  void set(size_t i, const Bytes& frame) { slots_[i] = frame; }

 private:
  std::vector<Bytes> slots_;
};
