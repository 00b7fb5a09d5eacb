// A call spelled std::name(...) is the standard library and must stay
// external: it may not resolve by its bare name onto a project method of
// the same name.  Here `std::fill` would alias onto Tier::fill, whose
// value parameter is a trusted sink, and report raw -> sink.
// TAINT-EXPECT: clean
#include "_prelude.h"
namespace fix {

struct Tier {
  void fill(Bytes* first, Bytes* last, GLOBE_TRUSTED_SINK const Bytes& value);
};

GLOBE_UNTRUSTED Bytes recv_reply();

void scrub(Bytes* first, Bytes* last) {
  Bytes raw = recv_reply();
  std::fill(first, last, raw);
}

}  // namespace fix
