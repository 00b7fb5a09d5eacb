// Every operator[] on a map inserts a missing key, not only an assignment
// through it: binding a reference (`Session& s = m[k]`), incrementing
// (`++m[k]`) and writing a field (`m[k].f = v`) grow the map just the same.
// A server that keeps one session per hello this way never lets one go.
// BOUNDS-EXPECT: flag kind=growth detail=HandshakeServer.sessions_
// BOUNDS-EXPECT: flag kind=growth detail=HandshakeServer.hellos_
// BOUNDS-EXPECT: flag kind=growth detail=HandshakeServer.peers_
#include "_prelude.h"

class HandshakeServer {
 public:
  void hello(int id, const Bytes& random) {
    Bytes& slot = sessions_[id];
    slot = random;
    ++hellos_[id];
    peers_[id].random = random;
  }

 private:
  struct Peer {
    Bytes random;
  };
  std::map<int, Bytes> sessions_;
  std::map<int, int> hellos_;
  std::map<int, Peer> peers_;
};
