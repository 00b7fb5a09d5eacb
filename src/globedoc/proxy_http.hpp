// Browser-facing HTTP front end for the proxy (closing the loop of Fig. 3:
// "User's Web Browser -> 1. Request hybrid URL -> User's Proxy").
//
// Wraps a GlobeDocProxy as a MessageHandler speaking HTTP/1.1, so an
// unmodified browser pointed at the proxy's port transparently gets secure
// GlobeDoc fetches for hybrid URLs and plain passthrough for everything
// else.  Bind it on a SimNet endpoint or a TcpServer.
#pragma once

#include <memory>

#include "globedoc/proxy.hpp"
#include "util/mutex.hpp"

namespace globe::globedoc {

class ProxyHttpServer {
 public:
  /// Takes ownership of the proxy.  The handler serializes requests with a
  /// mutex: one user proxy serves one browser, as in the paper.
  explicit ProxyHttpServer(std::unique_ptr<GlobeDocProxy> proxy);

  net::MessageHandler handler();

  /// Setup/inspection escape hatch: grants unsynchronized access to the
  /// wrapped proxy.  Callers must not race with a live handler().
  GlobeDocProxy& proxy() GLOBE_NO_THREAD_SAFETY_ANALYSIS { return *proxy_; }

 private:
  mutable util::Mutex mutex_;
  // One user proxy serves one browser (paper Fig. 3): the proxy object is
  // driven under the handler mutex.
  std::unique_ptr<GlobeDocProxy> proxy_ GLOBE_PT_GUARDED_BY(mutex_);
};

}  // namespace globe::globedoc
