// Apache-style static file server over an in-memory document root.
// This is the plain-HTTP baseline of the paper's Figures 5-7.
#pragma once

#include <map>
#include <string>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/bounds_annotations.hpp"
#include "util/mutex.hpp"

namespace globe::http {

class StaticHttpServer {
 public:
  /// `registry` receives the http.static.* series (labeled with the server
  /// name); nullptr means the process-wide obs::global_registry().
  explicit StaticHttpServer(std::string server_name = "SimApache/1.3",
                            obs::MetricsRegistry* registry = nullptr);

  /// Publishes `content` at `path` (must start with '/').  Content type is
  /// guessed from the suffix; the ETag is precomputed.
  void put_file(const std::string& path, util::Bytes content)
      GLOBE_EXCLUDES(mutex_);
  void remove_file(const std::string& path) GLOBE_EXCLUDES(mutex_);
  bool has_file(const std::string& path) const GLOBE_EXCLUDES(mutex_);
  std::size_t file_count() const GLOBE_EXCLUDES(mutex_);

  /// Serves one parsed request (GET/HEAD only).
  HttpResponse handle(const HttpRequest& req) const GLOBE_EXCLUDES(mutex_);

  /// MessageHandler adapter: request bytes are a serialized HTTP request,
  /// response bytes a serialized HTTP response.
  net::MessageHandler handler();

 private:
  struct FileEntry {
    util::Bytes content;
    std::string content_type;
    std::string etag;
  };

  std::string server_name_;
  mutable util::Mutex mutex_;
  std::map<std::string, FileEntry> files_ GLOBE_BOUNDED GLOBE_GUARDED_BY(mutex_);
  // Registry series, labeled by server name; status label added per reply.
  obs::MetricsRegistry* registry_;
  obs::Counter* requests_counter_;
  obs::Counter* bytes_counter_;
};

}  // namespace globe::http
