// Page elements: the unit of GlobeDoc content (paper §2).
//
// A Web document is a collection of logically related page elements (HTML,
// images, applets, ...).  The integrity certificate hashes the *serialized*
// element, so the name and content type are covered by the signature along
// with the body.
#pragma once

#include <string>

#include "util/bytes.hpp"
#include "util/status.hpp"

namespace globe::globedoc {

struct PageElement {
  std::string name;          // element name within the object, e.g. "index.html"
  std::string content_type;  // MIME type
  util::Bytes content;

  util::Bytes serialize() const;
  /// The bytes serialize() puts before the content.
  util::Bytes serialize_head() const;
  static util::Result<PageElement> parse(util::BytesView data);
  /// The same, but the content keeps `data`'s buffer: the few bytes before
  /// it are dropped in place instead of the content being copied out.
  static util::Result<PageElement> parse(util::Bytes&& data);

  /// SHA-1 over the serialized element — the digest stored in integrity
  /// certificates.  The fields are hashed in place; no serialized copy is
  /// built.
  util::Bytes digest() const;

  friend bool operator==(const PageElement& a, const PageElement& b) {
    return a.name == b.name && a.content_type == b.content_type &&
           a.content == b.content;
  }
};

}  // namespace globe::globedoc
