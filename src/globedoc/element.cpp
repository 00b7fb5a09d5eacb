#include "globedoc/element.hpp"

#include <array>

#include "crypto/sha1.hpp"
#include "util/serial.hpp"

namespace globe::globedoc {

using util::Bytes;
using util::ErrorCode;
using util::Result;

namespace {

util::BytesView bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// The u32 big-endian length util::Writer puts before a field.
std::array<std::uint8_t, 4> length_prefix(std::size_t n) {
  return {static_cast<std::uint8_t>(n >> 24), static_cast<std::uint8_t>(n >> 16),
          static_cast<std::uint8_t>(n >> 8), static_cast<std::uint8_t>(n)};
}

/// parse() up to the content, which is left as a view into `data`.
Result<PageElement> parse_fields(util::BytesView data, util::BytesView& content) {
  try {
    util::Reader r(data);
    PageElement el;
    el.name = r.str();
    el.content_type = r.str();
    content = r.view(r.u32());
    r.expect_end();
    if (el.name.empty()) {
      return Result<PageElement>(ErrorCode::kProtocol, "element with empty name");
    }
    return el;
  } catch (const util::SerialError& e) {
    return Result<PageElement>(ErrorCode::kProtocol, e.what());
  }
}

}  // namespace

Bytes PageElement::serialize() const {
  Bytes out = serialize_head();
  util::append(out, content);
  return out;
}

Bytes PageElement::serialize_head() const {
  util::Writer w;
  w.str(name);
  w.str(content_type);
  w.u32(static_cast<std::uint32_t>(content.size()));
  return w.take();
}

Result<PageElement> PageElement::parse(util::BytesView data) {
  util::BytesView content;
  auto el = parse_fields(data, content);
  if (el.is_ok()) el->content.assign(content.begin(), content.end());
  return el;
}

Result<PageElement> PageElement::parse(util::Bytes&& data) {
  util::BytesView content;
  auto el = parse_fields(data, content);
  if (el.is_ok()) {
    data.erase(data.begin(), data.begin() + (content.data() - data.data()));
    el->content = std::move(data);
  }
  return el;
}

Bytes PageElement::digest() const {
  // serialize()'s bytes, hashed where they lie.
  const auto name_len = length_prefix(name.size());
  const auto type_len = length_prefix(content_type.size());
  const auto content_len = length_prefix(content.size());
  auto d = crypto::Sha1::digest_parts({name_len, bytes_of(name), type_len,
                                       bytes_of(content_type), content_len, content});
  return Bytes(d.begin(), d.end());
}

}  // namespace globe::globedoc
