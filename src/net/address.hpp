// Host and endpoint addressing for both the simulated network and the live
// TCP transport.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "util/serial.hpp"

namespace globe::net {

/// Index of a host within a network (SimNet host table, or a slot in the
/// TCP transport's peer table).
struct HostId {
  std::uint32_t value = 0;
  auto operator<=>(const HostId&) const = default;
};

/// A contact point: host + port.  GlobeDoc "contact addresses" stored in the
/// Location Service serialize to this.
struct Endpoint {
  HostId host;
  std::uint16_t port = 0;
  auto operator<=>(const Endpoint&) const = default;

  std::string to_string() const {
    return "host" + std::to_string(host.value) + ":" + std::to_string(port);
  }
};

/// An endpoint's wire form, shared by every record that carries one:
/// u32 host, then u16 port.
inline void write_endpoint(util::Writer& w, const Endpoint& ep) {
  w.u32(ep.host.value);
  w.u16(ep.port);
}

inline Endpoint read_endpoint(util::Reader& r) {
  Endpoint ep;
  ep.host.value = r.u32();
  ep.port = r.u16();
  return ep;
}

}  // namespace globe::net

template <>
struct std::hash<globe::net::Endpoint> {
  std::size_t operator()(const globe::net::Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}(std::uint64_t{e.host.value} << 16 | e.port);
  }
};
