// Adversary harness (DESIGN.md S13): handler wrappers that turn an honest
// server into each of the attackers the paper's security argument must
// defeat.  Used by tests, the tamper_detection example, and the
// verification benchmarks.
//
// Every attack below must be *detected* by the proxy (mapped to a typed
// verification error), never silently accepted:
//   * tampering        -> HASH_MISMATCH (or BAD_SIGNATURE when the
//                         certificate itself is forged)
//   * element swapping -> WRONG_ELEMENT (consistency)
//   * stale state      -> EXPIRED (freshness; build via an ObjectServer
//                         loaded with an outdated-but-genuine snapshot)
//   * key substitution -> OID_MISMATCH (self-certifying check)
//   * location lies    -> at most denial of service (paper §3.1.2)
#pragma once

#include "net/transport.hpp"

namespace globe::globedoc {

/// Flips bits in the *content* of every page element served through
/// `inner` (kGetElement responses, and the first element present in a
/// kFetchMany batch).  Other traffic passes through untouched.
net::MessageHandler tampering_element_attack(net::MessageHandler inner);

/// Rewrites every element request — kGetElement, and each name of a
/// kFetchMany batch — to ask `inner` for `decoy_element` instead, serving
/// genuine, fresh, signed content that the client did not ask for (the
/// consistency attack of §3.2.1).
net::MessageHandler element_swap_attack(net::MessageHandler inner,
                                        std::string decoy_element);

/// Replaces the object's public key in security-interface responses with
/// `attacker_key` (and signs nothing else) — caught by the self-certifying
/// OID check.
net::MessageHandler key_substitution_attack(net::MessageHandler inner,
                                            util::Bytes attacker_key_serialized);

/// A malicious Location Service node: answers every lookup with the given
/// bogus contact addresses (paper §3.1.2's misdirection attack).
net::MessageHandler misdirecting_location_node(
    std::vector<net::Endpoint> bogus_addresses);

/// Corrupts the integrity certificate's signature bytes in transit.
net::MessageHandler certificate_forgery_attack(net::MessageHandler inner);

}  // namespace globe::globedoc
