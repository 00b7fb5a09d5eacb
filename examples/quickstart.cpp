// Quickstart: publish a securely replicated Web document and fetch it
// through the GlobeDoc proxy, narrating every step of the paper's Fig. 3.
//
//   1. An owner creates a GlobeDoc object (key pair -> self-certifying OID),
//      fills it with page elements, has a CA certify the OID's real-world
//      identity and signs an integrity certificate.
//   2. The name "news.vu.nl" is registered in the secure naming service.
//   3. A replica is pushed to an (untrusted) object server and its contact
//      address registered in the location service.
//   4. A client proxy resolves the name, locates the replica, verifies the
//      key against the OID, matches the identity certificate against the
//      CAs its user trusts ("Certified as:"), verifies the certificate,
//      fetches the element and checks authenticity / freshness /
//      consistency.
#include <cstdio>

#include "crypto/drbg.hpp"
#include "globedoc/owner.hpp"
#include "globedoc/proxy.hpp"
#include "globedoc/server.hpp"
#include "location/builder.hpp"
#include "naming/service.hpp"
#include "net/simnet.hpp"

using namespace globe;

int main() {
  std::printf("== GlobeDoc quickstart ==\n\n");

  // --- A two-host world: an infrastructure/server host and a client host.
  net::SimNet net;
  auto server_host = net.add_host({"server.vu.nl", net::CpuModel{}});
  auto client_host = net.add_host({"client.example", net::CpuModel{}});
  net.set_link(server_host, client_host, {util::millis(15), 1.0e6});

  // --- Secure naming service (root zone) on the server host.
  auto zone_rng = crypto::HmacDrbg::from_seed(1);
  auto zone_keys = crypto::rsa_generate(1024, zone_rng);
  auto root_zone = std::make_shared<naming::ZoneAuthority>("", zone_keys);
  rpc::ServiceDispatcher naming_dispatcher;
  naming::NamingServer naming_server;
  naming_server.add_zone(root_zone);
  naming_server.register_with(naming_dispatcher);
  net::Endpoint naming_ep{server_host, 53};
  net.bind(naming_ep, naming_dispatcher.handler());
  std::printf("[infra] naming service up at %s\n", naming_ep.to_string().c_str());

  // --- Location service: root + one site per host.
  location::LocationTree tree(net, {
                                       {"root", "", server_host, 100, false},
                                       {"site-server", "root", server_host, 101, true},
                                       {"site-client", "root", client_host, 101, true},
                                   });
  std::printf("[infra] location tree up (root, site-server, site-client)\n");

  // --- An untrusted object server whose keystore authorizes our owner.
  auto cred_rng = crypto::HmacDrbg::from_seed(2);
  auto credentials = crypto::rsa_generate(1024, cred_rng);
  globedoc::ObjectServer object_server("replica-host-1", 3);
  object_server.authorize(credentials.pub);
  rpc::ServiceDispatcher server_dispatcher;
  object_server.register_with(server_dispatcher);
  net::Endpoint server_ep{server_host, 8000};
  net.bind(server_ep, server_dispatcher.handler());
  std::printf("[infra] object server up at %s (owner key authorized)\n\n",
              server_ep.to_string().c_str());

  // --- 1. The owner creates and signs the document.
  auto object_rng = crypto::HmacDrbg::from_seed(4);
  globedoc::GlobeDocObject object = globedoc::GlobeDocObject::create(object_rng, 1024);
  std::printf("[owner] created object, self-certifying OID = %s\n",
              object.oid().to_hex().c_str());
  object.put_element({"index.html", "text/html",
                      util::to_bytes("<html><body><h1>VU News</h1>"
                                     "<img src=logo.gif></body></html>")});
  object.put_element({"logo.gif", "image/gif", util::Bytes(256, 0x47)});
  std::printf("[owner] added 2 page elements\n");

  // Optional: a CA binds the OID to the real-world entity behind it.
  auto ca_rng = crypto::HmacDrbg::from_seed(5);
  globedoc::CertificateAuthority ca("Example Root CA",
                                    crypto::rsa_generate(1024, ca_rng));
  object.add_identity_certificate(
      ca.issue("Vrije Universiteit Amsterdam", object.oid(), util::seconds(86400)));
  std::printf("[owner] %s certified the OID as Vrije Universiteit Amsterdam\n",
              ca.name().c_str());
  globedoc::ObjectOwner owner(std::move(object), credentials);

  // --- 2. Register the human-readable name.
  owner.register_name(*root_zone, "news.vu.nl", util::seconds(86400));
  std::printf("[owner] registered name news.vu.nl -> OID (signed by the zone)\n");

  // --- 3. Sign the state and publish a replica.
  auto owner_flow = net.open_flow(server_host);
  auto state = owner.sign_and_snapshot(owner_flow->now(), util::seconds(3600));
  auto published = owner.publish_replica(*owner_flow, server_ep,
                                         tree.endpoint("site-server"), state);
  if (!published.is_ok()) {
    std::fprintf(stderr, "publish failed: %s\n", published.to_string().c_str());
    return 1;
  }
  std::printf("[owner] replica published (integrity certificate v%llu, 1h TTL)\n\n",
              static_cast<unsigned long long>(owner.object().version()));

  // --- 4. A client fetches through the secure proxy.
  auto client_flow = net.open_flow(client_host);
  globedoc::ProxyConfig config;
  config.naming_root = naming_ep;
  config.naming_anchor = zone_keys.pub;
  config.location_site = tree.endpoint("site-client");
  config.trust.trust(ca.name(), ca.public_key());  // the user trusts this CA
  config.request_identity = true;
  globedoc::GlobeDocProxy proxy(*client_flow, config);

  auto result = proxy.fetch_url("http://globe/news.vu.nl/index.html");
  if (!result.is_ok()) {
    std::fprintf(stderr, "fetch failed: %s\n", result.status().to_string().c_str());
    return 1;
  }
  std::printf("[proxy] GET http://globe/news.vu.nl/index.html\n");
  std::printf("[proxy]   resolved name, located replica, verified key==OID,\n");
  std::printf("[proxy]   verified certificate signature, checked element hash,\n");
  std::printf("[proxy]   freshness and consistency: ALL OK\n");
  if (!result->certified_as) {
    std::fprintf(stderr, "no identity certificate from a trusted CA\n");
    return 1;
  }
  std::printf("[proxy] Certified as: %s\n", result->certified_as->c_str());
  std::printf("[proxy] -> %zu bytes of %s in %.1f ms (%.1f ms security ops)\n\n",
              result->element.content.size(), result->element.content_type.c_str(),
              util::to_millis(result->metrics.total_time),
              util::to_millis(result->metrics.security_time));
  std::printf("content: %s\n", util::to_string(result->element.content).c_str());

  // Bonus: what the browser sees for a tampered fetch is exercised in
  // examples/tamper_detection.cpp.
  return 0;
}
