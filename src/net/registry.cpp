#include "net/registry.hpp"

#include <iostream>
#include <map>
#include <mutex>
#include <sstream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "net/comm.hpp"
#include "net/shm.hpp"

namespace soi::net {

namespace {
/// Built-in backends land lazily, exactly once, on first registry USE (not
/// on registration — register_backend must stay callable from inside the
/// factories below without recursing).
void ensure_builtins() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_sim_transport();
    register_shm_transport();
  });
}
}  // namespace

struct TransportRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, TransportBackend> backends;
};

TransportRegistry& TransportRegistry::instance() {
  static TransportRegistry registry;
  return registry;
}

TransportRegistry::Impl& TransportRegistry::impl() const {
  static Impl impl;
  return impl;
}

void TransportRegistry::register_backend(const std::string& name,
                                         TransportBackend backend) {
  if (name.empty()) {
    throw InvalidArgumentError(
        "transport registration: backend name must be non-empty");
  }
  if (!backend.run) {
    throw InvalidArgumentError("transport registration: backend '" + name +
                               "' has no run factory");
  }
  auto& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (!im.backends.emplace(name, std::move(backend)).second) {
    throw InvalidArgumentError(
        "transport backend '" + name +
        "' is already registered (factories register exactly once)");
  }
}

const TransportBackend& TransportRegistry::lookup(
    const std::string& name) const {
  ensure_builtins();
  auto& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.backends.find(name);
  if (it == im.backends.end()) {
    std::ostringstream os;
    os << "unknown transport backend '" << name << "'; registered backends:";
    for (const auto& [n, b] : im.backends) os << " " << n;
    throw InvalidArgumentError(os.str());
  }
  return it->second;
}

const TransportCaps& TransportRegistry::caps(const std::string& name) const {
  return lookup(name).caps;
}

bool TransportRegistry::contains(const std::string& name) const {
  ensure_builtins();
  auto& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.backends.count(name) != 0;
}

std::vector<std::string> TransportRegistry::names() const {
  ensure_builtins();
  auto& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::string> out;
  out.reserve(im.backends.size());
  for (const auto& [n, b] : im.backends) out.push_back(n);
  return out;  // std::map iteration is already sorted
}

std::string default_transport() {
  const std::string name = env_str("SOI_TRANSPORT", "sim");
  return name.empty() ? std::string("sim") : name;
}

std::vector<CommEvent> run_world(const std::string& transport, int nranks,
                                 const NetOptions& opts,
                                 const WorldBody& body) {
  const std::string name = transport.empty() ? default_transport() : transport;
  const TransportBackend& backend = TransportRegistry::instance().lookup(name);
  // Capability mismatches are reported, never silently ignored.
  for (const auto& w : unsupported_option_warnings(backend.caps, opts)) {
    std::cerr << "soifft: warning: " << w << "\n";
  }
  return backend.run(nranks, opts, body);
}

std::vector<CommEvent> run_world(const std::string& transport, int nranks,
                                 const WorldBody& body) {
  return run_world(transport, nranks, NetOptions{}, body);
}

}  // namespace soi::net
