// TransportRegistry: named factories for net::Transport backends, plus
// run_world() — the transport-generic way to launch a rank team. This is
// how code above src/net selects a fabric at runtime:
//
//   net::run_world("shm", 8, opts, [](net::Transport& t) { ... });
//
// Built-in backends ("sim" and "shm") are registered lazily, exactly
// once, on first registry use — no static-initialisation-order or
// dead-TU-stripping hazards. Additional backends may be registered before first use via
// register_backend(); duplicate names are an error (exactly-once factory
// registration is part of the contract, and tested).
//
// Name resolution: an empty transport name means "the default", which is
// the SOI_TRANSPORT environment variable when set, else "sim". Unknown
// names throw soi::InvalidArgumentError listing every registered backend.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/traffic.hpp"
#include "net/transport.hpp"

namespace soi::net {

/// Rank body of a transport-generic world: called once per rank with that
/// rank's communicator. With cross-process backends the body runs in a
/// CHILD process — writes to captured host memory do not propagate back to
/// the caller; results must flow through the transport or side effects
/// (files, exit codes).
using WorldBody = std::function<void(Transport&)>;

/// One registered backend: its static capability sheet plus the factory
/// that launches a world.
struct TransportBackend {
  TransportCaps caps;
  /// Launch `nranks` ranks, run `body` on each, join, and return the
  /// world's traffic events (empty unless caps.traffic_events). Rank-body
  /// exceptions are captured; the first primary error (by rank order) is
  /// rethrown after the join, exactly like net::run_ranks.
  std::function<std::vector<CommEvent>(int nranks, const NetOptions& opts,
                                       const WorldBody& body)>
      run;
};

/// Process-wide, thread-safe backend table. Lookups trigger the lazy
/// built-in registration; registration itself is exactly-once per name.
class TransportRegistry {
 public:
  /// The singleton. Never returns null; safe to call concurrently.
  static TransportRegistry& instance();

  /// Register a backend under `name`. Throws soi::InvalidArgumentError if
  /// the name is empty or already registered (factories register once).
  void register_backend(const std::string& name, TransportBackend backend);

  /// Look up a backend; throws soi::InvalidArgumentError naming every
  /// registered backend when `name` is unknown. The reference stays valid
  /// for the process lifetime (backends are never unregistered).
  const TransportBackend& lookup(const std::string& name) const;

  /// Static capability sheet of a registered backend (no world needed).
  const TransportCaps& caps(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Registered backend names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  TransportRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// The transport name an empty selection resolves to: $SOI_TRANSPORT when
/// set (and non-empty), else "sim".
std::string default_transport();

/// Launch a world of `nranks` over the named transport ("" = default) and
/// run `body` on every rank. NetOptions fields the backend cannot honour
/// are reported to stderr (one warning line each) before launch — options
/// are never silently ignored. Returns the world's traffic events.
std::vector<CommEvent> run_world(const std::string& transport, int nranks,
                                 const NetOptions& opts, const WorldBody& body);

/// Convenience overload: default options.
std::vector<CommEvent> run_world(const std::string& transport, int nranks,
                                 const WorldBody& body);

}  // namespace soi::net
