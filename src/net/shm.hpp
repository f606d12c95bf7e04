// Shared-memory multi-process transport — the "shm" backend of the
// net::Transport ABI (net/transport.hpp). Every rank is a forked OS
// PROCESS; the only shared state is one anonymous MAP_SHARED region the
// parent maps before the forks: a world header (abort flag, error slots,
// barrier and reduction rendezvous, resilience configuration, counters),
// one byte-ring inbox per rank with a process-shared mutex/condvar, and a
// reduction scratch area.
//
// What this backend owns — the Transport primitives: isend/irecv as
// framed fragments through the destination's ring with a CRC32C +
// per-(src → dst) sequence envelope (PayloadCorruptionError on mismatch);
// ialltoall(v), whose blocks land straight in the caller's buffer; test
// and wait_for, which drain this rank's ring (other messages wait in a
// process-local mailbox with the same (src, tag) matching as SimMPI);
// barrier; and a rank-ordered vector allreduce. The derived operations
// are the Transport base's.
//
// Progress and failure: a sender blocked on a full ring drains its own
// inbox, then sleeps on its own ring's doorbell, which the destination
// rings when it frees space — no polling on the progress path. Every
// sleep is capped by a short staleness bound that re-checks the abort
// flag. A failing rank records a typed error and raises the flag; the
// parent raises it for a rank killed by a signal; blocked peers unwind
// with WorldAbortedError, and the parent rethrows the first primary error
// by rank order (run_ranks' contract).
//
// No fault injector, latency emulation or traffic events — requesting
// them is REPORTED through unsupported_options(), not ignored.
//
// Fork caveat: rank bodies run in child processes. They may READ parent
// memory (copy-on-write), but writes do not propagate back — assert
// results inside the body and let failures surface as typed errors.
#pragma once

#include <functional>
#include <vector>

#include "net/traffic.hpp"
#include "net/transport.hpp"

namespace soi::net {

/// Launch `nranks` forked rank processes over the shared-memory transport,
/// run `body` in each, and join. The first primary error (by rank order)
/// recorded by a child is rethrown here with its original Status type;
/// ranks that unwound only because a peer failed surface WorldAbortedError
/// and are rethrown only when no primary exists. Returns no traffic events
/// (the backend records none).
std::vector<CommEvent> run_shm_world(
    int nranks, const NetOptions& opts,
    const std::function<void(Transport&)>& body);

/// Registers the "shm" backend in the TransportRegistry. Called exactly
/// once by the registry's lazy initialiser — not by user code.
void register_shm_transport();

}  // namespace soi::net
