// Shared-memory multi-process transport — the "shm" backend of the
// net::Transport ABI. Unlike SimMPI's thread-per-rank world, every rank is
// a forked OS PROCESS with its own address space; the only shared state is
// one anonymous MAP_SHARED region created by the parent before the forks:
//
//   * a world header (abort flag, per-rank error slots, barrier and
//     reduction rendezvous state, resilience configuration, fault/timeout
//     counters),
//   * one byte-ring inbox per rank, guarded by a process-shared
//     pthread mutex/cond pair,
//   * a rank-ordered reduction scratch area.
//
// Messages travel as framed fragments through the destination's ring and
// carry the same integrity envelope SimMPI stamps: a CRC32C over the whole
// payload plus a per-(src → dst) sequence number, verified at delivery
// (PayloadCorruptionError on mismatch — shared-memory corruption is
// DETECTED, never silently consumed). The receiver drains its ring,
// landing each block of a posted all-to-all straight in the caller's
// buffer and everything else in a process-local mailbox, where (src, tag)
// match out of order exactly like SimMPI's mailbox — so matching
// semantics, any-source receives, request drop rules and
// collective-channel ordering are bit-compatible across the two backends.
//
// Flow control is deadlock-free by construction: a sender blocked on a
// full destination ring drains its OWN inbox, then sleeps on its own
// ring's doorbell, which the destination rings when it frees space — so
// two ranks streaming into each other always make progress, without
// polling. Every sleep is also capped by a short staleness bound that
// re-checks the world abort flag, so a dead peer can never hang the world:
// the failing rank records a typed error in its slot and flips the flag;
// every blocked peer unwinds with WorldAbortedError; the parent rethrows
// the first primary error by rank order (exactly run_ranks' contract).
//
// Capability sheet: no fault injector and no latency emulation (the
// kernel's scheduler is the only source of nondeterminism) — requesting
// either is REPORTED through unsupported_options(), not ignored. Traffic
// events are not recorded (child-side logs cannot reach the parent).
//
// IMPORTANT fork caveat for callers: rank bodies run in child processes.
// They may READ parent memory (copy-on-write), but writes do not propagate
// back — assert results inside the body and let failures surface as child
// exit codes / typed errors.
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
