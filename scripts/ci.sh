#!/usr/bin/env bash
# CI driver: tier-1 verification, sanitizer passes over the core suites,
# and a tuning-pipeline smoke run.
#
#   scripts/ci.sh             # everything
#   scripts/ci.sh tier1       # just the standard build + full ctest
#   scripts/ci.sh asan        # just the ASan build + core suites
#   scripts/ci.sh tsan        # ThreadSanitizer build + SimMPI dist/pipeline
#   scripts/ci.sh chaos       # fault-injection suites under ASan + TSan
#   scripts/ci.sh coded       # erasure-coded exchange suites + CLI
#   scripts/ci.sh topology    # staged-exchange suites (two-level + torus)
#   scripts/ci.sh backends    # transport/engine registries, shm conformance
#   scripts/ci.sh serve-mix   # mixed-shape epoch scheduling suites + CLI
#   scripts/ci.sh smoke       # just the tune -> wisdom -> reuse smoke
#   scripts/ci.sh bench-smoke # JSON benches on tiny sizes, validated
#
# Each stage uses its own build tree under build-ci/ so a normal build/
# is never clobbered.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_tier1() {
  echo "=== tier-1: standard build + full test suite ==="
  cmake -B build-ci/tier1 -S . >/dev/null
  cmake --build build-ci/tier1 -j "${jobs}"
  (cd build-ci/tier1 && ctest --output-on-failure -j "${jobs}")
}

run_asan() {
  echo "=== asan: AddressSanitizer build + core suites ==="
  cmake -B build-ci/asan -S . -DSOI_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-ci/asan -j "${jobs}" --target \
    test_common test_net test_fft test_batch_fft test_fft_float test_soi \
    test_dist test_pipeline test_tune
  # The scalar tier runs every batch pass through the one-lane (W = 1)
  # kernel instantiations; the batch and float suites run there too so
  # those get sanitizer coverage over the whole suite.
  (cd build-ci/asan &&
    ./tests/test_common && ./tests/test_net && ./tests/test_fft &&
    ./tests/test_batch_fft && ./tests/test_fft_float &&
    SOI_SIMD=scalar ./tests/test_batch_fft &&
    SOI_SIMD=scalar ./tests/test_fft_float && ./tests/test_soi &&
    ./tests/test_dist && ./tests/test_pipeline && ./tests/test_tune)
}

run_tsan() {
  echo "=== tsan: ThreadSanitizer build + SimMPI dist/pipeline suites ==="
  # The suites that exercise cross-thread rank communication: the SimMPI
  # mailbox fabric itself (including the nonblocking Request layer, whose
  # receive-side progress runs on the waiter's thread), both all-to-all
  # algorithms, the halo-overlap path, and the chunked dataflow schedules
  # with their barrier-bracketed steady-state checks. OpenMP is disabled:
  # libgomp's barriers are opaque to TSan and drown the run in false
  # positives; rank-level threading is what this stage verifies.
  cmake -B build-ci/tsan -S . -DSOI_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_DISABLE_FIND_PACKAGE_OpenMP=ON >/dev/null
  cmake --build build-ci/tsan -j "${jobs}" --target \
    test_net test_dist test_pipeline test_serve
  (cd build-ci/tsan &&
    ./tests/test_net && ./tests/test_dist && ./tests/test_pipeline &&
    ./tests/test_serve)
  # The nonblocking-comm, dataflow and serving suites are the prime TSan
  # targets; assert they actually ran (a filter typo or a suite rename must
  # fail the stage, not silently skip the coverage). test_serve is the
  # richest cross-thread surface in the tree: admission from the caller
  # thread, a scheduler thread, worker pools and a full SimMPI rank team
  # all sharing one service mutex and the lock-free metrics block.
  (cd build-ci/tsan &&
    ./tests/test_net --gtest_filter='Nonblocking.*:TryRecv.*' \
      | grep -q "PASSED" &&
    ./tests/test_pipeline \
      --gtest_filter='Pipeline.Chunked*:Pipeline.Reentrant*:Pipeline.CoScheduled*' \
      | grep -q "PASSED" &&
    ./tests/test_serve --gtest_filter='ServeDist.*:ServeSerial.*' \
      | grep -q "PASSED")
}

run_chaos() {
  echo "=== chaos: fault-injection suites under sanitizers ==="
  # ASan sees the full fault suite: spec parsing, CRC32C vectors, the
  # transport recovery paths, the seed-swept chaos gates, the residual
  # guard, input validation and every typed error path. Injected faults
  # drive the retransmit/abort machinery through buffers that a fault-free
  # run never touches, which is exactly where ASan earns its keep.
  cmake -B build-ci/asan -S . -DSOI_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-ci/asan -j "${jobs}" --target test_fault
  (cd build-ci/asan && ./tests/test_fault)
  # TSan sees the suites where ranks take the recovery paths concurrently:
  # the SimMPI fault + nonblocking tests and the cross-thread chaos/
  # degradation sweeps. Mailbox locking must hold up while one rank
  # retransmits, another aborts and a third sits in a bounded wait.
  # OpenMP off for the same reason as run_tsan.
  cmake -B build-ci/tsan -S . -DSOI_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_DISABLE_FIND_PACKAGE_OpenMP=ON >/dev/null
  cmake --build build-ci/tsan -j "${jobs}" --target test_net test_fault
  (cd build-ci/tsan &&
    ./tests/test_net --gtest_filter='Fault.*:Nonblocking.*' \
      | grep -q "PASSED" &&
    ./tests/test_fault \
      --gtest_filter='Transport.*:Chaos.*:*ChaosSweep*:Degradation.*:ResidualGuard.*' \
      | grep -q "PASSED")
  echo "chaos OK"
}

run_coded() {
  echo "=== coded: erasure-coded exchange suites under sanitizers + CLI ==="
  # ASan: the GF(2^8) codec unit tests (field axioms, XOR fast path,
  # Reed-Solomon over every k-subset of shards, malformed present-lists)
  # plus the coded chaos gates: in-band parity recovery, corruption
  # treated as erasure, straggler abandonment, the > r fallback, and the
  # coded staged/pipelined schedules. Reconstruction writes through shard
  # pointer tables into framed scratch — exactly where ASan earns its
  # keep. The straggler injection suites ride along: same PR, same layer.
  cmake -B build-ci/asan -S . -DSOI_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-ci/asan -j "${jobs}" --target test_net test_fault
  (cd build-ci/asan &&
    ./tests/test_net --gtest_filter='Erasure.*' | grep -q "PASSED" &&
    ./tests/test_fault --gtest_filter='ChaosCoded.*:*Straggler*:Chaos.Stragglers*' \
      | grep -q "PASSED")
  # TSan: every rank decodes its own codewords while peers' shards (and
  # retransmit fallbacks) land concurrently in the mailbox — the coded
  # mailbox semantics (erasure GC, parked-copy opt-out) must hold up
  # under the race detector. OpenMP off for the same reason as run_tsan.
  cmake -B build-ci/tsan -S . -DSOI_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_DISABLE_FIND_PACKAGE_OpenMP=ON >/dev/null
  cmake --build build-ci/tsan -j "${jobs}" --target test_net test_fault
  (cd build-ci/tsan &&
    ./tests/test_net --gtest_filter='Erasure.*' | grep -q "PASSED" &&
    ./tests/test_fault --gtest_filter='ChaosCoded.*' | grep -q "PASSED")
  # End-to-end: the coded exchange through the CLI with the accuracy
  # check on, over both transports; under injected loss the recovery
  # counters must surface in the coded summary line; a malformed K+R must
  # fail fast listing the valid forms.
  cmake -B build-ci/tier1 -S . >/dev/null
  cmake --build build-ci/tier1 -j "${jobs}" --target soifft
  build-ci/tier1/tools/soifft dist --n 4096 --p 4 --check --coding 2+1 \
    --transport sim >/dev/null
  build-ci/tier1/tools/soifft dist --n 4096 --p 4 --check --coding 2+1 \
    --transport shm >/dev/null
  build-ci/tier1/tools/soifft dist --n 8192 --p 4 --check --coding 2+1 \
    --fault-spec 19:drop:0.03 | grep -q "coded exchange"
  if build-ci/tier1/tools/soifft dist --n 4096 --p 4 --coding 4+9 \
      >/dev/null 2>build-ci/coded_err.txt; then
    echo "invalid coding must be rejected" >&2
    exit 1
  fi
  grep -q "want K+R" build-ci/coded_err.txt
  echo "coded OK"
}

run_topology() {
  echo "=== topology: staged-exchange suites over two-level + torus ==="
  # Standard build: the topology plan/routing invariants, the staged
  # all-to-all bit-identity and chaos gates, the full-pipeline
  # bit-identity/zero-allocation suites at chunk depths 2-4, the wisdom
  # v4 topo round-trips, and both staged schedules end-to-end through
  # the CLI with the accuracy check on.
  cmake -B build-ci/tier1 -S . >/dev/null
  cmake --build build-ci/tier1 -j "${jobs}" --target \
    test_net test_pipeline test_fault test_tune soifft
  (cd build-ci/tier1 &&
    ./tests/test_net --gtest_filter='Topology.*:StagedAlltoall.*:WireLatency.IntraGroup*' \
      | grep -q "PASSED" &&
    ./tests/test_pipeline --gtest_filter='Pipeline.Topology*:Pipeline.StagedTopology*' \
      | grep -q "PASSED" &&
    ./tests/test_fault --gtest_filter='Chaos.Staged*:Chaos.PipelinedDeepChunk*' \
      | grep -q "PASSED" &&
    ./tests/test_tune --gtest_filter='*Topology*:Wisdom.V4*' \
      | grep -q "PASSED")
  build-ci/tier1/tools/soifft dist --n 36864 --p 4 --accuracy medium \
    --check --topology two-level:2 >/dev/null
  build-ci/tier1/tools/soifft dist --n 36864 --p 4 --accuracy medium \
    --check --topology torus:2x2x1 >/dev/null
  # TSan: the staged store-and-forward path has every rank juggling
  # per-phase irecv/isend request slots while neighbours retransmit —
  # the mailbox and request-slot locking must hold up across hops.
  # OpenMP off for the same reason as run_tsan.
  cmake -B build-ci/tsan -S . -DSOI_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_DISABLE_FIND_PACKAGE_OpenMP=ON >/dev/null
  cmake --build build-ci/tsan -j "${jobs}" --target test_net test_pipeline
  (cd build-ci/tsan &&
    ./tests/test_net --gtest_filter='Topology.*:StagedAlltoall.*' \
      | grep -q "PASSED" &&
    ./tests/test_pipeline --gtest_filter='Pipeline.Topology*:Pipeline.StagedTopology*' \
      | grep -q "PASSED")
  echo "topology OK"
}

run_backends() {
  echo "=== backends: transport/engine registries + shm suites under sanitizers ==="
  # Layering lint: outside src/net, code sees rank communication only
  # through net/transport.hpp and net/registry.hpp — a concrete backend
  # include (SimMPI's net/comm.hpp, shm's net/shm.hpp) would re-couple it
  # to one backend. Tests may include them. Any match fails the stage.
  if grep -rnE '#include "net/(comm|shm)\.hpp"' src tools bench examples \
      --exclude-dir=net; then
    echo "layering violation: only src/net may include net/comm.hpp or" \
      "net/shm.hpp (use the Transport ABI)" >&2
    exit 1
  fi
  # ASan: registry lifecycle, the conformance suite over every launchable
  # backend, and the sim/shm bit-identity parity checks. The shm rings'
  # pack/unpack copies and the fork+mmap teardown paths only run here, so
  # this is where ASan watches both sides of the cross-process data path.
  cmake -B build-ci/asan -S . -DSOI_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-ci/asan -j "${jobs}" --target test_backends
  # One OpenMP thread: libgomp's thread pool does not survive fork, so a
  # shm world forked after an earlier test's parallel region would hang in
  # its first parallel region.
  (cd build-ci/asan && OMP_NUM_THREADS=1 ./tests/test_backends)
  # TSan: the concurrent-lookup registry tests plus the same conformance
  # suite. The shm backend's children are single-threaded (fork happens
  # before any thread spawns), so TSan's fork caveats don't apply; the sim
  # backend runs its full threaded rank team under the race detector.
  # OpenMP off for the same reason as run_tsan.
  cmake -B build-ci/tsan -S . -DSOI_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_DISABLE_FIND_PACKAGE_OpenMP=ON >/dev/null
  cmake --build build-ci/tsan -j "${jobs}" --target test_backends
  (cd build-ci/tsan && ./tests/test_backends | grep -q "PASSED")
  # End-to-end: the same distributed transform through the CLI over both
  # transports and both engines, with the accuracy check on. An unknown
  # backend name must fail fast with the registry's listing error.
  cmake -B build-ci/tier1 -S . >/dev/null
  cmake --build build-ci/tier1 -j "${jobs}" --target soifft
  build-ci/tier1/tools/soifft dist --n 4096 --p 4 --check \
    --transport sim >/dev/null
  build-ci/tier1/tools/soifft dist --n 4096 --p 4 --check \
    --transport shm >/dev/null
  # Blocks of ~1.3 MB per rank pair: every exchange overflows the 1 MiB shm
  # ring, so blocked senders, doorbells and in-place landing all run.
  build-ci/tier1/tools/soifft dist --n 1048576 --p 4 --check \
    --transport shm >/dev/null
  build-ci/tier1/tools/soifft dist --n 4096 --p 4 --check \
    --transport shm --engine scalar >/dev/null
  SOI_TRANSPORT=shm SOI_FFT_ENGINE=scalar \
    build-ci/tier1/tools/soifft dist --n 4096 --p 4 --check >/dev/null
  if build-ci/tier1/tools/soifft dist --n 4096 --p 4 \
      --transport no-such-backend >/dev/null 2>build-ci/backends_err.txt; then
    echo "unknown transport name must be rejected" >&2
    exit 1
  fi
  grep -q "registered backends" build-ci/backends_err.txt
  if build-ci/tier1/tools/soifft dist --n 4096 --p 4 \
      --engine no-such-engine >/dev/null 2>build-ci/backends_err.txt; then
    echo "unknown engine name must be rejected" >&2
    exit 1
  fi
  grep -q "registered engines" build-ci/backends_err.txt
  echo "backends OK"
}

run_serve_mix() {
  echo "=== serve-mix: mixed-shape epoch scheduling under sanitizers ==="
  # ASan: the epoch-packing scheduler and the epoch executor that runs
  # every pack, one lane or several. Mixed-shape composition, priority
  # tiers, deadline shedding, budget throttling and the per-member
  # fault-isolation gate drive the epoch scratch tables and per-member
  # channel bindings that solo forward() exercises only at one member.
  cmake -B build-ci/asan -S . -DSOI_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-ci/asan -j "${jobs}" --target test_serve test_fault
  (cd build-ci/asan &&
    ./tests/test_serve \
      --gtest_filter='ServePriority.*:ServeDist.*:ServeSerial.*' \
      | grep -q "PASSED" &&
    ./tests/test_fault --gtest_filter='Chaos.MixedShapeEpoch*' \
      | grep -q "PASSED")
  # TSan: the same suites with the scheduler thread packing epochs while
  # callers submit, the rank team runs merged schedules and the harvester
  # waits — the richest cross-thread interleaving in the tree. OpenMP off
  # for the same reason as run_tsan.
  cmake -B build-ci/tsan -S . -DSOI_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_DISABLE_FIND_PACKAGE_OpenMP=ON >/dev/null
  cmake --build build-ci/tsan -j "${jobs}" --target test_serve test_fault
  (cd build-ci/tsan &&
    ./tests/test_serve \
      --gtest_filter='ServePriority.*:ServeDist.*:ServeSerial.*' \
      | grep -q "PASSED" &&
    ./tests/test_fault --gtest_filter='Chaos.MixedShapeEpoch*' \
      | grep -q "PASSED")
  # End-to-end: `soifft serve` with priority/deadline flags over both
  # transports. The sim team serves in-process; shm ranks live in
  # separate processes, so serving falls back to the worker backend with
  # a note — either way the request mix must complete. An unknown tier
  # must fail fast listing the valid ones.
  cmake -B build-ci/tier1 -S . >/dev/null
  cmake --build build-ci/tier1 -j "${jobs}" --target soifft
  build-ci/tier1/tools/soifft serve --n 4096 --requests 6 --transport sim \
    --p 2 --priority interactive --deadline-ms 30000 >/dev/null
  build-ci/tier1/tools/soifft serve --n 4096 --requests 6 --transport shm \
    --p 2 --priority background --deadline-ms 30000 \
    >/dev/null 2>build-ci/serve_mix_note.txt
  grep -q "serial worker backend" build-ci/serve_mix_note.txt
  if build-ci/tier1/tools/soifft serve --n 4096 --requests 2 \
      --priority urgent >/dev/null 2>build-ci/serve_mix_err.txt; then
    echo "unknown priority tier must be rejected" >&2
    exit 1
  fi
  grep -q "valid tiers" build-ci/serve_mix_err.txt
  echo "serve-mix OK"
}

run_smoke() {
  echo "=== smoke: tune -> wisdom -> reuse pipeline ==="
  local bin=build-ci/tier1/tools/soifft
  if [ ! -x "${bin}" ]; then
    cmake -B build-ci/tier1 -S . >/dev/null
    cmake --build build-ci/tier1 -j "${jobs}" --target soifft
  fi
  local wisdom=build-ci/smoke_wisdom.txt
  rm -f "${wisdom}"
  "${bin}" tune --n 4096 --p 4 --wisdom "${wisdom}"
  "${bin}" transform --n 4096 --p 4 --wisdom "${wisdom}" --check \
    | grep "cache hit"
  "${bin}" dist --n 4096 --p 4 --wisdom "${wisdom}" --check \
    | grep "cache hit"
  echo "smoke OK"
}

run_bench_smoke() {
  echo "=== bench-smoke: JSON benches on tiny sizes ==="
  if [ ! -x build-ci/tier1/bench/bench_batch_fft ] ||
     [ ! -x build-ci/tier1/bench/bench_tuned ] ||
     [ ! -x build-ci/tier1/bench/bench_serve ] ||
     [ ! -x build-ci/tier1/bench/bench_alltoall ]; then
    cmake -B build-ci/tier1 -S . >/dev/null
    cmake --build build-ci/tier1 -j "${jobs}" --target \
      bench_batch_fft bench_tuned bench_serve bench_alltoall
  fi
  # Tiny shapes so the stage takes seconds; the point is that every bench
  # runs end-to-end and emits a well-formed, non-empty record array.
  local out=build-ci/bench_smoke
  mkdir -p "${out}"
  SOI_BENCH_REPS=2 SOI_BENCH_BATCH_MAX=8 SOI_BENCH_BATCH_LENGTHS=32,30 \
    build-ci/tier1/bench/bench_batch_fft --json \
    > "${out}/batch_fft.json"
  SOI_BENCH_REPS=2 build-ci/tier1/bench/bench_tuned --json \
    > "${out}/tuned.json"
  # Tiny serving trace: few requests, small shapes, a short emulated wire
  # so the queueing fields are exercised without a multi-second run.
  SOI_BENCH_SERVE_LOG2=11 SOI_BENCH_SERVE_REQUESTS=24 \
    SOI_BENCH_SERVE_RANKS=2 SOI_BENCH_SERVE_LAT_US=50 \
    build-ci/tier1/bench/bench_serve --json > "${out}/serve.json"
  python3 - "${out}/serve.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    records = json.load(f)
assert isinstance(records, list) and records, f"{path}: empty or not a list"
# Every serving record must carry the queueing schema extension.
cases = {r["case"] for r in records}
for want in ("serial_baseline", "serve_dist", "serve_serial",
             "mix_70_30", "mix_uniform", "mix_priority_skew"):
    assert any(want in c for c in cases), f"{path}: missing case {want}"
for r in records:
    for key in ("p50_ms", "p99_ms", "transforms_per_sec", "admitted",
                "rejected", "queue_peak"):
        assert key in r, f"{path}: record missing {key}: {r}"
    assert r["transforms_per_sec"] > 0, f"{path}: no throughput: {r}"
    assert r["p99_ms"] >= r["p50_ms"] > 0, f"{path}: bad latency order: {r}"
    assert r["admitted"] > 0 and r["rejected"] >= 0, f"{path}: counters: {r}"
    if r["case"].startswith(("serve", "mix")):
        # The service's acceptance criterion: nothing allocates on the
        # request path after warmup. (The one-at-a-time baseline does not
        # instrument allocations; it reports -1.)
        assert r["steady_state_allocs"] == 0, \
            f"{path}: serving steady state allocated: {r}"
        # Deadline-aware shedding: the counter rides on every service
        # record, disjoint from rejected, and nothing sheds below
        # capacity at the smoke sizes.
        assert r.get("shed") == 0, f"{path}: unexpected sheds: {r}"
        # Per-tier split: tiers are named, counters add up to the record
        # totals, and quantiles are ordered within each tier.
        tiers = r.get("tiers")
        assert tiers, f"{path}: service record missing tiers: {r}"
        names = {t["tier"] for t in tiers}
        assert names <= {"interactive", "batch", "background"}, \
            f"{path}: unknown tier names {names}: {r}"
        assert sum(t["admitted"] for t in tiers) == r["admitted"], \
            f"{path}: tier admitted != total: {r}"
        for t in tiers:
            assert t["completed"] >= 0 and t["shed"] >= 0, \
                f"{path}: bad tier counters: {t}"
            if t["completed"] > 0:
                assert t["p99_ms"] >= t["p50_ms"] > 0, \
                    f"{path}: bad tier latency order: {t}"
mixes = [r for r in records if r["case"].startswith("mix_")]
assert any(len(r.get("tiers", [])) >= 2 for r in mixes), \
    f"{path}: no mix record saw multiple priority tiers"
# The mixes ride the epoch-packed dist backend; the overlap metric the
# acceptance gate reads must be present and sane.
for r in mixes:
    eff = r.get("overlap_efficiency")
    assert eff is not None and 0.0 <= eff <= 1.0, \
        f"{path}: bad overlap_efficiency {eff}: {r}"
print(f"{path}: {len(records)} serving records OK")
EOF
  python3 - "${out}/batch_fft.json" "${out}/tuned.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        records = json.load(f)
    assert isinstance(records, list) and records, f"{path}: empty or not a list"
    for r in records:
        for key in ("bench", "case", "n", "batch", "seconds", "ns_per_point",
                    "peak_rss_bytes", "steady_state_allocs"):
            assert key in r, f"{path}: record missing {key}: {r}"
        assert r["peak_rss_bytes"] > 0, f"{path}: bogus peak_rss_bytes: {r}"
    traced = [r for r in records if "stages" in r]
    if "tuned" in path:
        # bench_tuned must emit per-stage traces whose wall times are
        # self-consistent with the record total, and a zero-allocation
        # steady state on every traced shape.
        assert traced, f"{path}: no record carries a stages array"
        # Every tuned record names the (transport, engine) pair the run was
        # priced and executed on — the fields downstream gain analysis keys
        # results by.
        for r in records:
            for key in ("transport", "engine"):
                assert r.get(key), f"{path}: record missing {key}: {r}"
        for r in traced:
            assert r["steady_state_allocs"] == 0, \
                f"{path}: steady-state forward allocated: {r}"
            eff = r.get("overlap_efficiency")
            assert eff is not None and 0.0 <= eff <= 1.0, \
                f"{path}: bad overlap_efficiency {eff}: {r}"
            # Resilience counters ride on every traced record: a fault-free
            # bench must report the fields present and at zero (the bench
            # runs with no injector), and the checksums+guard overhead
            # measurement must have produced a finite ratio.
            for key in ("faults_injected", "retries", "checksum_failures",
                        "resilience_overhead"):
                assert key in r, f"{path}: traced record missing {key}: {r}"
            assert r["faults_injected"] == 0 and \
                r["checksum_failures"] == 0 and r["retries"] == 0, \
                f"{path}: fault-free bench reported faults/retries: {r}"
            assert -0.5 <= r["resilience_overhead"] <= 10.0, \
                f"{path}: implausible resilience_overhead: {r}"
            stage_sum = sum(s["seconds"] for s in r["stages"])
            assert abs(stage_sum - r["seconds"]) <= 0.05 * r["seconds"], \
                f"{path}: stage sum {stage_sum} vs total {r['seconds']}: {r}"
            for s in r["stages"]:
                assert s["chunks"] >= 1, f"{path}: bad chunks: {s}"
                assert 0.0 <= s["wait_seconds"] <= s["seconds"] + 1e-12, \
                    f"{path}: wait exceeds stage time: {s}"
                assert isinstance(s["measured"], bool), \
                    f"{path}: measured not a bool: {s}"
                assert s["retries"] == 0, \
                    f"{path}: fault-free stage recorded retries: {s}"
            names = [s["stage"] for s in r["stages"]]
            assert names == ["halo", "conv", "f_p", "exchange", "unpack",
                             "f_mprime", "demod"], f"{path}: bad chain {names}"
        # Part 1b's cost-model invariant rides along in the same array:
        # the best overlapped schedule is never priced above in-order.
        priced = {r["case"]: r["seconds"] for r in records}
        pairs = 0
        for case, sec in priced.items():
            if case.startswith("overlapped "):
                inorder = priced.get("in-order " + case[len("overlapped "):])
                assert inorder is not None and sec <= inorder, \
                    f"{path}: overlapped {sec} > in-order {inorder} ({case})"
                pairs += 1
        assert pairs > 0, f"{path}: no overlapped/in-order record pairs"
    print(f"{path}: {len(records)} records OK"
          f" ({len(traced)} with stage traces)")
EOF
  # Topology sweep: the raw exchange grid must carry bisection traffic for
  # every schedule, and the end-to-end dist sweep must carry overlap
  # efficiency — the fields the two-level-vs-flat acceptance gate reads.
  build-ci/tier1/bench/bench_alltoall --json > "${out}/alltoall.json"
  python3 - "${out}/alltoall.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    records = json.load(f)
assert isinstance(records, list) and records, f"{path}: empty or not a list"
loss = [r for r in records if r["case"].endswith(" exchange")]
raw = [r for r in records
       if not r["case"].startswith("dist ") and r not in loss]
dist = [r for r in records if r["case"].startswith("dist ")]
assert raw and dist, f"{path}: need both raw-exchange and dist records"
topos = {"flat", "two-level", "torus"}
for want in topos:
    assert any(want in r["case"] for r in raw), f"{path}: no raw {want} case"
    assert any(want in r["case"] for r in dist), f"{path}: no dist {want} case"
for r in records:
    assert r["seconds"] > 0, f"{path}: non-positive seconds: {r}"
    # Every exchange record names the transport it was timed on; the
    # end-to-end dist records also name the FFT engine.
    assert r.get("transport"), f"{path}: record missing transport: {r}"
for r in raw + dist:
    assert r["bisection_bytes"] > 0, f"{path}: missing bisection traffic: {r}"
for r in dist:
    eff = r.get("overlap_efficiency")
    assert eff is not None and 0.0 <= eff <= 1.0, \
        f"{path}: bad overlap_efficiency {eff}: {r}"
    assert r.get("engine"), f"{path}: dist record missing engine: {r}"
# The coded-vs-retransmit loss sweep: exactly one coded and one
# retransmit record, with the coding schema extension on the coded one —
# in-band recovery visible, zero retries, and a cheaper exchange than
# the retransmit baseline under the identical loss pattern.
assert len(loss) == 3, f"{path}: want 3 loss-sweep records, got {len(loss)}"
coded = [r for r in loss if r["case"].startswith("coded")]
retx = [r for r in loss if r["case"].startswith("retransmit")]
assert len(coded) == 1 and len(retx) == 1, f"{path}: bad loss cases: {loss}"
c, t = coded[0], retx[0]
for key in ("recovered_chunks", "parity_bytes", "coding_overhead"):
    assert key in c, f"{path}: coded record missing {key}: {c}"
    assert key not in t, f"{path}: uncoded record carries {key}: {t}"
assert c["recovered_chunks"] > 0, f"{path}: coded run recovered nothing: {c}"
assert c["parity_bytes"] > 0, f"{path}: coded run sent no parity: {c}"
assert c["coding_overhead"] == 1.5, f"{path}: 2+1 overhead != 1.5: {c}"
assert c["faults_injected"] > 0 and t["faults_injected"] > 0, \
    f"{path}: loss sweep injected no faults"
assert c["retries"] == 0, f"{path}: coded run paid retries: {c}"
assert c["seconds"] < t["seconds"], \
    f"{path}: coded {c['seconds']} not under retransmit {t['seconds']}"
print(f"{path}: {len(raw)} exchange + {len(dist)} dist + "
      f"{len(loss)} loss-sweep records OK")
EOF
  echo "bench-smoke OK"
}

case "${stage}" in
  tier1) run_tier1 ;;
  asan)  run_asan ;;
  tsan)  run_tsan ;;
  chaos) run_chaos ;;
  coded) run_coded ;;
  topology) run_topology ;;
  backends) run_backends ;;
  serve-mix) run_serve_mix ;;
  smoke) run_smoke ;;
  bench-smoke) run_bench_smoke ;;
  all)   run_tier1; run_asan; run_tsan; run_chaos; run_coded; run_topology
         run_backends; run_serve_mix; run_smoke; run_bench_smoke ;;
  *) echo "usage: $0 [tier1|asan|tsan|chaos|coded|topology|backends|serve-mix|smoke|bench-smoke|all]" >&2
     exit 2 ;;
esac
echo "ci: ${stage} passed"
