#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds
perfbench/ (CMake, Release) into $CARGO_TARGET_DIR, else .bench_build/.

One run starts SETUP_SAMPLES cold set-up processes plus one measuring
process, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones; a per-layer metric that does not apply to the workload reads 0 and is
listed under "not_applicable" on the line before. Set-up metrics are
medians over every process of the run. The exit code is 0 only when every
output check passed.

--smoke runs every workload at tiny sizes, in both modes, and checks that
each metric of BENCHMARK.json is emitted with its unit: the benchmark's own
test.
"""
import argparse
import fcntl
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serial_4m", "dist_shm_1m", "serve_mix")
SETUP_SAMPLES = 6
SETUP_METRICS = ("setup_s", "window.profile_s", "soi.plan_s",
                 "soi.first_forward_s")
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    spec = json.loads(path.read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    bdir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not bdir.is_absolute():
        bdir = ROOT / bdir
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def invoke(binary, args, timeout):
    """Run perfbench once; returns its parsed JSON line."""
    cmd = [str(binary)] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        # Forked ranks share the session: stop them all, then reap.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}")
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def run_workload(binary, workload, seed, seconds, trace, smoke,
                 setup_samples, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        common.append("--smoke")
    setups = []
    for _ in range(setup_samples):
        setups.append(invoke(binary, common + ["--phase", "setup",
                                               "--seconds", str(seconds),
                                               "--trace", "0"],
                             deadline - time.monotonic()))
    main = invoke(binary, common + ["--phase", "measure",
                                    "--seconds", str(seconds),
                                    "--trace", str(trace)],
                  deadline - time.monotonic())
    metrics = dict(main["metrics"])
    for name in SETUP_METRICS:
        vals = [s["metrics"][name][0] for s in setups + [main]
                if name in s["metrics"]]
        if vals:
            metrics[name] = [statistics.median(vals), metrics[name][1]]
    errors = list(main["errors"])
    for s in setups:
        errors += s["errors"]
    return main, metrics, errors


def assemble(want, metrics, errors):
    """Pick the metrics `want` names, checking unit and value."""
    out, missing = {}, []
    for name, unit in want.items():
        if name not in metrics:
            missing.append(name)
            out[name] = {"value": 0.0, "unit": unit}
            continue
        value, got_unit = metrics[name]
        if got_unit != unit:
            errors.append(f"{name}: unit {got_unit}, want {unit}")
        if value is None or not math.isfinite(value):
            errors.append(f"{name}: non-finite value")
            value = 0.0
        out[name] = {"value": value, "unit": unit}
    return out, missing


def main_run(args):
    e2e, layer = load_spec()
    binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    main, metrics, errors = run_workload(
        binary, args.workload, args.seed, args.seconds, args.trace, False,
        SETUP_SAMPLES, deadline)
    out, missing = assemble(layer if args.trace else e2e, metrics, errors)
    if missing and not args.trace:
        errors.append("missing end-to-end metrics: " + ", ".join(missing))
    stamp = {k: main[k] for k in ("workload", "ranks", "omp_threads",
                                  "threads", "nproc")}
    stamp.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                 setup_samples=SETUP_SAMPLES + 1, not_applicable=missing,
                 errors=errors)
    print(json.dumps(stamp))
    correct = not errors and main["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": main["attempted"],
                      "failed": main["failed"], "metrics": out}))
    return 0 if correct else 1


def smoke():
    e2e, layer = load_spec()
    binary = build()
    problems, seen = [], set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + RUN_DEADLINE_S
            main, metrics, errors = run_workload(
                binary, workload, 1, 1, trace, True, 1, deadline)
            want = layer if trace else e2e
            _, missing = assemble(want, metrics, errors)
            seen |= set(metrics)
            extra = sorted(set(metrics) - set(e2e) - set(layer))
            tag = f"{workload} trace={trace}"
            if trace == 0 and missing:
                errors.append("missing " + ", ".join(missing))
            if extra:
                errors.append("not in BENCHMARK.json: " + ", ".join(extra))
            if main["failed"]:
                errors.append(f"{main['failed']} failed operations")
            problems += [f"{tag}: {e}" for e in errors]
            print(f"{tag}: {len(want) - len(missing)}/{len(want)} metrics"
                  f"{' (n/a: ' + ', '.join(missing) + ')' if missing else ''}"
                  f" -> {'FAIL' if errors else 'ok'}")
    never = sorted(set(layer) - seen)
    if never:
        problems.append("per-layer metrics no workload emits: " +
                        ", ".join(never))
    for p in problems:
        print("  " + p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            ap.error("--workload is required")
        return main_run(args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
