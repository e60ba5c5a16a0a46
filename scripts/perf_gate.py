#!/usr/bin/env python3
"""Perf-regression gate: compare fresh BENCH_*.json speedups to baselines.

Usage: perf_gate.py <current_json_dir> [baselines_json]

Compares the `speedup` field of every workload recorded in bench/baselines.json
against the matching BENCH_<bench>.json in <current_json_dir>. Speedup is a
ratio (naive vs indexed wall time on the same machine, same run), so it is far
more stable across hosts than raw microseconds. The gate fails when a workload
loses more than 25% of its baseline speedup.

Refresh the baselines after an intentional perf change:

    SLEDS_BENCH_JSON_DIR=/tmp/bj ./build-release/bench/bench_micro \
        --benchmark_filter='BM_PageCacheTouchHit'
    SLEDS_BENCH_JSON_DIR=/tmp/bj ./build-release/bench/bench_scale
    SLEDS_BENCH_JSON_DIR=/tmp/bj ./build-release/bench/bench_shard
    SLEDS_BENCH_JSON_DIR=/tmp/bj ./build-release/bench/bench_openloop
    SLEDS_BENCH_JSON_DIR=/tmp/bj ./build-release/bench/bench_replica
    SLEDS_BENCH_JSON_DIR=/tmp/bj ./build-release/bench/bench_progs
    scripts/perf_gate.py --refresh /tmp/bj

For bench_shard the gated `speedup` is parallel efficiency (raw speedup per
usable core), so the same baseline is meaningful on hosts with different core
counts. On a host with fewer than 2 hardware threads it is 1 by construction,
so the gate skips the shard entries there and prints why. One bench_shard run
is too noisy to be a baseline: after --refresh, set `benches.shard` to the
median of at least 10 runs, and leave out any shard count whose lowest run
falls below its median * TOLERANCE (that count would fail unchanged code).

Accuracy mode (`--accuracy <json_dir>`) gates the `error` fields of
BENCH_estimate_accuracy.json (estimate-vs-access MAPE and end-to-end bias,
lower is better) against the `accuracy` section of baselines.json. Those
numbers are simulated-time ratios — fully deterministic, machine-independent —
so the tolerance is only a safety margin for intentional model tweaks.
Refresh after such a tweak with `--refresh-accuracy <json_dir>`.
"""

import json
import os
import sys

TOLERANCE = 0.75  # current speedup must stay above baseline * TOLERANCE
ACCURACY_TOLERANCE = 1.25  # current error must stay below baseline * this
ACCURACY_BENCH = "estimate_accuracy"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINES = os.path.join(REPO_ROOT, "bench", "baselines.json")


def load_speedups(path):
    """Return {workload: speedup} from one BENCH_*.json file."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for key, value in data.items():
        if isinstance(value, dict) and "speedup" in value:
            out[key] = float(value["speedup"])
    return out


def collect(json_dir, benches):
    """Return {bench: {workload: speedup}} for the requested bench ids."""
    result = {}
    for bench in benches:
        path = os.path.join(json_dir, f"BENCH_{bench}.json")
        if not os.path.exists(path):
            print(f"perf gate: FAIL — missing {path}")
            sys.exit(1)
        result[bench] = load_speedups(path)
    return result


def load_errors(path):
    """Return {workload: error} from BENCH_estimate_accuracy.json."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for key, value in data.items():
        if isinstance(value, dict) and "error" in value:
            out[key] = float(value["error"])
    return out


def read_baselines(baselines_path):
    if os.path.exists(baselines_path):
        with open(baselines_path) as f:
            return json.load(f)
    return {}


def write_baselines(payload, baselines_path):
    with open(baselines_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf gate: baselines written to {baselines_path}")


def refresh(json_dir, baselines_path):
    payload = read_baselines(baselines_path)
    payload["comment"] = (
        "speedup (naive_us / indexed_us) baselines; "
        "gate fails below baseline * %.2f. Refresh: scripts/perf_gate.py "
        "--refresh <json_dir>. `accuracy` holds estimate-vs-access error "
        "baselines (lower is better, ceiling baseline * %.2f); refresh with "
        "--refresh-accuracy <json_dir>" % (TOLERANCE, ACCURACY_TOLERANCE)
    )
    payload["benches"] = collect(
        json_dir, ["micro", "scale", "shard", "openloop", "replica", "progs"]
    )
    write_baselines(payload, baselines_path)


def refresh_accuracy(json_dir, baselines_path):
    path = os.path.join(json_dir, f"BENCH_{ACCURACY_BENCH}.json")
    if not os.path.exists(path):
        print(f"perf gate: FAIL — missing {path}")
        sys.exit(1)
    payload = read_baselines(baselines_path)
    payload["accuracy"] = load_errors(path)
    write_baselines(payload, baselines_path)


def check_accuracy(json_dir, baselines_path):
    baselines = read_baselines(baselines_path).get("accuracy", {})
    if not baselines:
        print(f"accuracy gate: FAIL — no `accuracy` section in {baselines_path}")
        sys.exit(1)
    path = os.path.join(json_dir, f"BENCH_{ACCURACY_BENCH}.json")
    if not os.path.exists(path):
        print(f"accuracy gate: FAIL — missing {path}")
        sys.exit(1)
    current = load_errors(path)
    failures = []
    for workload, base in sorted(baselines.items()):
        cur = current.get(workload)
        if cur is None:
            failures.append(f"{workload}: missing from current run")
            continue
        ceiling = base * ACCURACY_TOLERANCE + 1e-6
        verdict = "ok" if cur <= ceiling else "REGRESSED"
        print(
            f"  {workload}: baseline {base:.4f}, current {cur:.4f}, "
            f"ceiling {ceiling:.4f} — {verdict}"
        )
        if cur > ceiling:
            failures.append(f"{workload}: {cur:.4f} > {ceiling:.4f} (baseline {base:.4f})")
    if failures:
        print("accuracy gate: FAIL")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print("accuracy gate: ok")


def check(json_dir, baselines_path):
    with open(baselines_path) as f:
        baselines = json.load(f)["benches"]
    current = collect(json_dir, sorted(baselines))
    failures = []
    for bench, workloads in sorted(baselines.items()):
        if bench == "shard":
            with open(os.path.join(json_dir, "BENCH_shard.json")) as f:
                hw = int(json.load(f)["config"]["hardware_threads"])
            if hw < 2:
                print(
                    f"  shard: skipped — BENCH_shard.json reports {hw} hardware "
                    "thread; with one usable core, parallel efficiency is 1 by "
                    "construction and measures nothing"
                )
                continue
        for workload, base in sorted(workloads.items()):
            cur = current[bench].get(workload)
            if cur is None:
                failures.append(f"{bench}/{workload}: missing from current run")
                continue
            floor = base * TOLERANCE
            verdict = "ok" if cur >= floor else "REGRESSED"
            print(
                f"  {bench}/{workload}: baseline {base:.2f}x, "
                f"current {cur:.2f}x, floor {floor:.2f}x — {verdict}"
            )
            if cur < floor:
                failures.append(
                    f"{bench}/{workload}: {cur:.2f}x < {floor:.2f}x "
                    f"(baseline {base:.2f}x)"
                )
    if failures:
        print("perf gate: FAIL")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print("perf gate: ok")


def main():
    args = sys.argv[1:]
    modes = {
        "--refresh": refresh,
        "--refresh-accuracy": refresh_accuracy,
        "--accuracy": check_accuracy,
    }
    if args and args[0] in modes:
        if len(args) < 2:
            print(__doc__)
            sys.exit(2)
        modes[args[0]](args[1], args[2] if len(args) > 2 else DEFAULT_BASELINES)
        return
    if not args:
        print(__doc__)
        sys.exit(2)
    check(args[0], args[1] if len(args) > 1 else DEFAULT_BASELINES)


if __name__ == "__main__":
    main()
