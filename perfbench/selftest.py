#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about half a minute).

    python3 perfbench/selftest.py

Builds the benchmark binary like run.py does, then runs every workload with --tiny and
a fixed op count, so each run is a pure function of its seed. It checks:

  * every run is correct and ends in a well-formed result line;
  * --trace 0 emits every end_to_end metric of BENCHMARK.json, and --trace 1
    every per_layer metric, each with the declared unit and a finite value;
  * two runs at one seed give bit-identical values for every metric the
    binary marks deterministic (simulated times and per-layer counts);
  * a run at a second seed still passes every check and gives different
    simulated times.

Exit code 0 when everything holds, 1 otherwise.
"""
import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

OPS = 12  # whole rounds of every variant, and two tiny shard passes


def invoke(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--ops", str(OPS), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().split("\n")
    deterministic = []
    for line in lines:
        if line.startswith("# deterministic:"):
            deterministic = line.split(":", 1)[1].split()
    return proc.returncode, json.loads(lines[-1]), deterministic


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        return 1
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, first, det = invoke(binary, workload, 7, trace)
            _, again, _ = invoke(binary, workload, 7, trace)
            tag = "%s --trace %d" % (workload, trace)
            check(rc == 0 and first["correct"] and first["failed"] == 0, tag + ": run not correct")
            check(first["attempted"] >= 1, tag + ": nothing attempted")
            for m in declared:
                got = first["metrics"].get(m["name"])
                if got is None:
                    failures.append("%s: metric %s missing" % (tag, m["name"]))
                    continue
                check(got["unit"] == m["unit"], "%s: %s unit %r, declared %r"
                      % (tag, m["name"], got["unit"], m["unit"]))
                check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                      "%s: %s not finite" % (tag, m["name"]))
            check(bool(det), tag + ": no deterministic metrics marked")
            for name in det:
                a = first["metrics"][name]["value"]
                b = again["metrics"][name]["value"]
                check(a == b, "%s: %s differs at one seed (%r vs %r)" % (tag, name, a, b))
            if trace == 0:
                rc2, other, _ = invoke(binary, workload, 8, trace)
                check(rc2 == 0 and other["correct"], tag + ": second seed not correct")
                sims = [n for n in det if n.startswith("sim_")]
                check(any(first["metrics"][n]["value"] != other["metrics"][n]["value"]
                          for n in sims), tag + ": sim_* identical at two seeds")
        print("selftest: %s done" % workload)

    for f in failures:
        print("FAIL: " + f)
    print("selftest: %s (%d failures)" % ("ok" if not failures else "FAILED", len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
