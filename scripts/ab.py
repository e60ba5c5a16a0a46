#!/usr/bin/env python3
"""Paired A/B runs of a perfbench workload or a bench/ binary: a base commit against this tree.

    scripts/ab.py --base HEAD~1 --workload fits_rw --pairs 10 --seed 101
    SLEDS_BENCH_MAX_MB=48 scripts/ab.py --base HEAD~1 --bench bench_fig10_grep_all_cdrom --pairs 3

Run from anywhere inside the repository. The base commit is checked out into
a detached `git worktree` (<workdir>/base), or --base-tree names a checkout of
it made some other way (a clone, an archive export); the change is this
working tree, uncommitted edits included. Each tree's perfbench is built
through that tree's own perfbench/run.py, into its own CARGO_TARGET_DIR
(<workdir>/base-build, <workdir>/change-build), so the two binaries differ
only in their sources.

Pair i runs both sides at seed (--seed + i), base first on even pairs and
change first on odd ones. Every run is printed as it finishes. Then, for each
end-to-end metric in BENCHMARK.json, the table shows each side's median and
quartiles, the change's wins out of N (ties count for neither), how many pairs
were bit-identical, and a verdict against that metric's bound:

  improved     over at least 10 pairs, the change wins at least 9 in 10 and the
               medians differ, in its favour, by more than the base's
               interquartile range;
  worse        the change's median is worse than the base's by more than the bound;
  unresolved   the base's interquartile range exceeds the bound (relative to its
               median), so a move within it cannot be told from noise; waived when
               every change run beats every base run;
  within bound otherwise.

With --trace 1, each run is traced, and since a traced run reports only the
per-layer metrics, those are tabulated instead (medians and identical pairs;
no verdicts).

With --bench <target> in place of --workload, each tree's CMake target
<target> (a bench/ binary) is built in Release into <workdir>/<side>-bench,
and each pair runs both binaries once, in the same alternating order, with
this process's environment (so SLEDS_BENCH_* sizes the sweep) and the tree as
the working directory; --seed, --seconds and --trace do not apply. Every run
prints its wall seconds, every pair whether the two stdouts are identical once
the "build" line of the BENCH JSON blocks is dropped, and the summary gives
each side's median and quartiles of wall seconds and the change's wins.

Exit code: 0 when every run succeeded with no failed ops, 1 when any run
failed or reported failed ops or a failed output check (a bench: exited
nonzero), 2 on a setup or build error. BENCHMARK.json is only read; nothing
under perfbench/ is written.
--workdir keeps the worktree and both builds for the next invocation;
without it they go to a temporary directory that is removed at the end.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = subprocess.run(
    ["git", "-C", os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel"],
    capture_output=True, text=True, check=True).stdout.strip()
SIDES = ("base", "change")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)


def checkout_base(rev, path):
    """Check `rev` out at `path` as a detached worktree; returns an error string or None."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    if sha.returncode != 0:
        return "unknown revision %r" % rev
    if os.path.exists(os.path.join(path, ".git")):  # a worktree from an earlier run
        step = git("checkout", "--quiet", "--detach", sha.stdout.strip(), cwd=path)
    elif os.path.exists(path):
        return "%s exists and is not a worktree" % path
    else:
        step = git("worktree", "add", "--quiet", "--detach", path, sha.stdout.strip())
    return None if step.returncode == 0 else step.stderr.strip()


def build(tree, build_dir):
    """Build the tree's perfbench through its own perfbench/run.py."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(0 if run.build() else 1)")
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    return subprocess.run([sys.executable, "-c", code], cwd=tree, env=env,
                          stdout=sys.stderr).returncode == 0


def build_bench(tree, build_dir, target):
    """Configure the tree in Release and build one bench/ target; returns its path or None."""
    steps = [["cmake", "-S", tree, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", target, "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "bench", target)


def run_bench(tree, binary):
    """One run of a bench binary; returns (wall seconds, stdout minus the build lines, error)."""
    start = time.monotonic()
    proc = subprocess.run([binary], cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - start
    out = "".join(line for line in proc.stdout.splitlines(keepends=True)
                  if not line.startswith('  "build": '))
    return wall, out, None if proc.returncode == 0 else "exit %d" % proc.returncode


def ab_bench(args, trees, workdir):
    """The --bench mode of main(); returns the exit code."""
    binaries = {}
    for side in SIDES:
        build_dir = os.path.join(workdir, side + "-bench")
        print("ab: building %s %s in %s" % (side, args.bench, build_dir), file=sys.stderr)
        binaries[side] = build_bench(trees[side], build_dir, args.bench)
        if binaries[side] is None:
            print("ab: %s build failed" % side, file=sys.stderr)
            return 2
    walls = {side: [] for side in SIDES}
    failures = 0
    identical = 0
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        outs = {}
        for side in order:
            wall, outs[side], err = run_bench(trees[side], binaries[side])
            walls[side].append(wall)
            if err:
                failures += 1
            print("pair %d %-6s wall=%.2f s%s" % (i, side, wall, " FAILED: " + err if err else ""),
                  flush=True)
        same = outs["base"] == outs["change"]
        identical += same
        print("pair %d stdout %s" % (i, "identical" if same else "DIFFERS"), flush=True)

    print("\n%s: %d pairs, base %s" % (args.bench, args.pairs, args.base or args.base_tree))
    b1, bmed, b3 = quartiles(walls["base"])
    c1, cmed, c3 = quartiles(walls["change"])
    wins = sum(1 for b, c in zip(walls["base"], walls["change"]) if c < b)
    print("wall_s  base %s [%s, %s]  change %s [%s, %s]  (%+.1f%%)  wins %d/%d" % (
        fmt(bmed), fmt(b1), fmt(b3), fmt(cmed), fmt(c1), fmt(c3), 100 * (cmed - bmed) / bmed,
        wins, args.pairs))
    print("stdout identical in %d/%d pairs" % (identical, args.pairs))
    if failures:
        print("\nab: %d run(s) failed" % failures)
        return 1
    return 0


def run_once(tree, build_dir, workload, seed, seconds, trace):
    """One run.py invocation; returns (result dict or None, error string or None)."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return None, "exit %d without a result line" % proc.returncode
    if proc.returncode != 0 or result.get("failed", 0) != 0 or not result.get("correct", False):
        return metrics, "exit %d, %s failed ops, correct=%s" % (
            proc.returncode, result.get("failed"), result.get("correct"))
    return metrics, None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, change, lower_is_better, bound):
    """The end-to-end verdict of one metric over paired runs (see the module doc)."""
    sign = 1.0 if lower_is_better else -1.0
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    gap = sign * (bmed - cmed)  # > 0: the change is better
    if len(base) >= 10 and wins * 10 >= 9 * len(base) and gap > b3 - b1:
        return "improved", wins
    scale = abs(bmed) if bmed != 0 else 1.0
    if -gap / scale > bound:
        return "worse", wins
    every_better = all(sign * (b - c) > 0 for b in base for c in change)
    if (b3 - b1) / scale > bound and not every_better:
        return "unresolved", wins
    return "within bound", wins


def fmt(v):
    return "%.4g" % v


def print_table(title, names, runs, bench_metrics):
    print("\n" + title)
    header = "%-34s %28s %28s %6s %5s %s" % ("metric", "base med [q1, q3]", "change med [q1, q3]",
                                             "wins", "same", "verdict")
    print(header)
    print("-" * len(header))
    for name in names:
        base = [r[name] for r in runs["base"] if name in r]
        change = [r[name] for r in runs["change"] if name in r]
        if not base or len(base) != len(change):
            print("%-34s (missing in some runs)" % name)
            continue
        b1, bmed, b3 = quartiles(base)
        c1, cmed, c3 = quartiles(change)
        same = sum(1 for b, c in zip(base, change) if b == c)
        spec = bench_metrics.get(name)
        if spec is None:
            result, wins = "", None
        else:
            result, wins = verdict(base, change, spec["better"] == "lower", spec["bound"])
            rel = (cmed - bmed) / abs(bmed) if bmed != 0 else 0.0
            result = "%s (%+.1f%%, bound %g%%)" % (result, 100 * rel, 100 * spec["bound"])
        print("%-34s %28s %28s %6s %5s %s" % (
            name, "%s [%s, %s]" % (fmt(bmed), fmt(b1), fmt(b3)),
            "%s [%s, %s]" % (fmt(cmed), fmt(c1), fmt(c3)),
            "" if wins is None else "%d/%d" % (wins, len(base)), "%d/%d" % (same, len(base)),
            result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = ap.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", help="base commit (for example HEAD~1)")
    base.add_argument("--base-tree", help="an existing checkout of the base")
    target = ap.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="a perfbench workload of BENCHMARK.json")
    target.add_argument("--bench", help="a bench/ CMake target, e.g. bench_fig13_grep_cdf_nfs")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", default=None, help="keep the worktree and builds here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        print("ab: unknown workload %r (BENCHMARK.json has %s)" % (args.workload, names),
              file=sys.stderr)
        return 2
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    workdir = os.path.abspath(args.workdir) if args.workdir else tempfile.mkdtemp(prefix="ab-")
    os.makedirs(workdir, exist_ok=True)
    worktree = os.path.join(workdir, "base")
    trees = {"base": os.path.abspath(args.base_tree or worktree), "change": ROOT}
    builds = {side: os.path.join(workdir, side + "-build") for side in SIDES}
    try:
        err = None if args.base_tree else checkout_base(args.base, worktree)
        if err:
            print("ab: cannot check out %s: %s" % (args.base, err), file=sys.stderr)
            return 2
        if args.bench:
            return ab_bench(args, trees, workdir)
        for side in SIDES:
            print("ab: building %s perfbench in %s" % (side, builds[side]), file=sys.stderr)
            if not build(trees[side], builds[side]):
                print("ab: %s build failed" % side, file=sys.stderr)
                return 2

        runs = {side: [] for side in SIDES}
        failures = 0
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                metrics, err = run_once(trees[side], builds[side], args.workload, seed, seconds,
                                        args.trace)
                if err:
                    failures += 1
                    print("pair %d seed %d %-6s FAILED: %s" % (i, seed, side, err))
                if metrics is None:
                    metrics = {}
                runs[side].append(metrics)
                shown = " ".join("%s=%s" % (m["name"], fmt(metrics[m["name"]]))
                                 for m in bench["end_to_end"] if m["name"] in metrics)
                print("pair %d seed %d %-6s %s" % (i, seed, side, shown), flush=True)

        title = "%s: %d pairs, seeds %d-%d, %g s, trace %d, base %s" % (
            args.workload, args.pairs, args.seed, args.seed + args.pairs - 1, seconds,
            args.trace, args.base or args.base_tree)
        if args.trace:
            # A traced run reports the per-layer metrics only.
            print_table(title, [m["name"] for m in bench["per_layer"]], runs, {})
        else:
            end_to_end = {m["name"]: m for m in bench["end_to_end"]}
            print_table(title, list(end_to_end), runs, end_to_end)
        if failures:
            print("\nab: %d run(s) failed or reported failed ops" % failures)
            return 1
        return 0
    finally:
        if not args.workdir:
            if not args.base_tree:
                git("worktree", "remove", "--force", worktree)
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
