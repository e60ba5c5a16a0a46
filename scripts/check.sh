#!/usr/bin/env bash
# Tier-1 gate, a Release perf-regression gate over the wall-clock bench suite,
# and a sanitizer pass over the test suite.
#
#   scripts/check.sh                  # tier-1, perf gate, ASan+UBSan, TSan
#   SKIP_SAN=1 scripts/check.sh       # skip the ASan+UBSan pass
#   SKIP_TSAN=1 scripts/check.sh      # skip the ThreadSanitizer smoke
#   SKIP_PERF=1 scripts/check.sh      # skip the Release perf stage entirely
#   SKIP_PERF_GATE=1 scripts/check.sh # run the benches but don't fail on
#                                     # regression (noisy/shared machines)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==== tier-1: configure + build + ctest -L tier1 ===="
# Warnings fail this build and the Release perf build below. perfbench builds
# src/ itself in Release with its own flags, so no CMakeLists.txt turns
# warnings into errors.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j
(cd build && ctest -L tier1 --output-on-failure -j)

echo "==== slow lane: long differential suites (ctest -L slow) ===="
# cache_diff / shard_diff re-run whole workloads many times;
# they gate here once rather than in every tier-1 repetition below.
(cd build && ctest -L slow --output-on-failure -j)

echo "==== tier-1 (elevator I/O engine): ctest with SLEDS_IO_MODE=elevator ===="
(cd build && SLEDS_IO_MODE=elevator ctest -L tier1 --output-on-failure -j)

echo "==== fault smoke: ctest under a nonzero fault plan ===="
# A low-probability transient-only plan (masked by controller retries) must
# leave the whole tier-1 suite green: errors may flow, nothing may break.
(cd build && SLEDS_FAULT_SEED=7 ctest -L tier1 --output-on-failure -j)

echo "==== fault smoke: faults-off bench output is byte-identical ===="
# SLEDS_FAULT_SEED=0 must be indistinguishable from the variable being unset:
# the zero seed installs no plan, so the baseline stays byte-for-byte stable.
SLEDS_BENCH_MAX_MB=8 ./build/bench/bench_fig03_lru_passes > /tmp/sleds_faultoff_a.txt
SLEDS_FAULT_SEED=0 SLEDS_BENCH_MAX_MB=8 ./build/bench/bench_fig03_lru_passes > /tmp/sleds_faultoff_b.txt
diff /tmp/sleds_faultoff_a.txt /tmp/sleds_faultoff_b.txt
rm -f /tmp/sleds_faultoff_a.txt /tmp/sleds_faultoff_b.txt

echo "==== figure goldens: wc / grep / fimhisto / fimgbin / CD-ROM faults figure output is byte-identical ===="
# The apps' byte loops and the input generators cost host time only;
# app_costs.h sets the apps' simulated cost, and the generators must write
# the same bytes with the same writes, so faster host code must leave these
# figures unchanged. wc and grep also run under the elevator I/O engine, which
# gates its read path, its readahead tail and Write's read-modify-write
# through the engine. fimgbin also runs under it at 48 MB, above the 40 MiB
# cache, where dirty output pages leave through the engine's eviction
# writeback and drain. The build metadata line (compiler, flags, git sha,
# host) is dropped before comparing. fig09 runs at 24 and 48 MB; wc, fimhisto
# and fimgbin again at 8 and 48 MB (`*.48.txt`); grep -q at 8 and 64 MB
# (`*.64.txt`; at 48 MB it gains only 1.06x); fig10's grep -n at 24 and 48 MB
# (`*.48.txt`). One size sits on each side of the 40 MiB cache: above it,
# pick order matters, so these pin the fault reduction and the speedup SLEDs
# buy, and the FITS apps' SLEDs runs that start mid-row. fig13 runs at its
# default (fifty grep -q runs per mode on a 64 MB file) and pins both CDFs.
# Refresh after an intentional model change with:
#   for b in fig07_08_wc_nfs fig11_12_grep_first_ext2 fig14_fimhisto fig15_fimgbin; do
#     SLEDS_BENCH_MAX_MB=8 ./build/bench/bench_$b 2>/dev/null |
#       sed '/^  "build": /d' > bench/golden/bench_$b.txt; done
#   for b in fig07_08_wc_nfs fig11_12_grep_first_ext2; do
#     SLEDS_IO_MODE=elevator SLEDS_BENCH_MAX_MB=8 ./build/bench/bench_$b 2>/dev/null |
#       sed '/^  "build": /d' > bench/golden/bench_$b.elevator.txt; done
#   SLEDS_IO_MODE=elevator SLEDS_BENCH_MAX_MB=48 SLEDS_BENCH_STEP_MB=40 \
#     ./build/bench/bench_fig15_fimgbin 2>/dev/null |
#     sed '/^  "build": /d' > bench/golden/bench_fig15_fimgbin.48.elevator.txt
#   SLEDS_BENCH_MAX_MB=48 SLEDS_BENCH_STEP_MB=24 ./build/bench/bench_fig09_wc_cdrom_faults \
#     2>/dev/null | sed '/^  "build": /d' > bench/golden/bench_fig09_wc_cdrom_faults.txt
#   for b in fig07_08_wc_nfs fig14_fimhisto fig15_fimgbin; do
#     SLEDS_BENCH_MAX_MB=48 SLEDS_BENCH_STEP_MB=40 ./build/bench/bench_$b 2>/dev/null |
#       sed '/^  "build": /d' > bench/golden/bench_$b.48.txt; done
#   SLEDS_BENCH_MAX_MB=64 SLEDS_BENCH_STEP_MB=56 ./build/bench/bench_fig11_12_grep_first_ext2 \
#     2>/dev/null | sed '/^  "build": /d' > bench/golden/bench_fig11_12_grep_first_ext2.64.txt
#   SLEDS_BENCH_MAX_MB=48 SLEDS_BENCH_STEP_MB=24 ./build/bench/bench_fig10_grep_all_cdrom \
#     2>/dev/null | sed '/^  "build": /d' > bench/golden/bench_fig10_grep_all_cdrom.48.txt
#   ./build/bench/bench_fig13_grep_cdf_nfs 2>/dev/null |
#     sed '/^  "build": /d' > bench/golden/bench_fig13_grep_cdf_nfs.txt
#   ./build/bench/bench_ext_estimate_accuracy 2>/dev/null |
#     sed '/^  "build": /d' > bench/golden/bench_ext_estimate_accuracy.txt
for b in fig07_08_wc_nfs fig11_12_grep_first_ext2 fig14_fimhisto fig15_fimgbin; do
  SLEDS_BENCH_MAX_MB=8 "./build/bench/bench_${b}" 2>/dev/null | sed '/^  "build": /d' |
    diff -u "bench/golden/bench_${b}.txt" -
done
for b in fig07_08_wc_nfs fig11_12_grep_first_ext2; do
  SLEDS_IO_MODE=elevator SLEDS_BENCH_MAX_MB=8 "./build/bench/bench_${b}" 2>/dev/null |
    sed '/^  "build": /d' | diff -u "bench/golden/bench_${b}.elevator.txt" -
done
SLEDS_IO_MODE=elevator SLEDS_BENCH_MAX_MB=48 SLEDS_BENCH_STEP_MB=40 ./build/bench/bench_fig15_fimgbin \
  2>/dev/null | sed '/^  "build": /d' | diff -u bench/golden/bench_fig15_fimgbin.48.elevator.txt -
SLEDS_BENCH_MAX_MB=48 SLEDS_BENCH_STEP_MB=24 ./build/bench/bench_fig09_wc_cdrom_faults 2>/dev/null |
  sed '/^  "build": /d' | diff -u bench/golden/bench_fig09_wc_cdrom_faults.txt -
for b in fig07_08_wc_nfs fig14_fimhisto fig15_fimgbin; do
  SLEDS_BENCH_MAX_MB=48 SLEDS_BENCH_STEP_MB=40 "./build/bench/bench_${b}" 2>/dev/null |
    sed '/^  "build": /d' | diff -u "bench/golden/bench_${b}.48.txt" -
done
SLEDS_BENCH_MAX_MB=64 SLEDS_BENCH_STEP_MB=56 ./build/bench/bench_fig11_12_grep_first_ext2 2>/dev/null |
  sed '/^  "build": /d' | diff -u bench/golden/bench_fig11_12_grep_first_ext2.64.txt -
SLEDS_BENCH_MAX_MB=48 SLEDS_BENCH_STEP_MB=24 ./build/bench/bench_fig10_grep_all_cdrom 2>/dev/null |
  sed '/^  "build": /d' | diff -u bench/golden/bench_fig10_grep_all_cdrom.48.txt -
./build/bench/bench_fig13_grep_cdf_nfs 2>/dev/null | sed '/^  "build": /d' |
  diff -u bench/golden/bench_fig13_grep_cdf_nfs.txt -

echo "==== fault bench: graceful degradation sweep ===="
# Fails the gate on crash or hang; BENCH_fault.json shows bounded retries and
# zero lost dirty pages at modest fault probabilities.
timeout 300 ./build/bench/bench_fault

echo "==== I/O scheduler bench: FIFO vs C-LOOK + coalescing ===="
./build/bench/bench_iosched

echo "==== SSD bench: GC tail + tail-aware picking, byte-identical to its golden ===="
# Simulated time only, so the output is fixed; refresh after an intentional
# model change with:
#   ./build/bench/bench_ssd 2>/dev/null | sed '/^  "build": /d' > bench/golden/bench_ssd.txt
timeout 300 ./build/bench/bench_ssd 2>/dev/null | sed '/^  "build": /d' |
  diff -u bench/golden/bench_ssd.txt -

echo "==== estimate-accuracy gate: Estimate vs the access across device models ===="
# Simulated-time metrics, deterministic and machine-independent, so the Debug
# build is fine. The stdout must match its golden byte for byte (refresh
# command with the figure goldens above), and the MAPEs are gated against the
# `accuracy` section of bench/baselines.json; refresh those after an
# intentional model change with scripts/perf_gate.py --refresh-accuracy.
acc_json_dir="$(mktemp -d)"
SLEDS_BENCH_JSON_DIR="${acc_json_dir}" timeout 600 ./build/bench/bench_ext_estimate_accuracy \
  2>/dev/null | sed '/^  "build": /d' | diff -u bench/golden/bench_ext_estimate_accuracy.txt -
if [[ "${SKIP_PERF_GATE:-}" == "1" ]]; then
  echo "==== accuracy comparison skipped (SKIP_PERF_GATE=1) ===="
elif command -v python3 >/dev/null 2>&1; then
  python3 scripts/perf_gate.py --accuracy "${acc_json_dir}"
else
  echo "==== accuracy comparison skipped (python3 not found) ===="
fi
rm -rf "${acc_json_dir}"

if [[ "${SKIP_PERF:-}" == "1" ]]; then
  echo "==== perf stage skipped (SKIP_PERF=1) ===="
else
  echo "==== perf gate: Release build of every target, then bench_micro + bench_scale + bench_shard + bench_replica + bench_progs vs baselines ===="
  # Release compiles at -O3, where GCC warns about code that -O2 leaves
  # alone (the SSE2 row kernels are inlined only here, and GCC 12's false
  # -Wrestrict on an inlined "f" + std::to_string(i) shows only here), so
  # warnings fail this build too. It builds every target (tests, benches,
  # examples), so all code, the AVX2 count's target-attributed functions
  # included, goes through -O3.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
  cmake --build build-release -j
  perf_json_dir="$(mktemp -d)"
  # Crash or hang in any bench fails the gate outright; the speedup
  # comparison below only runs once every JSON block exists.
  SLEDS_BENCH_JSON_DIR="${perf_json_dir}" timeout 300 \
    ./build-release/bench/bench_micro --benchmark_filter='BM_PageCacheTouchHit'
  SLEDS_BENCH_JSON_DIR="${perf_json_dir}" timeout 600 \
    ./build-release/bench/bench_scale
  # bench_shard also asserts the shard determinism contract (N-shard merged
  # results byte-identical to the single-shard oracle) before timing.
  SLEDS_BENCH_JSON_DIR="${perf_json_dir}" timeout 600 \
    ./build-release/bench/bench_shard
  # bench_replica exits nonzero unless the rebuild storm re-syncs fully and
  # hedged p99 stays at or above the unhedged p99; its gated speedup is
  # simulated time, so Release-vs-Debug makes no difference to the number.
  SLEDS_BENCH_JSON_DIR="${perf_json_dir}" timeout 300 \
    ./build-release/bench/bench_replica
  # bench_progs asserts program-vs-oracle result identity before timing and
  # exits nonzero below a 2x crossing reduction; both gated speedups are
  # simulated time / syscall ratios, so they are deterministic.
  SLEDS_BENCH_JSON_DIR="${perf_json_dir}" timeout 300 \
    ./build-release/bench/bench_progs
  if [[ "${SKIP_PERF_GATE:-}" == "1" ]]; then
    echo "==== perf-regression comparison skipped (SKIP_PERF_GATE=1) ===="
  elif command -v python3 >/dev/null 2>&1; then
    # Compares speedup ratios (naive/indexed on the same run) against
    # bench/baselines.json; fails on a >25% regression. Refresh baselines
    # with scripts/perf_gate.py --refresh after intentional perf changes.
    python3 scripts/perf_gate.py "${perf_json_dir}"
  else
    echo "==== perf-regression comparison skipped (python3 not found) ===="
  fi
  rm -rf "${perf_json_dir}"
fi

if [[ "${SKIP_SAN:-}" == "1" ]]; then
  echo "==== sanitizer pass skipped (SKIP_SAN=1) ===="
else
  echo "==== sanitizers: ASan+UBSan build + ctest ===="
  # GCC's -fsanitize=undefined leaves out float-cast-overflow, which traps a
  # NaN or out-of-range double converted to an integer (histogram binning).
  SAN_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
    -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}" >/dev/null
  cmake --build build-asan -j
  (cd build-asan && ctest --output-on-failure -j)
  echo "==== sanitizers: examples and a sledsh session under ASan+UBSan ===="
  # The examples are the documented entry points; none of them runs in ctest.
  for e in quickstart latency_aware_search astro_pipeline hsm_explorer; do
    timeout 600 "./build-asan/examples/${e}" > /dev/null
  done
  printf 'mount ext2 /data\ngenfile /data/t.txt 2\ndropcaches\ncat /data/t.txt\niostat\ntrace 20\nstats\n' |
    timeout 600 ./build-asan/examples/sledsh > /dev/null
  echo "==== sanitizers: replica rebuild-storm + hedge smoke under ASan+UBSan ===="
  # Drives the degraded write/read, stale-mark, recovery, and hedge paths —
  # the code most likely to hide a lifetime bug behind a fault window.
  timeout 600 ./build-asan/bench/bench_replica > /dev/null
  echo "==== sanitizers: completion-program smoke under ASan+UBSan ===="
  # Program-enabled grep early-exit and chain walk: the in-kernel completion
  # machinery (plans, resubmits, cancel-on-match) under full instrumentation.
  timeout 600 ./build-asan/bench/bench_progs > /dev/null
fi

if [[ "${SKIP_TSAN:-}" == "1" ]]; then
  echo "==== ThreadSanitizer smoke skipped (SKIP_TSAN=1) ===="
else
  echo "==== ThreadSanitizer smoke: shard runtime under TSan ===="
  # Only the shard suite runs threads; building just its test keeps the stage
  # fast while covering the shared world cursor and the worker threads racing
  # real multi-mount kernels.
  TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${TSAN_FLAGS}" \
    -DCMAKE_EXE_LINKER_FLAGS="${TSAN_FLAGS}" >/dev/null
  cmake --build build-tsan -j --target shard_diff_test
  (cd build-tsan && ctest -R '^shard_diff_test$' --output-on-failure)
fi

echo "==== all checks passed ===="
