#!/usr/bin/env bash
# Profile a bench binary or a perfbench workload and print the hot spots.
#
#   scripts/profile.sh bench_scale                 # profile bench_scale
#   scripts/profile.sh bench_micro --benchmark_filter='BM_PageCacheTouchHit'
#   scripts/profile.sh --workload mixed_rw_shards [seconds] [seed]
#
# With Linux perf: builds the `profile` CMake preset (RelWithDebInfo +
# -fno-omit-frame-pointer, see CMakePresets.json) so call graphs resolve,
# records with perf, and prints the top of `perf report`. The perf.data stays
# in build-profile/ for interactive drill-down
# (`perf report -i build-profile/perf.data`). A workload is profiled through
# perfbench built with the same flags.
#
# Without perf, a workload is profiled with gprof instead: perfbench is built
# in Release with -pg and linked -static, so libc's own functions (memcpy,
# memchr, memset) get samples and appear in the flat profile; a dynamically
# linked -pg build charges their time to nobody. The build lives in
# build-profile/perfbench-pg/, and gmon.out stays there for
# `gprof -b <binary> gmon.out`. A bench target without perf only runs under
# `time`: the bench targets link Google Benchmark, which has no static library
# here, so they cannot take the static -pg build.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
  echo "usage: scripts/profile.sh <bench_target> [args...]" >&2
  echo "       scripts/profile.sh --workload <name> [seconds] [seed]" >&2
  exit 2
fi

if [[ "$1" == "--workload" ]]; then
  if [[ $# -lt 2 ]]; then
    echo "usage: scripts/profile.sh --workload <name> [seconds] [seed]" >&2
    exit 2
  fi
  workload="$2"
  seconds="${3:-20}"
  seed="${4:-1}"
  run_args=(--workload "${workload}" --seed "${seed}" --seconds "${seconds}" --trace 0)
  if command -v perf >/dev/null 2>&1; then
    out="build-profile/perfbench"
    cmake -S perfbench -B "${out}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer >/dev/null
    cmake --build "${out}" -j --target perfbench
    perf record -g --call-graph=fp -o build-profile/perf.data -- \
      "${out}/perfbench" "${run_args[@]}" >/dev/null
    perf report -i build-profile/perf.data --stdio --percent-limit 1 | head -60
    echo
    echo "full data: perf report -i build-profile/perf.data"
    exit 0
  fi
  echo "perf not found; profiling ${workload} with a static -pg build and gprof" >&2
  out="build-profile/perfbench-pg"
  cmake -S perfbench -B "${out}" -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-pg \
    -DCMAKE_EXE_LINKER_FLAGS="-pg -static" >/dev/null
  cmake --build "${out}" -j --target perfbench
  rm -f "${out}/gmon.out"
  # gmon.out is written to the working directory at exit.
  (cd "${out}" && ./perfbench "${run_args[@]}" >/dev/null)
  gprof -b -p "${out}/perfbench" "${out}/gmon.out" | head -40
  echo
  echo "full data: gprof -b ${out}/perfbench ${out}/gmon.out"
  exit 0
fi

target="$1"
shift

cmake --preset profile >/dev/null
cmake --build --preset profile -j --target "${target}"

bin="build-profile/bench/${target}"
if [[ ! -x "${bin}" ]]; then
  echo "error: ${bin} not built" >&2
  exit 1
fi

if ! command -v perf >/dev/null 2>&1; then
  echo "perf not found; running ${target} under 'time' instead" >&2
  time "${bin}" "$@"
  exit 0
fi

perf record -g --call-graph=fp -o build-profile/perf.data -- "${bin}" "$@"
perf report -i build-profile/perf.data --stdio --percent-limit 1 | head -60
echo
echo "full data: perf report -i build-profile/perf.data"
