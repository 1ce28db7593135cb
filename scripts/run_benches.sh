#!/usr/bin/env bash
# Runs the paper-figure benches (fig4-fig8) and the google-benchmark micro
# bench, leaving one BENCH_*.json per bench in the output directory so the
# perf trajectory is recorded PR over PR.
#
# Usage:
#   scripts/run_benches.sh [--all] [--build-dir DIR] [--out-dir DIR]
#
#   --all          also run the ablation / hybrid / incremental /
#                  materialization / baselines / transform benches
#   --build-dir    build tree holding bench/ executables
#                  (default: build/release if present, else build)
#   --out-dir      where BENCH_*.json land (default: bench_results)
#
# Knobs (see bench/harness.h): NOMSKY_SCALE multiplies row counts
# (default here 0.25 for a minutes-scale run; 1.0 = bench default,
# larger approaches paper scale), NOMSKY_QUERIES overrides queries/point.
set -euo pipefail

cd "$(dirname "$0")/.."

run_all=0
build_dir=""
out_dir="bench_results"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --all) run_all=1 ;;
    --build-dir) build_dir="${2:?--build-dir requires a value}"; shift ;;
    --out-dir) out_dir="${2:?--out-dir requires a value}"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ -z "$build_dir" ]]; then
  if [[ -d build/release ]]; then build_dir=build/release; else build_dir=build; fi
fi
if [[ ! -x "$build_dir/bench/bench_fig4_dbsize" ]]; then
  echo "no bench executables under $build_dir/bench; build first:" >&2
  echo "  cmake --preset release && cmake --build --preset release" >&2
  echo "  (or: cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi

export NOMSKY_SCALE="${NOMSKY_SCALE:-0.25}"
export NOMSKY_QUERIES="${NOMSKY_QUERIES:-5}"
mkdir -p "$out_dir"

figure_benches=(fig4_dbsize fig5_dims fig6_cardinality fig7_order fig8_nursery
                kernel parallel rematerialization result_cache serving sharded
                snapshot)
if [[ $run_all -eq 1 ]]; then
  figure_benches+=(ablation_mdc baselines hybrid incremental materialization
                   transform)
fi

for bench in "${figure_benches[@]}"; do
  exe="$build_dir/bench/bench_$bench"
  if [[ ! -x "$exe" ]]; then
    echo "--- skipping bench_$bench (not built)"
    continue
  fi
  echo "--- bench_$bench (NOMSKY_SCALE=$NOMSKY_SCALE, NOMSKY_QUERIES=$NOMSKY_QUERIES)"
  NOMSKY_JSON="$out_dir/BENCH_$bench.json" "$exe"
done

micro="$build_dir/bench/bench_micro"
if [[ -x "$micro" ]]; then
  echo "--- bench_micro"
  "$micro" --benchmark_out="$out_dir/BENCH_micro.json" \
           --benchmark_out_format=json
else
  echo "--- skipping bench_micro (google-benchmark not available at configure time)"
fi

echo
echo "results:"
ls -l "$out_dir"/BENCH_*.json
