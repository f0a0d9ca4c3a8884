#!/bin/sh
# Regression guard for the paper-figure outputs: reruns every fig/table/
# headline/App-B bench and checks the emitted CSVs byte-for-byte against
# the committed golden md5s (tests/goldens/bench_csv.md5). All of these
# benches run with fault injection off and the default RetryPolicy, so any
# hash change means a code change reached the legacy measurement path —
# exactly what earlier PRs verified by hand with a pre/post tree diff.
#
# The battery runs twice: once on the default dispatched SIMD path and once
# pinned to HARMONY_SIMD=scalar. Both passes must match the same hashes —
# the AVX2 scan kernel preserves the scalar reduction order exactly, so a
# divergence here means it broke the bit-identity contract.
# Usage: check_csv_goldens.sh <bench-build-dir> <golden-md5-file>
set -eu

BENCH_DIR="$1"
GOLDEN="$2"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

for simd in dispatched scalar; do
  rm -rf "$DIR"/*.csv
  for b in fig4_perf_distribution fig5_sensitivity_synth fig6_topn_synth \
           fig7_history_distance fig8_sensitivity_web fig9_topn_web \
           table1_search_refinement table2_prior_histories headline_combined \
           appb_param_restriction; do
    if [ "$simd" = scalar ]; then
      HARMONY_SIMD=scalar HARMONY_BENCH_CSV_DIR="$DIR" "$BENCH_DIR/$b" \
        > /dev/null
    else
      HARMONY_BENCH_CSV_DIR="$DIR" "$BENCH_DIR/$b" > /dev/null
    fi
  done
  echo "== $simd SIMD path =="
  (cd "$DIR" && md5sum -c "$GOLDEN")
done
