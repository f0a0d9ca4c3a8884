#!/bin/sh
# Runs every figure/table bench binary, collects its CSV output, and writes
# a machine-readable BENCH_timings.json with per-bench wall-clock seconds.
#
# Usage: tools/run_benches.sh [build_dir] [out_dir]
#   build_dir  where the bench binaries live (default: build)
#   out_dir    where CSVs, logs and BENCH_timings.json go
#              (default: <build_dir>/bench_out)
#
# Respects HARMONY_THREADS (the parallel runtime's worker count); results
# are identical at any thread count — only the timings change.
set -eu

BUILD_DIR=${1:-build}
OUT_DIR=${2:-"$BUILD_DIR/bench_out"}

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found (build the project first)" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
HARMONY_BENCH_CSV_DIR=$OUT_DIR
export HARMONY_BENCH_CSV_DIR

BENCHES="fig4_perf_distribution fig5_sensitivity_synth fig6_topn_synth \
fig7_history_distance fig8_sensitivity_web fig9_topn_web \
table1_search_refinement table2_prior_histories appb_param_restriction \
headline_combined ablation_estimator ablation_baselines \
ablation_classifiers ablation_factorial websim_events_per_sec \
history_scale persistence_throughput tuning_throughput incremental_fit \
serving_throughput strategy_tournament"

JSON="$OUT_DIR/BENCH_timings.json"
threads=${HARMONY_THREADS:-auto}
total_start=$(date +%s%N)

{
  printf '{\n'
  printf '  "harmony_threads": "%s",\n' "$threads"
  printf '  "benches": {\n'
} > "$JSON"

first=1
failures=0
for b in $BENCHES; do
  bin="$BUILD_DIR/bench/$b"
  if [ ! -x "$bin" ]; then
    # A bench listed here but not built means the build is incomplete or a
    # target was renamed without updating this list — fail loudly rather
    # than silently producing a partial BENCH_timings.json.
    echo "error: $b not built (expected $bin)" >&2
    failures=$((failures + 1))
    [ $first -eq 1 ] || printf ',\n' >> "$JSON"
    first=0
    printf '    "%s": {"seconds": 0, "status": "missing"}' "$b" >> "$JSON"
    continue
  fi
  printf '%-28s ' "$b"
  start=$(date +%s%N)
  if "$bin" > "$OUT_DIR/$b.log" 2>&1; then
    status=ok
  else
    status=failed
    failures=$((failures + 1))
  fi
  end=$(date +%s%N)
  secs=$(awk "BEGIN { printf \"%.3f\", ($end - $start) / 1e9 }")
  echo "$status  ${secs}s"
  [ $first -eq 1 ] || printf ',\n' >> "$JSON"
  first=0
  # Fold the bench's marker lines into its JSON entry, one object per
  # marker prefix, in the table's order. EVENTS_PER_SEC lines read
  # "EVENTS_PER_SEC <name> <rate>"; every other marker reads
  # "<PREFIX><key> <value>". SIMD_ values may be strings (ISA names).
  extra=$(awk '
    BEGIN {
      n = split("EVENTS_PER_SEC events_per_sec SPECULATION_ speculation " \
                "FAULT_TOLERANCE_ fault_tolerance SIMD_ simd DES_ des " \
                "PERSIST_ persistence SERVE_ serving " \
                "INCFIT_ incremental_fit TOURNAMENT_ tournament", t, " ")
      for (i = 1; i < n; i += 2) { prefix[++k] = t[i]; section[k] = t[i + 1] }
    }
    {
      for (i = 1; i <= k; ++i) {
        p = prefix[i]
        if (p == "EVENTS_PER_SEC") {
          if (index($0, p " ") != 1) continue
          key = $2; value = $3
        } else {
          if (index($0, p) != 1) continue
          key = substr($1, length(p) + 1); value = $2
        }
        if (p == "SIMD_" && value !~ /^[0-9.eE+-]+$/) value = "\"" value "\""
        body[i] = body[i] (body[i] == "" ? "" : ", ") "\"" key "\": " value
      }
    }
    END {
      for (i = 1; i <= k; ++i) {
        if (body[i] != "") printf ", \"%s\": {%s}", section[i], body[i]
      }
    }' "$OUT_DIR/$b.log")
  printf '    "%s": {"seconds": %s, "status": "%s"%s}' \
    "$b" "$secs" "$status" "$extra" >> "$JSON"
done

total_end=$(date +%s%N)
total_secs=$(awk "BEGIN { printf \"%.3f\", ($total_end - $total_start) / 1e9 }")
{
  printf '\n  },\n'
  printf '  "total_seconds": %s\n' "$total_secs"
  printf '}\n'
} >> "$JSON"

echo "total: ${total_secs}s"
echo "wrote $JSON (CSVs and logs in $OUT_DIR)"
[ $failures -eq 0 ] || { echo "$failures bench(es) failed" >&2; exit 1; }
