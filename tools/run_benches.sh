#!/usr/bin/env sh
# Run the ATM bench harnesses in sequence.
#
#   tools/run_benches.sh [build-dir] [preset] [json-out]
#
#   preset: full (default)  every harness at its native scale
#           quick           non-timing smoke: ATM_SCALE=test, ATM_REPS=1,
#                           and only the fast inspection/correctness set —
#                           validates that the harnesses run, not timings
#           json            machine-readable results: runs pr10_scale and
#                           writes BENCH_pr10.json (or [json-out]) — bench
#                           name -> ns/op for the continuity storms plus the
#                           oversubscribed configs and steal-histogram
#                           stats. Storm bench names match
#                           BENCH_pr7/pr6/pr5/pr4/pr3.json, so the
#                           checked-in files A/B directly across PRs;
#                           earlier BENCH_prN.json files are never
#                           overwritten (append-only history). Also archives
#                           an atm_run metrics-registry snapshot next to the
#                           bench json (<out>.stats.json) when atm_run is
#                           built.
#
# Benches run argument-less; scale comes from the environment:
#   ATM_SCALE    problem-size preset multiplier   (default: harness-defined;
#                preset quick forces "test" unless already set)
#   ATM_THREADS  worker threads                   (default: 2)
#   ATM_REPS     repetitions for median timing    (default: 3; quick: 1)
#
# Build the binaries first: cmake --build <build-dir> --target bench
set -eu

BUILD_DIR="${1:-build}"
PRESET="${2:-full}"

if [ ! -d "$BUILD_DIR" ]; then
  echo "error: build dir '$BUILD_DIR' not found (run cmake -B $BUILD_DIR -S . first)" >&2
  exit 1
fi

case "$PRESET" in
  full)
    BENCHES="table1_workloads table2_params table3_memory table4_tiered_store \
             fig3_speedup fig4_correctness fig5_p_sensitivity fig6_scalability \
             fig7_trace_gs fig8_trace_blackscholes fig9_reuse_cdf \
             ablation_sizing pr3_hotpath pr4_hotpath pr5_hotpath pr6_tolerance \
             pr7_observability pr10_scale micro_atm"
    ;;
  quick)
    # The timing-heavy sweeps (fig5/fig6/ablation run 16+ full configs) are
    # skipped; the rest exercise every subsystem once at test scale.
    BENCHES="table1_workloads table2_params table3_memory table4_tiered_store \
             fig3_speedup fig4_correctness fig9_reuse_cdf"
    ATM_SCALE="${ATM_SCALE:-test}"
    ATM_REPS="${ATM_REPS:-1}"
    export ATM_SCALE ATM_REPS
    ;;
  json)
    OUT="${3:-BENCH_pr10.json}"
    bin="$BUILD_DIR/pr10_scale"
    if [ ! -x "$bin" ]; then
      echo "error: $bin not built (cmake --build $BUILD_DIR --target bench)" >&2
      exit 1
    fi
    "$bin" --out="$OUT"
    echo "wrote $OUT"
    # Archive a full metrics-registry snapshot of a representative run next
    # to the bench json: the registry names are part of the contract
    # (docs/OBSERVABILITY.md) and the archive shows what this build exported.
    if [ -x "$BUILD_DIR/atm_run" ]; then
      STATS_OUT="${OUT%.json}.stats.json"
      "$BUILD_DIR/atm_run" jacobi --preset=test --stats-json="$STATS_OUT" \
        > /dev/null
      echo "wrote $STATS_OUT"
    fi
    exit 0
    ;;
  *)
    echo "error: unknown preset '$PRESET' (full | quick | json)" >&2
    exit 2
    ;;
esac

failed=0
for b in $BENCHES; do
  bin="$BUILD_DIR/$b"
  if [ ! -x "$bin" ]; then
    echo "--- skipping $b (not built)"
    continue
  fi
  echo ""
  echo "=== $b ==="
  "$bin" || { echo "--- $b FAILED"; failed=1; }
done

exit $failed
