#!/usr/bin/env bash
# bench.sh — run the hot-path benchmark suite with -benchmem, capture CPU and
# allocation pprof profiles, and record a BENCH_<date>.json trajectory point.
#
# Environment knobs:
#   BENCH_DIR    output directory for raw output + profiles (default bench-artifacts)
#   BENCH_COUNT  -count repetitions per benchmark            (default 5)
#   BENCH_TIME   -benchtime per repetition                   (default 1s)
#   BENCH_MATCH  -bench regexp                               (default the gated suite)
#   BENCH_PKG    the one package to benchmark                (default . , the facade)
#   BENCH_PHASE  phase label recorded into the JSON          (default post)
#   BENCH_JSON   trajectory file to create/merge             (default BENCH_<today>.json)
#   BENCH_MANYJOBS  also run BenchmarkSweepManyJobs once     (default 1; 0 skips)
#
# Typical workflow around an optimization:
#   BENCH_PHASE=pre  BENCH_JSON=BENCH_2026-08-05.json scripts/bench.sh   # before
#   ... optimize ...
#   BENCH_PHASE=post BENCH_JSON=BENCH_2026-08-05.json scripts/bench.sh   # after
#
# A serving-layer rung, e.g. the pool at a full history:
#   BENCH_PKG=./internal/runqueue BENCH_MATCH=PoolSubmitAtFullHistory BENCH_MANYJOBS=0 scripts/bench.sh
#   go tool pprof -top bench-artifacts/bench.test bench-artifacts/cpu.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

out_dir=${BENCH_DIR:-bench-artifacts}
count=${BENCH_COUNT:-5}
benchtime=${BENCH_TIME:-1s}
match=${BENCH_MATCH:-'SingleRunPDPA|SingleRunEqualEff|SingleRunIRIX|SingleRunIRIXSettled|Sweep$'}
pkg=${BENCH_PKG:-.}
phase=${BENCH_PHASE:-post}
json=${BENCH_JSON:-BENCH_$(date +%F).json}
manyjobs=${BENCH_MANYJOBS:-1}

mkdir -p "$out_dir"

go test -run '^$' -bench "$match" -benchmem -benchtime "$benchtime" -count "$count" \
  -cpuprofile "$out_dir/cpu.pprof" -memprofile "$out_dir/mem.pprof" \
  -o "$out_dir/bench.test" "$pkg" | tee "$out_dir/bench.txt"

# The million-job throughput-mode point rides along as a single iteration
# (one pass already simulates >1M jobs; repeating a ~30 s benchmark would
# dominate the suite's runtime). It must land in the same bench.txt before
# the record call: benchgate record replaces a phase's benchmark map
# wholesale, so a separate record would drop the main suite.
if [ "$manyjobs" != 0 ]; then
  go test -run '^$' -bench SweepManyJobs -benchmem -benchtime 1x -count 1 . \
    | tee -a "$out_dir/bench.txt"
fi

go run ./cmd/benchgate record -out "$json" -phase "$phase" "$out_dir/bench.txt"

echo
echo "profiles: go tool pprof -top $out_dir/bench.test $out_dir/cpu.pprof"
echo "          go tool pprof -sample_index=alloc_objects -top $out_dir/bench.test $out_dir/mem.pprof"
