#!/bin/sh
# Reproducible benchmark runner: runs the paper-experiment benchmarks
# (F1-F3, E1-E7, E10-E15) plus the GEMM kernel micro-benchmarks under
# pinned GOMAXPROCS, and writes BENCH_pr10.json with `benchgate record`:
# one datapoint per benchmark of the repo's performance trajectory, with
# ns/op, bytes/op, allocs/op and each row's own metrics (the list is
# recordedUnits in cmd/benchgate).
#
# Usage: ./scripts/bench.sh
#   BENCH_OUT=path        output file (default BENCH_pr10.json)
#   BENCH_GOMAXPROCS=n    pinned worker count (default 1, the contract
#                         baseline: results are deterministic at any
#                         fixed value, but timings only compare at the
#                         same one)
#   BENCH_TIME_HEAVY=t    -benchtime for the pipeline-scale benchmarks
#                         (default 2x)
# The model seeds are pinned inside the benchmarks themselves, so two
# runs on the same machine differ only by scheduler/IO noise.
set -eu

cd "$(dirname "$0")/.."

OUT=${BENCH_OUT:-BENCH_pr10.json}
export GOMAXPROCS=${BENCH_GOMAXPROCS:-1}
HEAVY_TIME=${BENCH_TIME_HEAVY:-2x}

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "==> heavy benchmarks (F1-F3, E1) -benchtime=$HEAVY_TIME"
go test -run '^$' -bench \
    '^(BenchmarkFig1Pipeline|BenchmarkFig2Collection|BenchmarkFig3Tracks|BenchmarkE1SixModels)$' \
    -benchmem -benchtime "$HEAVY_TIME" . | tee -a "$raw"

echo "==> steady-state benchmarks (E2-E7)"
go test -run '^$' -bench \
    '^(BenchmarkE2GPUSweep|BenchmarkE3Placement|BenchmarkE4DigitalTwin|BenchmarkE5Trovi|BenchmarkE6ZeroToReady|BenchmarkE7Reservations)$' \
    -benchmem . | tee -a "$raw"

echo "==> serving benchmarks (E10)"
go test -run '^$' -bench '^BenchmarkE10Serving$' . | tee -a "$raw"

echo "==> federated benchmarks (E11)"
go test -run '^$' -bench '^BenchmarkE11Federated$' -benchtime 1x . | tee -a "$raw"

echo "==> fleet-scale benchmarks (E12)"
go test -run '^$' -bench '^BenchmarkE12FleetScale$' -benchmem -benchtime 1x . | tee -a "$raw"

echo "==> scenario-replay benchmarks (E13)"
go test -run '^$' -bench '^BenchmarkE13Scenario$' -benchtime 1x . | tee -a "$raw"

echo "==> dissemination-topology benchmarks (E15)"
go test -run '^$' -bench '^BenchmarkE15Gossip$' -benchtime 1x . | tee -a "$raw"

echo "==> quantized-inference benchmarks (E14)"
go test -run '^$' -bench '^BenchmarkE14Quantized$' -benchtime 2x . | tee -a "$raw"

# The replica sweep pins GOMAXPROCS inside each row (procsN runs at N),
# so the global pin does not apply; req/s compares rows to each other.
echo "==> multicore serving scale-out (E14)"
go test -run '^$' -bench '^BenchmarkE14Serving$' -benchtime 2000x . | tee -a "$raw"

echo "==> GEMM kernel micro-benchmarks"
go test -run '^$' -bench '^BenchmarkGEMM$' -benchmem \
    ./internal/nn/kerneltest/ | tee -a "$raw"

# The registry contention benchmark needs real parallelism to mean
# anything, so it pins its own GOMAXPROCS=8 regardless of the global
# setting (the goroutine count is the g* suffix, not GOMAXPROCS).
echo "==> metrics registry contention (GOMAXPROCS=8)"
GOMAXPROCS=8 go test -run '^$' -bench '^BenchmarkRegistryContention$' \
    -benchmem ./internal/obs/ | tee -a "$raw"

# POSIX sh has no pipefail, so a crashing benchmark binary exits 0
# through the tee pipelines above; benchgate refuses to write JSON from a
# transcript that records a failure.
go run ./cmd/benchgate record -gomaxprocs "$GOMAXPROCS" -o "$OUT" "$raw"

echo "==> wrote $OUT"
