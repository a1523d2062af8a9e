#!/bin/sh
# Full pre-merge verification: vet, build, race tests, CLI smoke runs,
# gofmt, then the benchmark guards; each stage announces itself with ==>.
# Run from the repo root: ./scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

# internal/nn has amd64 assembly; vetting a non-amd64 build proves the
# pure-Go fallback still declares every kernel the assembly provides.
echo "==> GOARCH=arm64 go vet ./internal/nn/..."
GOARCH=arm64 go vet ./internal/nn/...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> fault-profile smoke run (lossy-wan)"
metrics=$(mktemp)
out=$(mktemp)
go run ./cmd/autolearn pipeline -faults lossy-wan -metrics "$metrics" >"$out" 2>&1 || {
    echo "fault-profile pipeline failed:" >&2
    cat "$out" >&2
    exit 1
}
if ! grep -q '^== faults:' "$out"; then
    echo "fault-profile pipeline did not complete (no fault summary):" >&2
    cat "$out" >&2
    exit 1
fi
fallbacks=$(awk '$1 == "hybrid_fallbacks_total" {print $2}' "$metrics")
if [ -z "$fallbacks" ] || [ "$fallbacks" -eq 0 ]; then
    echo "hybrid_fallbacks_total missing or zero under lossy-wan (got '${fallbacks:-absent}')" >&2
    exit 1
fi
# The profile's partitions reach the WAN through the scenario shape table,
# the one link-chaos path; a run that never hits one lost that wiring.
partitions=$(awk '$1 == "faults_injected_total{kind=\"link_partition\"}" {print $2}' "$metrics")
if [ -z "$partitions" ] || [ "$partitions" -eq 0 ]; then
    echo "faults_injected_total{kind=\"link_partition\"} missing or zero under lossy-wan (got '${partitions:-absent}')" >&2
    exit 1
fi
rm -f "$metrics" "$out"

echo "==> fed-train trace smoke (cross-subsystem spans, byte-identical runs)"
t1=$(mktemp) t2=$(mktemp) rout=$(mktemp)
go run ./cmd/autolearn fed-train -workers 3 -rounds 2 -ticks 240 \
    -faults lossy-wan -seed 1 -trace "$t1" >/dev/null 2>&1 || {
    echo "traced fed-train run failed" >&2; exit 1; }
go run ./cmd/autolearn fed-train -workers 3 -rounds 2 -ticks 240 \
    -faults lossy-wan -seed 1 -trace "$t2" >/dev/null 2>&1 || {
    echo "second traced fed-train run failed" >&2; exit 1; }
cmp -s "$t1" "$t2" || {
    echo "trace smoke: same-seed fed-train runs exported different trace bytes" >&2
    exit 1
}
go run ./cmd/autolearn obs report -trace "$t1" >"$rout" 2>&1 || {
    echo "obs report failed:" >&2; cat "$rout" >&2; exit 1; }
for stage in fed-train fed-round fed_local_train fed_upload fed_aggregate \
    fed_checkpoint netem_transfer objstore_put serve_reload "orphans: 0"; do
    if ! grep -q "$stage" "$rout"; then
        echo "trace smoke: obs report missing \"$stage\":" >&2
        cat "$rout" >&2
        exit 1
    fi
done
rm -f "$t1" "$t2" "$rout"

echo "==> scenario smoke (library checks, byte-identical replay, probe tolerance)"
# Every checked-in library file must parse, and its canonical form must
# survive a check round-trip (a file the parser rejects or reorders is a
# broken exemplar).
for scn in scenarios/*.scn; do
    go run ./cmd/autolearn scenario check -file "$scn" >/dev/null 2>&1 || {
        echo "scenario smoke: $scn failed scenario check" >&2
        exit 1
    }
done
s1=$(mktemp) s2=$(mktemp)
go run ./cmd/autolearn fed-train -workers 3 -rounds 2 -ticks 240 \
    -scenario scenarios/lossy-wan.scn -seed 1 -trace "$s1" >/dev/null 2>&1 || {
    echo "scenario smoke: scenario-scripted fed-train failed" >&2; exit 1; }
go run ./cmd/autolearn fed-train -workers 3 -rounds 2 -ticks 240 \
    -scenario scenarios/lossy-wan.scn -seed 1 -trace "$s2" >/dev/null 2>&1 || {
    echo "scenario smoke: second scenario-scripted fed-train failed" >&2; exit 1; }
cmp -s "$s1" "$s2" || {
    echo "scenario smoke: same-seed scenario runs exported different trace bytes" >&2
    exit 1
}
# lossy-wan declares 3 phases; each must land in the trace as one
# scenario_phase span (fewer means the scheduler dropped a transition).
phases=$(grep -c '"scenario_phase"' "$s1" || true)
if [ "$phases" -ne 3 ]; then
    echo "scenario smoke: trace has $phases scenario_phase spans, want 3" >&2
    exit 1
fi
rm -f "$s1" "$s2"
# The throughput probe must agree with what the scenario declares: stock
# profiles on the clean file, the shaped sag mid-window on lossy-wan.
go run ./cmd/autolearn scenario probe -file scenarios/clean.scn -at 60s >/dev/null || {
    echo "scenario smoke: clean.scn probe out of tolerance" >&2
    exit 1
}
go run ./cmd/autolearn scenario probe -file scenarios/lossy-wan.scn -at 90s >/dev/null || {
    echo "scenario smoke: lossy-wan.scn probe out of tolerance at 90s" >&2
    exit 1
}

echo "==> gossip smoke (byte-identical same-seed traces, partition survival)"
# Same-seed gossip runs must export byte-identical traces: the overlay's
# whole determinism story (canonical parcel-set merges, seeded peer
# selection, billed clocks) collapses to one cmp.
g1=$(mktemp) g2=$(mktemp) gout=$(mktemp) stout=$(mktemp)
go run ./cmd/autolearn fed-train -topology gossip -workers 3 -rounds 2 -ticks 240 \
    -faults lossy-wan -seed 1 -trace "$g1" >/dev/null 2>&1 || {
    echo "gossip smoke: traced gossip fed-train run failed" >&2; exit 1; }
go run ./cmd/autolearn fed-train -topology gossip -workers 3 -rounds 2 -ticks 240 \
    -faults lossy-wan -seed 1 -trace "$g2" >/dev/null 2>&1 || {
    echo "gossip smoke: second traced gossip run failed" >&2; exit 1; }
cmp -s "$g1" "$g2" || {
    echo "gossip smoke: same-seed gossip runs exported different trace bytes" >&2
    exit 1
}
for span in gossip-train gossip-round gossip_local_train gossip_exchange \
    gossip_validate netem_transfer; do
    if ! grep -q "\"$span\"" "$g1"; then
        echo "gossip smoke: trace missing \"$span\" spans" >&2
        exit 1
    fi
done
# The headline partition claim, end to end through the CLI: under
# cloud-partition.scn the star fleet stalls (its last round aggregates
# nobody and its loss freezes at the last pre-partition value) while the
# gossip overlay goes headless but keeps converging peer-to-peer.
go run ./cmd/autolearn fed-train -topology gossip -workers 4 -rounds 6 -ticks 400 \
    -seed 7 -scenario scenarios/cloud-partition.scn >"$gout" 2>&1 || {
    echo "gossip smoke: partitioned gossip run failed:" >&2; cat "$gout" >&2; exit 1; }
go run ./cmd/autolearn fed-train -workers 4 -rounds 6 -ticks 400 \
    -seed 7 -scenario scenarios/cloud-partition.scn >"$stout" 2>&1 || {
    echo "gossip smoke: partitioned star run failed:" >&2; cat "$stout" >&2; exit 1; }
grep -q 'headless' "$gout" || {
    echo "gossip smoke: partitioned gossip run reports no headless rounds" >&2
    cat "$gout" >&2
    exit 1
}
g3=$(awk '/^   round 3:/ { print $NF }' "$gout")
g6=$(awk '/^   round 6:/ { print $NF }' "$gout")
s3=$(awk '/^   round 3:/ { print $NF }' "$stout")
s6=$(awk '/^   round 6:/ { print $NF }' "$stout")
if [ -z "$g3" ] || [ -z "$g6" ] || [ -z "$s3" ] || [ -z "$s6" ]; then
    echo "gossip smoke: missing per-round losses (gossip '$g3'/'$g6', star '$s3'/'$s6')" >&2
    exit 1
fi
awk -v a="$g6" -v b="$g3" 'BEGIN { exit !(a + 0 < b + 0) }' || {
    echo "gossip smoke: gossip loss did not improve through the partition ($g3 -> $g6)" >&2
    exit 1
}
[ "$s6" = "$s3" ] || {
    echo "gossip smoke: star loss moved through the partition ($s3 -> $s6); the control is broken" >&2
    exit 1
}
grep -q '0 aggregated' "$stout" || {
    echo "gossip smoke: partitioned star run still aggregated workers" >&2
    exit 1
}
rm -f "$g1" "$g2" "$gout" "$stout"

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Benchmark guards: every run appends to one transcript, which
# cmd/benchgate checks against its guard table, one line per guard.
if [ -z "${SKIP_BENCH_GUARD:-}" ]; then
    echo "==> benchmark guards (SKIP_BENCH_GUARD=1 to skip)"
    bout=$(mktemp)
    benchfail() { cat "$bout" >&2; exit 1; }
    # Same profile as scripts/bench.sh; two rounds so one cold-page-cache
    # pass cannot fail the guard (the minimum is compared).
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkFig1Pipeline$' \
        -benchtime 2x -count 2 . >>"$bout" 2>&1 || benchfail
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkE2GPUSweep$' \
        . >>"$bout" 2>&1 || benchfail
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkE11Federated$' \
        -benchtime 1x . >>"$bout" 2>&1 || benchfail
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkE12FleetScale/hier/w(1000|10000)$' \
        -benchtime 1x . >>"$bout" 2>&1 || benchfail
    GOMAXPROCS=8 go test -run '^$' -bench '^BenchmarkRegistryContention/(mutex|sharded)/g8$' \
        -benchtime 0.5s ./internal/obs/ >>"$bout" 2>&1 || benchfail
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkE14Quantized$' \
        -benchtime 2x -count 2 . >>"$bout" 2>&1 || benchfail
    # The rows pin their own GOMAXPROCS (procsN runs at N), so no global
    # pin; the modeled dispatch makes req/s scheduling-bound, hence
    # stable enough to gate on even on a small host.
    go test -run '^$' -bench '^BenchmarkE14Serving/(procs1|procs8)$' \
        -benchtime 2000x . >>"$bout" 2>&1 || benchfail
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkE15Gossip$' \
        -benchtime 1x . >>"$bout" 2>&1 || benchfail
    go run ./cmd/benchgate check "$bout"
    rm -f "$bout"
fi

echo "OK: vet, build, race tests, fault smoke, trace smoke, scenario smoke, gossip smoke, gofmt and benchmark guards all clean."
