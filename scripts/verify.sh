#!/bin/sh
# Full pre-merge verification: vet, build, race-enabled tests, a
# fault-profile pipeline smoke run, a metrics-cardinality lint, a
# cross-subsystem trace smoke (byte-identical same-seed exports), a
# scenario smoke (library checks, replay determinism, probe tolerance),
# a gossip smoke (byte-identical same-seed overlay runs, partition
# survival vs the star control), the registry contention guard, and
# gofmt.
# Run from the repo root: ./scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

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

# Metrics-cardinality lint: a label key whose value set keeps growing
# (request IDs, timestamps, raw durations) would blow up any real TSDB.
# Every label on every series in the smoke run must stay under 32
# distinct values; put unbounded data in trace span attrs instead.
echo "==> metrics cardinality lint (<32 values per label)"
awk '
    /^[a-zA-Z_][a-zA-Z0-9_]*\{/ {
        name = $0; sub(/\{.*/, "", name)
        labels = $0; sub(/^[^{]*\{/, "", labels); sub(/\}.*/, "", labels)
        n = split(labels, parts, /",/)
        for (i = 1; i <= n; i++) {
            kv = parts[i]
            eq = index(kv, "=")
            if (eq == 0) continue
            key = substr(kv, 1, eq - 1)
            val = substr(kv, eq + 1)
            series = name "/" key
            if (!((series SUBSEP val) in seen)) {
                seen[series, val] = 1
                count[series]++
            }
        }
    }
    END {
        bad = 0
        for (s in count) {
            if (count[s] >= 32) {
                print "cardinality lint: " s " has " count[s] " distinct values" > "/dev/stderr"
                bad = 1
            }
        }
        exit bad
    }
' "$metrics"
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

if [ -z "${SKIP_BENCH_GUARD:-}" ] && [ -f BENCH_pr3.json ]; then
    echo "==> benchmark regression guard vs BENCH_pr3.json (SKIP_BENCH_GUARD=1 to skip)"
    bout=$(mktemp)
    # Same profile as scripts/bench.sh; two rounds so one cold-page-cache
    # pass cannot fail the guard (the minimum is compared).
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkFig1Pipeline$' \
        -benchtime 2x -count 2 . >"$bout" 2>&1 || { cat "$bout" >&2; exit 1; }
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkE2GPUSweep$' \
        . >>"$bout" 2>&1 || { cat "$bout" >&2; exit 1; }
    for name in BenchmarkFig1Pipeline BenchmarkE2GPUSweep; do
        base=$(sed -n "s/.*\"$name\": {[^}]*\"ns_per_op\": \([0-9.e+]*\).*/\1/p" BENCH_pr3.json)
        new=$(awk -v n="$name" '$1 ~ "^"n {
            for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") v = $i
            if (min == "" || v + 0 < min + 0) min = v
        } END { print min }' "$bout")
        if [ -z "$base" ] || [ -z "$new" ]; then
            echo "benchmark guard: missing $name measurement (base='$base' new='$new')" >&2
            exit 1
        fi
        if awk -v n="$new" -v b="$base" 'BEGIN { exit !(n > b * 1.25) }'; then
            echo "benchmark guard: $name regressed >25%: $new ns/op vs baseline $base" >&2
            exit 1
        fi
        echo "    $name: $new ns/op (baseline $base, limit +25%)"
    done
    rm -f "$bout"
fi

if [ -z "${SKIP_BENCH_GUARD:-}" ] && [ -f BENCH_pr5.json ]; then
    echo "==> federated regression guard vs BENCH_pr5.json (SKIP_BENCH_GUARD=1 to skip)"
    fout=$(mktemp)
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkE11Federated$' \
        -benchtime 1x . >"$fout" 2>&1 || { cat "$fout" >&2; exit 1; }
    # round_ms is simulated wall-clock, so it is deterministic on any
    # machine: drifting past the limit means federated behavior changed.
    for variant in sync/raw/lossy-wan quorum/raw/lossy-wan sync/topk/clean; do
        name="BenchmarkE11Federated/$variant"
        base=$(awk -v n="\"$name\"" '
            index($0, n": {") { sub(".*\"round_ms\": ", ""); sub("[,}].*", ""); print }
        ' BENCH_pr5.json)
        new=$(awk -v n="$name" '$1 ~ "^"n {
            for (i = 2; i < NF; i++) if ($(i+1) == "round_ms") print $i
        }' "$fout")
        if [ -z "$base" ] || [ -z "$new" ]; then
            echo "federated guard: missing $name round_ms (base='$base' new='$new')" >&2
            exit 1
        fi
        if awk -v n="$new" -v b="$base" 'BEGIN { exit !(n > b * 1.25) }'; then
            echo "federated guard: $name round_ms regressed >25%: $new vs baseline $base" >&2
            exit 1
        fi
        echo "    $name: round_ms $new (baseline $base, limit +25%)"
    done
    # The headline acceptance numbers must keep holding: quorum beats the
    # barrier under the straggler profile, and top-k stays >=3x cheaper.
    awk '
        $1 ~ "^BenchmarkE11Federated/sync/raw/lossy-wan" {
            for (i = 2; i < NF; i++) if ($(i+1) == "round_ms") syncms = $i
        }
        $1 ~ "^BenchmarkE11Federated/quorum/raw/lossy-wan" {
            for (i = 2; i < NF; i++) if ($(i+1) == "round_ms") qms = $i
        }
        $1 ~ "^BenchmarkE11Federated/sync/raw/clean" {
            for (i = 2; i < NF; i++) if ($(i+1) == "bytes_on_wire") rawb = $i
        }
        $1 ~ "^BenchmarkE11Federated/sync/topk/clean" {
            for (i = 2; i < NF; i++) if ($(i+1) == "bytes_on_wire") topkb = $i
        }
        END {
            if (syncms == "" || qms == "" || rawb == "" || topkb == "") {
                print "federated guard: missing E11 metrics" > "/dev/stderr"; exit 1
            }
            if (qms + 0 >= syncms + 0) {
                print "federated guard: quorum round_ms " qms " not faster than sync " syncms > "/dev/stderr"; exit 1
            }
            if (rawb + 0 < 3 * topkb) {
                print "federated guard: topk bytes " topkb " not >=3x smaller than raw " rawb > "/dev/stderr"; exit 1
            }
        }
    ' "$fout"
    rm -f "$fout"
fi

if [ -z "${SKIP_BENCH_GUARD:-}" ]; then
    echo "==> fleet-scale guard (E12: 1k round wall, 10k sub-linearity)"
    eout=$(mktemp)
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkE12FleetScale/hier/w(1000|10000)$' \
        -benchtime 1x . >"$eout" 2>&1 || { cat "$eout" >&2; exit 1; }
    k1=$(awk '$1 == "BenchmarkE12FleetScale/hier/w1000" || $1 ~ "^BenchmarkE12FleetScale/hier/w1000-" {
        for (i = 2; i < NF; i++) if ($(i+1) == "round_ms") print $i }' "$eout")
    k10=$(awk '$1 ~ "^BenchmarkE12FleetScale/hier/w10000" {
        for (i = 2; i < NF; i++) if ($(i+1) == "round_ms") print $i }' "$eout")
    if [ -z "$k1" ] || [ -z "$k10" ]; then
        echo "fleet guard: missing E12 round_ms (1k='$k1' 10k='$k10')" >&2
        cat "$eout" >&2
        exit 1
    fi
    # Hierarchical aggregation's whole point: 10x the fleet must cost less
    # than 10x the simulated round wall (R regional queues drain in
    # parallel; only R partials serialize at the cloud ingress).
    if awk -v a="$k10" -v b="$k1" 'BEGIN { exit !(a + 0 >= 10 * b) }'; then
        echo "fleet guard: 10k-worker round_ms $k10 not sub-linear vs 1k-worker $k1 (limit <10x)" >&2
        exit 1
    fi
    echo "    hier/w1000 round_ms $k1, hier/w10000 round_ms $k10 (sub-linear)"
    if [ -f BENCH_pr7.json ]; then
        # round_ms is simulated wall-clock — deterministic on any machine —
        # so any drift past the limit means coordination behavior changed.
        base=$(awk -v n="\"BenchmarkE12FleetScale/hier/w1000\"" '
            index($0, n": {") { sub(".*\"round_ms\": ", ""); sub("[,}].*", ""); print }
        ' BENCH_pr7.json)
        if [ -n "$base" ]; then
            if awk -v n="$k1" -v b="$base" 'BEGIN { exit !(n > b * 1.25) }'; then
                echo "fleet guard: hier/w1000 round_ms regressed >25%: $k1 vs baseline $base" >&2
                exit 1
            fi
            echo "    hier/w1000: round_ms $k1 (baseline $base, limit +25%)"
        fi
    fi
    rm -f "$eout"
fi

if [ -z "${SKIP_BENCH_GUARD:-}" ]; then
    echo "==> registry contention guard (sharded >=2x mutex at 8 goroutines)"
    cout=$(mktemp)
    GOMAXPROCS=8 go test -run '^$' -bench '^BenchmarkRegistryContention/(mutex|sharded)/g8$' \
        -benchtime 0.5s ./internal/obs/ >"$cout" 2>&1 || { cat "$cout" >&2; exit 1; }
    mutex=$(awk '$1 ~ "^BenchmarkRegistryContention/mutex/g8" {
        for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") print $i }' "$cout")
    sharded=$(awk '$1 ~ "^BenchmarkRegistryContention/sharded/g8" {
        for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") print $i }' "$cout")
    if [ -z "$mutex" ] || [ -z "$sharded" ]; then
        echo "contention guard: missing measurement (mutex='$mutex' sharded='$sharded')" >&2
        cat "$cout" >&2
        exit 1
    fi
    if awk -v m="$mutex" -v s="$sharded" 'BEGIN { exit !(m < 2 * s) }'; then
        echo "contention guard: sharded/g8 $sharded ns/op not >=2x faster than mutex/g8 $mutex" >&2
        exit 1
    fi
    echo "    mutex/g8 $mutex ns/op vs sharded/g8 $sharded ns/op"
    if [ -f BENCH_pr6.json ]; then
        base=$(sed -n 's/.*"BenchmarkRegistryContention\/sharded\/g8": {[^}]*"ns_per_op": \([0-9.e+]*\).*/\1/p' BENCH_pr6.json)
        if [ -n "$base" ]; then
            if awk -v n="$sharded" -v b="$base" 'BEGIN { exit !(n > b * 1.25) }'; then
                echo "contention guard: sharded/g8 regressed >25%: $sharded ns/op vs baseline $base" >&2
                exit 1
            fi
            echo "    sharded/g8: $sharded ns/op (baseline $base, limit +25%)"
        fi
    fi
    rm -f "$cout"
fi

if [ -z "${SKIP_BENCH_GUARD:-}" ]; then
    echo "==> quantized inference guard (E14: int8 >=2x float64, drift in budget)"
    qout=$(mktemp)
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkE14Quantized$' \
        -benchtime 2x -count 2 . >"$qout" 2>&1 || { cat "$qout" >&2; exit 1; }
    f64=$(awk '$1 ~ "^BenchmarkE14Quantized/float64" {
        for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") v = $i
        if (min == "" || v + 0 < min + 0) min = v
    } END { print min }' "$qout")
    i8=$(awk '$1 ~ "^BenchmarkE14Quantized/int8" {
        for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") v = $i
        if (min == "" || v + 0 < min + 0) min = v
    } END { print min }' "$qout")
    drift=$(awk '$1 ~ "^BenchmarkE14Quantized/int8" {
        for (i = 2; i < NF; i++) if ($(i+1) == "quant_maxdelta") print $i
    }' "$qout" | head -1)
    if [ -z "$f64" ] || [ -z "$i8" ] || [ -z "$drift" ]; then
        echo "quant guard: missing E14 measurement (float64='$f64' int8='$i8' drift='$drift')" >&2
        cat "$qout" >&2
        exit 1
    fi
    # The headline acceptance number: the int8 path must stay at least
    # twice as fast as the float64 kernels on the same batch.
    if awk -v q="$i8" -v f="$f64" 'BEGIN { exit !(2 * q > f) }'; then
        echo "quant guard: int8 $i8 ns/op not >=2x faster than float64 $f64" >&2
        exit 1
    fi
    # The benchmark already b.Fatals past eval.QuantBudget; re-checking
    # the reported number here keeps the guard honest if that changes.
    if awk -v d="$drift" 'BEGIN { exit !(d > 0.05) }'; then
        echo "quant guard: quant_maxdelta $drift exceeds the 0.05 budget" >&2
        exit 1
    fi
    echo "    float64 $f64 ns/op vs int8 $i8 ns/op (drift $drift)"
    if [ -f BENCH_pr9.json ]; then
        base=$(sed -n 's/.*"BenchmarkE14Quantized\/int8": {[^}]*"ns_per_op": \([0-9.e+]*\).*/\1/p' BENCH_pr9.json)
        if [ -n "$base" ]; then
            if awk -v n="$i8" -v b="$base" 'BEGIN { exit !(n > b * 1.25) }'; then
                echo "quant guard: int8 regressed >25%: $i8 ns/op vs baseline $base" >&2
                exit 1
            fi
            echo "    int8: $i8 ns/op (baseline $base, limit +25%)"
        fi
    fi
    rm -f "$qout"
fi

if [ -z "${SKIP_BENCH_GUARD:-}" ]; then
    echo "==> serve scale-out guard (E14: procs8 >=3x procs1 req/s)"
    sout=$(mktemp)
    # The rows pin their own GOMAXPROCS (procsN runs at N), so no global
    # pin; the modeled dispatch makes req/s scheduling-bound, hence
    # stable enough to gate on even on a small host.
    go test -run '^$' -bench '^BenchmarkE14Serving/(procs1|procs8)$' \
        -benchtime 2000x . >"$sout" 2>&1 || { cat "$sout" >&2; exit 1; }
    r1=$(awk '$1 ~ "^BenchmarkE14Serving/procs1-" || $1 == "BenchmarkE14Serving/procs1" {
        for (i = 2; i < NF; i++) if ($(i+1) == "req/s") print $i }' "$sout")
    r8=$(awk '$1 ~ "^BenchmarkE14Serving/procs8" {
        for (i = 2; i < NF; i++) if ($(i+1) == "req/s") print $i }' "$sout")
    if [ -z "$r1" ] || [ -z "$r8" ]; then
        echo "scale-out guard: missing E14 req/s (procs1='$r1' procs8='$r8')" >&2
        cat "$sout" >&2
        exit 1
    fi
    if awk -v a="$r8" -v b="$r1" 'BEGIN { exit !(a + 0 < 3 * b) }'; then
        echo "scale-out guard: procs8 $r8 req/s not >=3x procs1 $r1" >&2
        exit 1
    fi
    echo "    procs1 $r1 req/s vs procs8 $r8 req/s"
    rm -f "$sout"
fi

if [ -z "${SKIP_BENCH_GUARD:-}" ]; then
    echo "==> dissemination guard (E15: partition survival, exact wire bytes and loss)"
    dout=$(mktemp)
    GOMAXPROCS=1 go test -run '^$' -bench '^BenchmarkE15Gossip$' \
        -benchtime 1x . >"$dout" 2>&1 || { cat "$dout" >&2; exit 1; }
    # e15 ROW METRIC prints the value the E15 run reported for ROW.
    e15() {
        awk -v row="^BenchmarkE15Gossip/$1(-[0-9]+)?\$" -v m="$2" '$1 ~ row {
            for (i = 2; i < NF; i++) if ($(i+1) == m) print $i }' "$dout"
    }
    gsurv=$(e15 gossip/cloud-partition partition_survived)
    ssurv=$(e15 star/cloud-partition partition_survived)
    if [ -z "$gsurv" ] || [ -z "$ssurv" ]; then
        echo "dissemination guard: missing E15 metrics (gossip='$gsurv' star='$ssurv')" >&2
        cat "$dout" >&2
        exit 1
    fi
    if awk -v g="$gsurv" -v s="$ssurv" 'BEGIN { exit !(g + 0 == 1 && s + 0 == 0) }'; then :; else
        echo "dissemination guard: partition_survived gossip=$gsurv star=$ssurv (want 1 and 0)" >&2
        exit 1
    fi
    echo "    partition_survived: gossip $gsurv, star $ssurv"
    if [ -f BENCH_pr10.json ]; then
        # bytes_on_wire is billed on the simulated links and final_valloss
        # comes from seeded training, so both are deterministic on any
        # machine: any difference from the baseline means the fleet's
        # behaviour changed, not the host.
        for row in star/clean gossip/clean star/cloud-partition gossip/cloud-partition; do
            for m in bytes_on_wire final_valloss; do
                got=$(e15 "$row" "$m")
                want=$(awk -v n="\"BenchmarkE15Gossip/$row\": {" -v m="\"$m\": " '
                    index($0, n) && index($0, m) {
                        v = substr($0, index($0, m) + length(m)); sub("[,}].*", "", v); print v }
                ' BENCH_pr10.json)
                if [ -z "$got" ] || [ -z "$want" ] ||
                    ! awk -v g="$got" -v w="$want" 'BEGIN { exit !(g + 0 == w + 0) }'; then
                    echo "dissemination guard: $row $m is '$got', baseline '$want' (must be equal)" >&2
                    exit 1
                fi
                echo "    $row: $m $got (baseline $want)"
            done
        done
    fi
    rm -f "$dout"
fi

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "OK: vet, build, race tests, fault smoke, cardinality lint, trace smoke, scenario smoke, gossip smoke, and gofmt all clean."
