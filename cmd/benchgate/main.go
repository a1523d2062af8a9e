// Command benchgate reads `go test -bench` transcripts. check holds one to
// the guard table below and the BENCH_prN.json baselines in the
// working directory, printing a PASS or FAIL line per guard and exiting 1
// if any failed. record writes one as a BENCH_pr10.json baseline, and
// refuses a transcript that records a failed run or names a benchmark
// twice.
//
//	benchgate check TRANSCRIPT
//	benchgate record -gomaxprocs N -o OUT TRANSCRIPT
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 || (args[0] != "check" && args[0] != "record") {
		return fmt.Errorf("usage: benchgate check TRANSCRIPT | record -gomaxprocs N -o OUT TRANSCRIPT")
	}
	fs := flag.NewFlagSet(args[0], flag.ExitOnError)
	procs := fs.String("gomaxprocs", "", "record: GOMAXPROCS the transcript ran at")
	out := fs.String("o", "", "record: output file")
	fs.Parse(args[1:])
	if fs.NArg() != 1 {
		return fmt.Errorf("%s: want one transcript file", args[0])
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rows, failed := parse(string(data))
	if args[0] == "check" {
		lines, nfail := check(rows, ".")
		fmt.Println(strings.Join(lines, "\n"))
		if nfail > 0 {
			return fmt.Errorf("%d of %d guards failed on %s", nfail, len(lines), fs.Arg(0))
		}
		return nil
	}
	if *procs == "" || *out == "" {
		return fmt.Errorf("record: -gomaxprocs and -o are required")
	}
	if failed {
		return fmt.Errorf("a benchmark run failed; not writing %s", *out)
	}
	baseline, err := record(rows, *procs)
	if err != nil {
		return fmt.Errorf("%w; not writing %s", err, *out)
	}
	return os.WriteFile(*out, baseline, 0o644)
}

// result is one benchmark line of a transcript: the benchmark's name
// without its -GOMAXPROCS suffix, then the iteration count and
// value-unit pairs as go test printed them.
type result struct {
	name   string
	fields []string
}

// value returns the value printed before unit, or "" if there is none.
func (r result) value(unit string) string {
	v := ""
	for i := 0; i+1 < len(r.fields); i++ {
		if r.fields[i+1] == unit {
			v = r.fields[i]
		}
	}
	return v
}

var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse returns a transcript's benchmark lines that report ns/op, in
// order, and whether any line starts with FAIL.
func parse(transcript string) (rows []result, failed bool) {
	for _, line := range strings.Split(transcript, "\n") {
		failed = failed || strings.HasPrefix(line, "FAIL")
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if r := (result{procsSuffix.ReplaceAllString(f[0], ""), f[1:]}); r.value("ns/op") != "" {
			rows = append(rows, r)
		}
	}
	return rows, failed
}

// jsonKeys maps go test units to BENCH_prN.json fields; other units are
// their own field name.
var jsonKeys = map[string]string{"ns/op": "ns_per_op", "B/op": "bytes_per_op", "allocs/op": "allocs_per_op", "req/s": "req_per_s"}

// recordedUnits are the optional metrics a baseline keeps, in the order
// they are written.
var recordedUnits = []string{"req/s", "round_ms", "bytes_on_wire", "final_valloss",
	"transitions", "quant_maxdelta", "rounds_to_converge", "partition_survived"}

// record renders rows as a BENCH_pr10.json baseline, one benchmark per
// line, every value as the transcript printed it. A benchmark named
// twice (a -count N run) is an error: JSON keeps one value per key.
func record(rows []result, gomaxprocs string) ([]byte, error) {
	entries := make([]string, len(rows))
	seen := map[string]bool{}
	for i, r := range rows {
		if seen[r.name] {
			return nil, fmt.Errorf("%s appears more than once in the transcript", r.name)
		}
		seen[r.name] = true
		e := fmt.Sprintf(`    "%s": {"iterations": %s, "ns_per_op": %s, "bytes_per_op": %s, "allocs_per_op": %s`,
			r.name, r.fields[0], r.value("ns/op"), cmp.Or(r.value("B/op"), "0"), cmp.Or(r.value("allocs/op"), "0"))
		for _, u := range recordedUnits {
			if v := r.value(u); v != "" {
				e += fmt.Sprintf(`, "%s": %s`, cmp.Or(jsonKeys[u], u), v)
			}
		}
		entries[i] = e + "}"
	}
	return []byte(fmt.Sprintf("{\n  \"pr\": 10,\n  \"gomaxprocs\": %s,\n  \"benchmarks\": {\n%s\n  }\n}\n",
		gomaxprocs, strings.Join(entries, ",\n"))), nil
}

// A guard holds one metric of one benchmark row to op ("==", "<", "<="
// or ">=") factor times a reference: the row's value in baseline file,
// else the same metric of row other in the transcript, else 1.
type guard struct {
	bench, metric, op string
	factor            float64
	other, file       string
}

// The four kinds of guard: equal to the baseline, at most 1.25x the
// baseline, a ratio to another row of the same run, an absolute bound.
func exact(b, m, file string) guard                        { return guard{b, m, "==", 1, "", file} }
func within(b, m, file string) guard                       { return guard{b, m, "<=", 1.25, "", file} }
func ratio(b, m, op string, f float64, other string) guard { return guard{b, m, op, f, other, ""} }
func bound(b, m, op string, limit float64) guard           { return guard{b, m, op, limit, "", ""} }

// guards is the benchmark gate scripts/verify.sh runs. round_ms is
// simulated time, bytes_on_wire is billed on simulated links, and
// final_valloss, quant_maxdelta and partition_survived come from seeded
// runs, so they are the same on any host: a change in one means the code
// changed. Wall-clock ns/op compares the best of the transcript's runs.
var guards = []guard{
	within("BenchmarkFig1Pipeline", "ns/op", "BENCH_pr3.json"),
	within("BenchmarkE2GPUSweep", "ns/op", "BENCH_pr3.json"),

	exact("BenchmarkE11Federated/sync/raw/lossy-wan", "round_ms", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/sync/raw/lossy-wan", "bytes_on_wire", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/sync/raw/lossy-wan", "final_valloss", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/quorum/raw/lossy-wan", "round_ms", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/quorum/raw/lossy-wan", "bytes_on_wire", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/quorum/raw/lossy-wan", "final_valloss", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/sync/raw/clean", "round_ms", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/sync/raw/clean", "bytes_on_wire", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/sync/raw/clean", "final_valloss", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/sync/topk/clean", "round_ms", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/sync/topk/clean", "bytes_on_wire", "BENCH_pr10.json"),
	exact("BenchmarkE11Federated/sync/topk/clean", "final_valloss", "BENCH_pr10.json"),
	// Quorum beats the barrier under stragglers; top-k is >=3x cheaper.
	ratio("BenchmarkE11Federated/quorum/raw/lossy-wan", "round_ms", "<", 1, "BenchmarkE11Federated/sync/raw/lossy-wan"),
	ratio("BenchmarkE11Federated/sync/raw/clean", "bytes_on_wire", ">=", 3, "BenchmarkE11Federated/sync/topk/clean"),

	// Hierarchical aggregation: 10x the fleet costs under 10x the round.
	ratio("BenchmarkE12FleetScale/hier/w10000", "round_ms", "<", 10, "BenchmarkE12FleetScale/hier/w1000"),
	within("BenchmarkE12FleetScale/hier/w1000", "round_ms", "BENCH_pr7.json"),

	ratio("BenchmarkRegistryContention/mutex/g8", "ns/op", ">=", 2, "BenchmarkRegistryContention/sharded/g8"),
	within("BenchmarkRegistryContention/sharded/g8", "ns/op", "BENCH_pr6.json"),

	// int8 at least twice as fast as float64, inside the drift budget.
	ratio("BenchmarkE14Quantized/float64", "ns/op", ">=", 2, "BenchmarkE14Quantized/int8"),
	bound("BenchmarkE14Quantized/int8", "quant_maxdelta", "<=", 0.05),
	within("BenchmarkE14Quantized/int8", "ns/op", "BENCH_pr9.json"),

	ratio("BenchmarkE14Serving/procs8", "req/s", ">=", 3, "BenchmarkE14Serving/procs1"),

	// Under the cloud partition only the gossip overlay keeps converging.
	bound("BenchmarkE15Gossip/gossip/cloud-partition", "partition_survived", "==", 1),
	bound("BenchmarkE15Gossip/star/cloud-partition", "partition_survived", "==", 0),
	exact("BenchmarkE15Gossip/star/clean", "bytes_on_wire", "BENCH_pr10.json"),
	exact("BenchmarkE15Gossip/star/clean", "final_valloss", "BENCH_pr10.json"),
	exact("BenchmarkE15Gossip/gossip/clean", "bytes_on_wire", "BENCH_pr10.json"),
	exact("BenchmarkE15Gossip/gossip/clean", "final_valloss", "BENCH_pr10.json"),
	exact("BenchmarkE15Gossip/star/cloud-partition", "bytes_on_wire", "BENCH_pr10.json"),
	exact("BenchmarkE15Gossip/star/cloud-partition", "final_valloss", "BENCH_pr10.json"),
	exact("BenchmarkE15Gossip/gossip/cloud-partition", "bytes_on_wire", "BENCH_pr10.json"),
	exact("BenchmarkE15Gossip/gossip/cloud-partition", "final_valloss", "BENCH_pr10.json"),
}

// String renders the rule, e.g. "BenchmarkX ns/op <= 1.25 x BENCH_pr3.json".
func (g guard) String() string {
	s := fmt.Sprintf("%s %s %s %s", g.bench, g.metric, g.op, num(g.factor))
	if ref := g.file + g.other; ref != "" {
		s += " x " + ref
	}
	return s
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

var ops = map[string]func(v, limit float64) bool{
	"==": func(v, limit float64) bool { return v == limit },
	"<":  func(v, limit float64) bool { return v < limit },
	"<=": func(v, limit float64) bool { return v <= limit },
	">=": func(v, limit float64) bool { return v >= limit },
}

// check holds the transcript rows to every guard, with baselines read
// from dir, and returns one PASS or FAIL line per guard and the number
// that failed. A missing row, metric or baseline fails its guard.
func check(rows []result, dir string) (lines []string, failed int) {
	for _, g := range guards {
		v, limit, err := g.eval(rows, dir)
		verdict, detail := "PASS", fmt.Sprintf("%s %s %s", num(v), g.op, num(limit))
		if err != nil {
			detail = err.Error()
		}
		if err != nil || !ops[g.op](v, limit) {
			verdict = "FAIL"
			failed++
		}
		lines = append(lines, fmt.Sprintf("%s %s: %s", verdict, g, detail))
	}
	return lines, failed
}

// eval returns g's current value and the limit it is held to.
func (g guard) eval(rows []result, dir string) (v, limit float64, err error) {
	ref := 1.0
	switch {
	case g.file != "":
		ref, err = baseline(filepath.Join(dir, g.file), g.bench, cmp.Or(jsonKeys[g.metric], g.metric))
	case g.other != "":
		ref, err = current(rows, g.other, g.metric)
	}
	if err == nil {
		v, err = current(rows, g.bench, g.metric)
	}
	return v, g.factor * ref, err
}

// current returns bench's metric in the transcript. ns/op takes the best
// (lowest) of repeated runs; every other metric must agree across runs.
func current(rows []result, bench, metric string) (float64, error) {
	var vals []float64
	for _, r := range rows {
		if r.name == bench {
			v, err := strconv.ParseFloat(r.value(metric), 64)
			if err != nil {
				return 0, fmt.Errorf("%s reports no numeric %s", bench, metric)
			}
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, fmt.Errorf("no %s row in the transcript", bench)
	}
	if lo := slices.Min(vals); metric == "ns/op" || lo == slices.Max(vals) {
		return lo, nil
	}
	return 0, fmt.Errorf("%s %s differs between runs: %v", bench, metric, vals)
}

// baseline returns a benchmark's field from a BENCH_prN.json file. Of a
// benchmark named twice (a -count 2 baseline), the last entry counts.
func baseline(path, bench, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct{ Benchmarks map[string]map[string]float64 }
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if v, ok := doc.Benchmarks[bench][key]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("%s has no %s for %s", filepath.Base(path), key, bench)
}
