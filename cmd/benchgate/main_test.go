package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// repoRoot holds the checked-in BENCH_prN.json baselines.
const repoRoot = "../.."

func parseString(s string) []result {
	rows, _ := parse(s)
	return rows
}

func readTranscript(t *testing.T) []result {
	t.Helper()
	data, err := os.ReadFile("testdata/bench_transcript.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows, failed := parse(string(data))
	if failed {
		t.Fatal("testdata/bench_transcript.txt records a failed run")
	}
	return rows
}

// TestRecordMatchesShellWriter: on a real scripts/bench.sh transcript,
// record writes the bytes the shell JSON writer it replaced wrote.
func TestRecordMatchesShellWriter(t *testing.T) {
	got, err := record(readTranscript(t), "1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/bench_record.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("record output differs from testdata/bench_record.golden:\n%s", got)
	}
}

// TestVerdictsMatchShellGuards: on the same real transcript, check fails
// exactly the guards the shell guards it replaced failed (every other
// row of theirs passed).
func TestVerdictsMatchShellGuards(t *testing.T) {
	lines, _ := check(readTranscript(t), repoRoot)
	var failed []string
	for i, line := range lines {
		if !strings.HasPrefix(line, "PASS") {
			failed = append(failed, guards[i].String())
		}
	}
	want := []string{
		"BenchmarkE2GPUSweep ns/op <= 1.25 x BENCH_pr3.json",
		"BenchmarkE14Quantized/float64 ns/op >= 2 x BenchmarkE14Quantized/int8",
		"BenchmarkE14Quantized/int8 ns/op <= 1.25 x BENCH_pr9.json",
	}
	if !slices.Equal(failed, want) {
		t.Errorf("failed guards:\n%s\nwant:\n%s", strings.Join(failed, "\n"), strings.Join(want, "\n"))
	}
}

func TestRecordRefusesFailedRun(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "raw.txt"), filepath.Join(dir, "out.json")
	transcript := "BenchmarkX \t 3\t 10 ns/op\n--- FAIL: BenchmarkY\nFAIL\trepro\t0.1s\n"
	if err := os.WriteFile(in, []byte(transcript), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"record", "-gomaxprocs", "1", "-o", out, in}); err == nil {
		t.Fatal("record accepted a transcript with a failed run")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("record wrote %s from a failed run (stat: %v)", out, err)
	}
}

// TestRecordRefusesRepeatedBenchmark: a -count 2 transcript names each
// benchmark twice, which JSON keys cannot hold; record names the first
// repeated benchmark and writes nothing.
func TestRecordRefusesRepeatedBenchmark(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "raw.txt"), filepath.Join(dir, "out.json")
	transcript := "BenchmarkX-2 \t 3\t 10 ns/op\nBenchmarkY-2 \t 3\t 20 ns/op\n" +
		"BenchmarkX-2 \t 3\t 11 ns/op\nBenchmarkY-2 \t 3\t 21 ns/op\nok\trepro\t0.1s\n"
	if err := os.WriteFile(in, []byte(transcript), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"record", "-gomaxprocs", "2", "-o", out, in})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkX appears more than once") {
		t.Fatalf("record on a -count 2 transcript: got %v, want an error naming BenchmarkX", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("record wrote %s from a -count 2 transcript (stat: %v)", out, err)
	}
}

// TestGuardTable pins every guard and its bound: deleting a row, or
// loosening one, fails here.
func TestGuardTable(t *testing.T) {
	want := []string{
		"BenchmarkFig1Pipeline ns/op <= 1.25 x BENCH_pr3.json",
		"BenchmarkE2GPUSweep ns/op <= 1.25 x BENCH_pr3.json",
		"BenchmarkE11Federated/sync/raw/lossy-wan round_ms == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/sync/raw/lossy-wan bytes_on_wire == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/sync/raw/lossy-wan final_valloss == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/quorum/raw/lossy-wan round_ms == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/quorum/raw/lossy-wan bytes_on_wire == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/quorum/raw/lossy-wan final_valloss == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/sync/raw/clean round_ms == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/sync/raw/clean bytes_on_wire == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/sync/raw/clean final_valloss == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/sync/topk/clean round_ms == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/sync/topk/clean bytes_on_wire == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/sync/topk/clean final_valloss == 1 x BENCH_pr10.json",
		"BenchmarkE11Federated/quorum/raw/lossy-wan round_ms < 1 x BenchmarkE11Federated/sync/raw/lossy-wan",
		"BenchmarkE11Federated/sync/raw/clean bytes_on_wire >= 3 x BenchmarkE11Federated/sync/topk/clean",
		"BenchmarkE12FleetScale/hier/w10000 round_ms < 10 x BenchmarkE12FleetScale/hier/w1000",
		"BenchmarkE12FleetScale/hier/w1000 round_ms <= 1.25 x BENCH_pr7.json",
		"BenchmarkRegistryContention/mutex/g8 ns/op >= 2 x BenchmarkRegistryContention/sharded/g8",
		"BenchmarkRegistryContention/sharded/g8 ns/op <= 1.25 x BENCH_pr6.json",
		"BenchmarkE14Quantized/float64 ns/op >= 2 x BenchmarkE14Quantized/int8",
		"BenchmarkE14Quantized/int8 quant_maxdelta <= 0.05",
		"BenchmarkE14Quantized/int8 ns/op <= 1.25 x BENCH_pr9.json",
		"BenchmarkE14Serving/procs8 req/s >= 3 x BenchmarkE14Serving/procs1",
		"BenchmarkE15Gossip/gossip/cloud-partition partition_survived == 1",
		"BenchmarkE15Gossip/star/cloud-partition partition_survived == 0",
		"BenchmarkE15Gossip/star/clean bytes_on_wire == 1 x BENCH_pr10.json",
		"BenchmarkE15Gossip/star/clean final_valloss == 1 x BENCH_pr10.json",
		"BenchmarkE15Gossip/gossip/clean bytes_on_wire == 1 x BENCH_pr10.json",
		"BenchmarkE15Gossip/gossip/clean final_valloss == 1 x BENCH_pr10.json",
		"BenchmarkE15Gossip/star/cloud-partition bytes_on_wire == 1 x BENCH_pr10.json",
		"BenchmarkE15Gossip/star/cloud-partition final_valloss == 1 x BENCH_pr10.json",
		"BenchmarkE15Gossip/gossip/cloud-partition bytes_on_wire == 1 x BENCH_pr10.json",
		"BenchmarkE15Gossip/gossip/cloud-partition final_valloss == 1 x BENCH_pr10.json",
	}
	var got []string
	for _, g := range guards {
		got = append(got, g.String())
	}
	if !slices.Equal(got, want) {
		t.Errorf("guard table changed:\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// fixture is a synthetic transcript: benchmark name -> unit -> value.
type fixture map[string]map[string]string

func (f fixture) transcript() string {
	names := make([]string, 0, len(f))
	for name := range f {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(name + "-8 \t 1")
		units := make([]string, 0, len(f[name]))
		for u := range f[name] {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			b.WriteString("\t " + f[name][u] + " " + u)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// passingFixture builds a transcript every guard passes from the
// checked-in baselines: each row the table names, with the metrics
// BENCH_pr10.json records for it, or those of the baseline its own guard
// compares against.
func passingFixture(t *testing.T) fixture {
	t.Helper()
	units := map[string]string{}
	for _, u := range append([]string{"ns/op", "B/op", "allocs/op"}, recordedUnits...) {
		units[cmp.Or(jsonKeys[u], u)] = u
	}
	fill := func(f fixture, name, file string) {
		data, err := os.ReadFile(filepath.Join(repoRoot, file))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Benchmarks map[string]map[string]json.Number
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Benchmarks[name] == nil {
			t.Fatalf("%s has no %s", file, name)
		}
		f[name] = map[string]string{}
		for key, v := range doc.Benchmarks[name] {
			if u, ok := units[key]; ok {
				f[name][u] = v.String()
			}
		}
	}
	f := fixture{}
	for _, g := range guards {
		for _, name := range []string{g.bench, g.other} {
			if name != "" && f[name] == nil {
				fill(f, name, "BENCH_pr10.json")
			}
		}
	}
	for _, g := range guards {
		if g.file != "" && g.file != "BENCH_pr10.json" {
			fill(f, g.bench, g.file)
		}
	}
	return f
}

func TestGuardsPassOnBaselines(t *testing.T) {
	lines, failed := check(parseString(passingFixture(t).transcript()), repoRoot)
	if failed != 0 || len(lines) != len(guards) {
		t.Errorf("%d of %d guards failed:\n%s", failed, len(lines), strings.Join(lines, "\n"))
	}
}

// TestEveryGuardFailsPastItsBound moves each guard's value to just
// inside and just past its limit, and then drops its row: only the first
// passes.
func TestEveryGuardFailsPastItsBound(t *testing.T) {
	for i, g := range guards {
		f := passingFixture(t)
		_, limit, err := g.eval(parseString(f.transcript()), repoRoot)
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		inside, past := limit, math.Nextafter(limit, math.Inf(1))
		switch g.op {
		case "<":
			inside, past = math.Nextafter(limit, math.Inf(-1)), limit
		case ">=":
			past = math.Nextafter(limit, math.Inf(-1))
		}
		verdict := func() string {
			lines, _ := check(parseString(f.transcript()), repoRoot)
			return lines[i]
		}
		for _, c := range []struct {
			v    float64
			want string
		}{{inside, "PASS"}, {past, "FAIL"}} {
			f[g.bench][g.metric] = strconv.FormatFloat(c.v, 'g', -1, 64)
			if got := verdict(); !strings.HasPrefix(got, c.want) {
				t.Errorf("value %v: %s", c.v, got)
			}
		}
		delete(f, g.bench)
		if got := verdict(); !strings.HasPrefix(got, "FAIL") {
			t.Errorf("row missing: %s", got)
		}
	}
}

func TestMissingBaselineFails(t *testing.T) {
	rows := parseString(passingFixture(t).transcript())
	lines, _ := check(rows, t.TempDir())
	for i, g := range guards {
		if want := map[bool]string{true: "FAIL", false: "PASS"}[g.file != ""]; !strings.HasPrefix(lines[i], want) {
			t.Errorf("no baselines: %s, want %s", lines[i], want)
		}
	}
}

// TestRepeatedRuns: ns/op takes the best of repeated runs, while a
// deterministic metric that differs between runs fails.
func TestRepeatedRuns(t *testing.T) {
	rows := parseString("BenchmarkX \t 2\t 900 ns/op\t 0.5 loss\n" +
		"BenchmarkX \t 2\t 700 ns/op\t 0.5 loss\n" +
		"BenchmarkY-2 \t 2\t 800 ns/op\t 0.5 loss\n" +
		"BenchmarkY-2 \t 2\t 800 ns/op\t 0.6 loss\n")
	if v, err := current(rows, "BenchmarkX", "ns/op"); v != 700 || err != nil {
		t.Errorf("BenchmarkX ns/op = %v, %v; want 700", v, err)
	}
	if v, err := current(rows, "BenchmarkX", "loss"); v != 0.5 || err != nil {
		t.Errorf("BenchmarkX loss = %v, %v; want 0.5", v, err)
	}
	if _, err := current(rows, "BenchmarkY", "loss"); err == nil {
		t.Error("BenchmarkY loss differs between runs but was accepted")
	}
}
