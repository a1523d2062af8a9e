// Command perfbench is the repository's benchmark: one process runs one
// workload (pipeline, serve or fleet) for a fixed time, checks the
// outputs, and prints every metric by name and unit. With -trace 0 it
// reports the end-to-end metrics; with -trace 1 it reruns the workload
// with spans around each call into a layer and a CPU profile, and
// reports the per-layer metrics. The last line of standard output is a
// JSON object {correct, attempted, failed, metrics}.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the workload sees; every workload reports
// each of them, with the meaning README.md gives per workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"ok_ratio", "ratio"},
	{"rss_peak_mb", "MB"},
	{"bytes_on_wire", "bytes"},
}

// layerMetrics come from the traced run. A layer a workload never calls
// reports 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"setup.wall_s", "s"}, {"core.loop_s", "s"},
		{"core.collect_s", "s"}, {"core.clean_s", "s"}, {"core.train_s", "s"}, {"core.evaluate_s", "s"},
		{"sim.drive_s", "s"}, {"sim.eval_drive_s", "s"},
		{"tub.write_s", "s"}, {"tub.write_bytes", "bytes"}, {"tub.clean_s", "s"}, {"tub.read_s", "s"},
		{"nn.forward_train_s", "s"}, {"nn.backward_s", "s"}, {"nn.optimizer_s", "s"}, {"nn.loss_s", "s"},
		{"nn.forward_eval_s", "s"}, {"nn.train_self_s", "s"}, {"nn.batches", "count"},
		{"nn.samples_per_s", "1/s"}, {"nn.epoch_s", "s"},
		{"pilot.dataset_s", "s"}, {"pilot.save_s", "s"}, {"pilot.load_s", "s"},
		{"pilot.drive_frame_us.p50", "us"}, {"pilot.drive_frame_us.p99", "us"}, {"pilot.drive_frame_us.count", "count"},
		{"pilot.infer_row_us.inferred.b1", "us"}, {"pilot.infer_row_us.inferred.b32", "us"},
		{"pilot.infer_row_us.rnn.b1", "us"}, {"pilot.infer_row_us.rnn.b32", "us"},
		{"eval.score_s", "s"},
		{"objstore.put_s", "s"}, {"objstore.get_s", "s"}, {"objstore.checkpoint_bytes", "bytes"},
		{"netem.transfer_s", "s"}, {"netem.star_bytes", "bytes"}, {"netem.gossip_bytes", "bytes"},
		{"netem.virtual_round_ms", "ms"},
		{"serve.p50_ms", "ms"}, {"serve.p99_ms", "ms"}, {"serve.max_rps", "1/s"}, {"serve.gen_late_exceeded", "count"},
		{"serve.queued_ms.p50", "ms"}, {"serve.queued_ms.p99", "ms"},
		{"serve.handler_ms.p50", "ms"}, {"serve.handler_ms.p99", "ms"},
		{"serve.batch_size.mean", "count"}, {"serve.batch_size.p50", "count"},
		{"serve.shed", "count"}, {"serve.expired", "count"},
		{"serve.reload_s", "s"}, {"serve.reload_p99_ms", "ms"}, {"serve.reloads", "count"},
		{"serve.gen_late_ms.p50", "ms"}, {"serve.gen_late_ms.p99", "ms"},
	}
	for _, r := range serveLadder {
		defs = append(defs, metricDef{fmt.Sprintf("serve.rung_p99_ms.r%d", int(r)), "ms"})
	}
	defs = append(defs, []metricDef{
		{"fed.execute_s", "s"}, {"gossip.execute_s", "s"},
		{"fed.round_s.p50", "s"}, {"fed.round_s.p99", "s"},
		{"gossip.round_s.p50", "s"}, {"gossip.round_s.p99", "s"},
		{"fed.deltas_applied", "count"}, {"gossip.parcels", "count"}, {"gossip.exchanges", "count"},
		{"fed.val_loss", "loss"}, {"gossip.val_loss", "loss"}, {"pipeline.val_loss", "loss"},
	}...)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l, "share"})
	}
	return append(defs, []metricDef{
		{"cpu.samples", "count"},
		{"go.gc_cpu_s", "s"}, {"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"},
		{"trace.overhead_s", "s"}, {"trace.spans", "count"},
	}...)
}()

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // the benchmark's scratch directory inside the checkout
	// startProfile starts the CPU profile of a traced run; workloads call
	// it where their measured work begins. It does nothing untraced.
	startProfile func() error
}

// report is one run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	problems  []string
	tr        *tracer // traced runs only; written out at the end
}

func newReport() *report { return &report{correct: true, metrics: map[string]float64{}} }

// check records a failed output check; the run then reports correct=false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

var workloads = map[string]func(options) (*report, error){
	"pipeline": runPipelineWorkload,
	"serve":    runServeWorkload,
	"fleet":    runFleetWorkload,
}

func main() {
	workload := flag.String("workload", "", "pipeline | serve | fleet")
	seed := flag.Int64("seed", 1, "input seed (1 is the default; claims are re-checked on seed 7)")
	seconds := flag.Int("seconds", 30, "measured time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload pipeline|serve|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", "run"))
	if err == nil {
		err = os.MkdirAll(root, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, root: root}
	fmt.Printf("host %s\n", fingerprint(root))

	var prof bytes.Buffer
	profiling := false
	opt.startProfile = func() error {
		if !opt.trace || profiling {
			return nil
		}
		profiling = true
		return pprof.StartCPUProfile(&prof)
	}
	rep, err := run(opt)
	if profiling {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rep.set("rss_peak_mb", peakRSSMB())
	defs := e2eMetrics
	if opt.trace {
		defs = layerMetrics
		shares, n, err := cpuShares(prof.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		for l, s := range shares {
			rep.set("cpu."+l, s)
		}
		rep.set("cpu.samples", float64(n))
		if rep.tr != nil {
			rep.set("trace.spans", float64(len(rep.tr.spans)))
			fmt.Print(rep.tr.describe())
			path := filepath.Join(root, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
			if err := rep.tr.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
				os.Exit(1)
			}
			fmt.Printf("spans written to %s\n", path)
		}
	}
	emit(*workload, opt, rep, defs)
}

// emit prints the metric table and the result line.
func emit(workload string, opt options, rep *report, defs []metricDef) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	fmt.Printf("%-36s %18s  %s   (workload %s, seed %d, trace %v)\n", "metric", "value", "unit", workload, opt.seed, opt.trace)
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !opt.trace {
			rep.check(false, "end-to-end metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		out[d.name] = value{v, d.unit}
		fmt.Printf("%-36s %18s  %s\n", d.name, strconv.FormatFloat(v, 'g', 10, 64), d.unit)
	}
	for _, p := range rep.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// fingerprint describes the host a result was measured on; results are
// comparable only between equal fingerprints.
func fingerprint(dir string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	b, _ := json.Marshal(map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel,
		"workdir_fs": filesystemOf(dir),
	})
	return string(b)
}

// filesystemOf names the mount holding dir, as "<type> <source>", from
// the longest matching mount point in /proc/self/mounts.
func filesystemOf(dir string) string {
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, l := range strings.Split(string(b), "\n") {
		f := strings.Fields(l)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), f[2]+" "+f[0]
		}
	}
	return fs
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// goStats reads the Go runtime's GC CPU time, cumulative allocation and GC
// cycle count.
type goStats struct{ gcCPU, allocBytes, cycles float64 }

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return math.NaN()
	}
	return goStats{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// setGoStats reports the runtime's work between two reads, per unit of
// the workload's repeated job.
func (r *report) setGoStats(before, after goStats, units float64) {
	n := max(units, 1)
	r.set("go.gc_cpu_s", (after.gcCPU-before.gcCPU)/n)
	r.set("go.alloc_mb", (after.allocBytes-before.allocBytes)/n/(1<<20))
	r.set("go.gc_cycles", (after.cycles-before.cycles)/n)
}

// layerSums reports span totals: for each listed metric, the summed
// duration of spans with that name per iteration.
func (r *report) layerSums(tr *tracer, iters int, names map[string]string) {
	sum, _ := tr.sumByName()
	for metric, name := range names {
		r.set(metric, sum[name].Seconds()/float64(max(iters, 1)))
	}
}

// setups records the CPU and wall time of repeated set-ups. setup_s is
// the median CPU time of the thread that runs the set-up: it shows work
// moved into set-up, without the hypervisor's steal (which makes set-up
// wall time swing by half between runs on a shared host) and without the
// runtime's background threads returning the last heap to the system.
// The wall time is reported beside it.
type setups struct{ cpu, wall []float64 }

func (s *setups) time(fn func() error) error {
	runtime.GC() // time this set-up's work, not the garbage left before it
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPUTime(), time.Now()
	err := fn()
	s.cpu = append(s.cpu, (threadCPUTime() - c0).Seconds())
	s.wall = append(s.wall, time.Since(t0).Seconds())
	return err
}

func (r *report) setSetup(s setups) {
	r.set("setup_s", median(s.cpu))
	r.set("setup.wall_s", median(s.wall))
}

// threadCPUTime is the calling OS thread's CPU time so far, to the
// nanosecond (getrusage's per-thread figure only moves once a tick).
func threadCPUTime() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTime is the process's user+system CPU time so far. On a guest with
// steal-time accounting it excludes time the hypervisor gave to others.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
