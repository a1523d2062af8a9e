package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// TraceSpanRec is one parsed line of a JSONL trace file (schema v1) — the
// read-side mirror of the record WriteJSONL emits.
type TraceSpanRec struct {
	V      int            `json:"v"`
	Trace  string         `json:"trace"`
	ID     string         `json:"id"`
	Parent string         `json:"parent"`
	Name   string         `json:"name"`
	Start  time.Time      `json:"-"`
	DurMS  float64        `json:"dur_ms"`
	Attrs  map[string]any `json:"attrs"`

	RawStart string `json:"start"`
}

// End returns the span's end instant (start + duration). The duration is
// rounded back to whole nanoseconds, the resolution it was recorded at,
// so a span that started where another ended compares as sequential.
func (rec *TraceSpanRec) End() time.Time {
	return rec.Start.Add(time.Duration(math.Round(rec.DurMS * float64(time.Millisecond))))
}

// SimSeconds sums the span's sim_*_s attributes — its total explicitly
// recorded virtual-time cost.
func (rec *TraceSpanRec) SimSeconds() float64 {
	var s float64
	for k, v := range rec.Attrs {
		if strings.HasPrefix(k, "sim_") && strings.HasSuffix(k, "_s") {
			if f, ok := v.(float64); ok {
				s += f
			}
		}
	}
	return s
}

// ReadTraceJSONL parses a JSONL trace stream into span records, rejecting
// records from a schema version this package does not understand and any
// span ID seen twice: the report keys its span tree by ID, so a repeated
// one could make a span its own ancestor.
func ReadTraceJSONL(r io.Reader) ([]TraceSpanRec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var recs []TraceSpanRec
	firstLine := map[string]int{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec TraceSpanRec
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("trace line %d: %v", line, err)
		}
		if rec.V != TraceSchemaVersion {
			return nil, fmt.Errorf("trace line %d: schema v%d, this tool reads v%d",
				line, rec.V, TraceSchemaVersion)
		}
		t, err := time.Parse(time.RFC3339Nano, rec.RawStart)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: bad start %q: %v", line, rec.RawStart, err)
		}
		rec.Start = t
		if first, dup := firstLine[rec.ID]; dup {
			return nil, fmt.Errorf("trace line %d: span id %q already used on line %d", line, rec.ID, first)
		}
		firstLine[rec.ID] = line
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// stageStat aggregates all spans sharing a name.
type stageStat struct {
	name   string
	count  int
	wallMS float64
	simS   float64
}

// WriteTraceReport renders a trace file as a CI-greppable text summary:
// a per-stage latency table, the span tree of the largest trace, its
// critical path, and an orphan count. It returns an error when any span
// references a parent absent from the file (a broken propagation link),
// so a CI step can fail on `obs report` alone.
func WriteTraceReport(w io.Writer, recs []TraceSpanRec) error {
	if len(recs) == 0 {
		fmt.Fprintln(w, "trace: empty (0 spans)")
		fmt.Fprintln(w, "orphans: 0")
		return nil
	}

	byID := make(map[string]*TraceSpanRec, len(recs))
	children := map[string][]*TraceSpanRec{}
	traceSize := map[string]int{}
	for i := range recs {
		byID[recs[i].ID] = &recs[i]
		traceSize[recs[i].Trace]++
	}
	var orphans []string
	var roots []*TraceSpanRec
	for i := range recs {
		rec := &recs[i]
		if rec.Parent == "" {
			roots = append(roots, rec)
			continue
		}
		if _, ok := byID[rec.Parent]; !ok {
			orphans = append(orphans, rec.ID)
			continue
		}
		children[rec.Parent] = append(children[rec.Parent], rec)
	}
	for _, c := range children {
		sortRecs(c)
	}
	sortRecs(roots)

	// Per-stage summary over every span in the file.
	stages := map[string]*stageStat{}
	for i := range recs {
		rec := &recs[i]
		st := stages[rec.Name]
		if st == nil {
			st = &stageStat{name: rec.Name}
			stages[rec.Name] = st
		}
		st.count++
		st.wallMS += rec.DurMS
		st.simS += rec.SimSeconds()
	}
	ordered := make([]*stageStat, 0, len(stages))
	for _, st := range stages {
		ordered = append(ordered, st)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].name < ordered[j].name })

	nTraces := len(traceSize)
	fmt.Fprintf(w, "trace: %d spans, %d trace(s), %d root(s)\n\n", len(recs), nTraces, len(roots))
	fmt.Fprintf(w, "%-24s %6s %12s %12s %12s\n", "stage", "count", "total_ms", "mean_ms", "sim_s")
	for _, st := range ordered {
		fmt.Fprintf(w, "%-24s %6d %12.3f %12.3f %12.3f\n",
			st.name, st.count, st.wallMS, st.wallMS/float64(st.count), st.simS)
	}

	// Tree + critical path of the largest trace (most spans; ties by ID).
	bestTrace := ""
	for id, n := range traceSize {
		if bestTrace == "" || n > traceSize[bestTrace] ||
			(n == traceSize[bestTrace] && id < bestTrace) {
			bestTrace = id
		}
	}
	var bestRoots []*TraceSpanRec
	for _, r := range roots {
		if r.Trace == bestTrace {
			bestRoots = append(bestRoots, r)
		}
	}
	fmt.Fprintf(w, "\nlargest trace %s (%d spans):\n", bestTrace, traceSize[bestTrace])
	for _, r := range bestRoots {
		writeTree(w, r, children, 0)
	}

	if len(bestRoots) > 0 {
		fmt.Fprintf(w, "\ncritical path:\n")
		writeCriticalPath(w, bestRoots[0], children, 0)
	}

	fmt.Fprintf(w, "\norphans: %d\n", len(orphans))
	if len(orphans) > 0 {
		sort.Strings(orphans)
		return fmt.Errorf("trace has %d orphan span(s) with missing parents: %s",
			len(orphans), strings.Join(orphans, ", "))
	}
	return nil
}

// writeCriticalPath prints the critical path under rec, one step per
// line, depth first. The steps under a span are the children it waited
// on, found by walking back from its end: the child that ends last, then
// the last to end at or before that one started, and so on. Each step
// shows its self time, the part of its duration no step under it
// covers, and its child time, the sum of those steps' durations.
func writeCriticalPath(w io.Writer, rec *TraceSpanRec, children map[string][]*TraceSpanRec, depth int) {
	var path []*TraceSpanRec
	for {
		var next *TraceSpanRec
		for _, c := range children[rec.ID] {
			if len(path) > 0 {
				// Strictly earlier starts guarantee progress past
				// zero-length spans.
				if bound := path[len(path)-1].Start; c.End().After(bound) || !c.Start.Before(bound) {
					continue
				}
			}
			if next == nil || c.End().After(next.End()) ||
				(c.End().Equal(next.End()) && c.ID < next.ID) {
				next = c
			}
		}
		if next == nil {
			break
		}
		path = append(path, next)
	}
	slices.Reverse(path)
	var childMS float64
	for _, c := range path {
		childMS += c.DurMS
	}
	fmt.Fprintf(w, "  %s%s %.3f ms (self %.3f ms, child %.3f ms", strings.Repeat("· ", depth),
		rec.Name, rec.DurMS, max(rec.DurMS-childMS, 0), childMS)
	if s := rec.SimSeconds(); s > 0 {
		fmt.Fprintf(w, ", sim %.3f s", s)
	}
	fmt.Fprintln(w, ")")
	for _, c := range path {
		writeCriticalPath(w, c, children, depth+1)
	}
}

func sortRecs(recs []*TraceSpanRec) {
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].Start.Equal(recs[j].Start) {
			return recs[i].Start.Before(recs[j].Start)
		}
		return recs[i].ID < recs[j].ID
	})
}

func writeTree(w io.Writer, rec *TraceSpanRec, children map[string][]*TraceSpanRec, depth int) {
	fmt.Fprintf(w, "  %s%s %.3f ms", strings.Repeat("· ", depth), rec.Name, rec.DurMS)
	if s := rec.SimSeconds(); s > 0 {
		fmt.Fprintf(w, " (sim %.3f s)", s)
	}
	if e, ok := rec.Attrs["error"]; ok {
		fmt.Fprintf(w, " [error: %v]", e)
	}
	fmt.Fprintln(w)
	for _, c := range children[rec.ID] {
		writeTree(w, c, children, depth+1)
	}
}
