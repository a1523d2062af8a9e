package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function of that layer's package. Names are
// "<layer>.<what>".
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an iteration's root
	Iter   int    `json:"iter"`   // workload iteration the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end of
// the run, so file I/O never lands inside a measured interval. A nil
// *tracer records nothing, which is how untraced runs call the same code.
// It is used from one goroutine at a time.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int // open span IDs, innermost last
	iter   int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// beginIter starts a new workload iteration: spans opened from here carry
// its ID.
func (t *tracer) beginIter() {
	if t != nil {
		t.iter++
	}
}

// begin opens a span nested under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter, Name: name,
		Start: int64(time.Since(t.origin))})
	t.stack = append(t.stack, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	t.begin(name)
	defer t.end()
	return fn()
}

// add records an already-timed leaf span under the innermost open span;
// used for calls timed by a wrapper that cannot hold the stack open.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Iter: t.iter, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children of one parent never overlap here
// (every traced call is sequential), so the cover is their summed length.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// sumByName totals span durations by name, and counts them.
func (t *tracer) sumByName() (map[string]time.Duration, map[string]int) {
	sum, n := map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		sum[s.Name] += s.dur()
		n[s.Name]++
	}
	return sum, n
}

// selfByName totals self time by span name.
func (t *tracer) selfByName() map[string]time.Duration {
	self := t.selfTimes()
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += self[i]
	}
	return out
}

// under reports, for every span named root, its wall time and the self
// time of everything beneath it (root's own self time excluded), so the
// caller can check that the layers below a stage account for its wall.
func (t *tracer) under(root string) (wall, covered time.Duration) {
	self := t.selfTimes()
	inside := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.Parent > 0 && (inside[s.Parent-1] || t.spans[s.Parent-1].Name == root) {
			inside[i] = true
			covered += self[i]
		}
		if s.Name == root {
			wall += s.dur()
		}
	}
	return wall, covered
}

// write dumps every span as JSON lines, one per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// describe prints the per-name totals, largest first, for the log.
func (t *tracer) describe() string {
	sum, n := t.sumByName()
	self := t.selfByName()
	names := make([]string, 0, len(sum))
	for k := range sum {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %12s %12s\n", "span", "count", "wall_s", "self_s")
	for _, k := range names {
		fmt.Fprintf(&b, "%-28s %8d %12.6f %12.6f\n", k, n[k], sum[k].Seconds(), self[k].Seconds())
	}
	return b.String()
}
