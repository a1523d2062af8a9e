package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fixtureSpan is a span of a hand-built trace, timed in ms from t0.
type fixtureSpan struct {
	id, parent, name string
	start, dur       float64
}

// criticalPathOf renders a fixture trace and returns the lines of its
// critical-path section.
func criticalPathOf(t *testing.T, spans []fixtureSpan) []string {
	t.Helper()
	t0 := time.Unix(1_700_000_000, 0).UTC()
	recs := make([]TraceSpanRec, len(spans))
	for i, s := range spans {
		recs[i] = TraceSpanRec{V: TraceSchemaVersion, Trace: "t1", ID: s.id, Parent: s.parent,
			Name: s.name, DurMS: s.dur,
			Start: t0.Add(time.Duration(s.start * float64(time.Millisecond)))}
	}
	var out bytes.Buffer
	if err := WriteTraceReport(&out, recs); err != nil {
		t.Fatalf("report: %v\n%s", err, out.String())
	}
	_, section, ok := strings.Cut(out.String(), "critical path:\n")
	if !ok {
		t.Fatalf("no critical path in report:\n%s", out.String())
	}
	section, _, _ = strings.Cut(section, "\n\n")
	return strings.Split(section, "\n")
}

func TestCriticalPath(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []fixtureSpan
		want  []string
	}{{
		// Stages run one after another: every one is on the path, not
		// just the last to end.
		name: "sequential",
		spans: []fixtureSpan{
			{"s0", "", "pipeline", 0, 100},
			{"s1", "s0", "collect", 0, 25},
			{"s2", "s0", "train", 25, 60},
			{"s3", "s0", "evaluate", 85, 10},
		},
		want: []string{
			"  pipeline 100.000 ms (self 5.000 ms, child 95.000 ms)",
			"  · collect 25.000 ms (self 25.000 ms, child 0.000 ms)",
			"  · train 60.000 ms (self 60.000 ms, child 0.000 ms)",
			"  · evaluate 10.000 ms (self 10.000 ms, child 0.000 ms)",
		},
	}, {
		// upload overlaps the last child, aggregate, so the span before
		// aggregate on the path is the last one to end before it
		// started: broadcast.
		name: "overlapping",
		spans: []fixtureSpan{
			{"s0", "", "round", 0, 100},
			{"s1", "s0", "broadcast", 0, 50},
			{"s2", "s0", "upload", 10, 70},
			{"s3", "s0", "aggregate", 60, 40},
		},
		want: []string{
			"  round 100.000 ms (self 10.000 ms, child 90.000 ms)",
			"  · broadcast 50.000 ms (self 50.000 ms, child 0.000 ms)",
			"  · aggregate 40.000 ms (self 40.000 ms, child 0.000 ms)",
		},
	}, {
		// The path descends into every step, depth first.
		name: "nested",
		spans: []fixtureSpan{
			{"s0", "", "run", 0, 100},
			{"s1", "s0", "train", 0, 70},
			{"s2", "s1", "epoch", 0, 20},
			{"s3", "s1", "epoch", 20, 45},
			{"s4", "s0", "evaluate", 70, 30},
			{"s5", "s4", "drive", 75, 20},
		},
		want: []string{
			"  run 100.000 ms (self 0.000 ms, child 100.000 ms)",
			"  · train 70.000 ms (self 5.000 ms, child 65.000 ms)",
			"  · · epoch 20.000 ms (self 20.000 ms, child 0.000 ms)",
			"  · · epoch 45.000 ms (self 45.000 ms, child 0.000 ms)",
			"  · evaluate 30.000 ms (self 10.000 ms, child 20.000 ms)",
			"  · · drive 20.000 ms (self 20.000 ms, child 0.000 ms)",
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			got := criticalPathOf(t, tc.spans)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Fatalf("critical path:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}
