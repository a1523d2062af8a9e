package core

import (
	"reflect"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// chaosSnapshot drives the whole Fig. 1 loop — collect, clean, train,
// evaluate, hybrid evaluate — under the combined "chaos" profile and
// returns the metrics snapshot of the module and its fault plan, the
// series `autolearn pipeline -faults -metrics` exports. Counters (not
// histograms) are the determinism contract: they depend only on the
// seeded schedules and operation counts, never on wall-clock timing.
func chaosSnapshot(t *testing.T, seed int64) obs.Snapshot {
	t.Helper()
	m := fastModule(t)
	reg := obs.NewRegistry()
	m.Instrument(obs.Observer{Metrics: reg})
	s, err := m.Enroll("student", "mu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.ProfileRuntime("chaos", seed, t0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(obs.Observer{Metrics: reg})
	rt.Attach(m.Net)
	plan := rt.Plan()
	if err := p.EnableFaults(plan); err != nil {
		t.Fatal(err)
	}

	col, err := p.CollectData(Simulator, "chaos-drive", 600)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CleanData(col.TubDir); err != nil {
		t.Fatal(err)
	}
	tr, err := p.Train(col.TubDir, pilot.Linear, testbed.V100, defaultPipelineTrainConfig(), plan.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.History.Epochs) == 0 {
		t.Fatal("no training happened under chaos")
	}
	if _, err := p.Evaluate(tr.ModelObject, EdgePlacement, DefaultPlacementModel(m.Net), 300); err != nil {
		t.Fatal(err)
	}
	dc := pilot.DefaultDistillConfig()
	dc.Shrink = 4
	dc.Train = nn.TrainConfig{Epochs: 3, BatchSize: 32, ValFrac: 0.1, Seed: 3}
	hv, err := p.EvaluateHybrid(tr.ModelObject, DefaultPlacementModel(m.Net), dc, 0.4, 300)
	if err != nil {
		t.Fatal(err)
	}
	if hv.Report.Records == 0 {
		t.Error("hybrid evaluation produced no records under chaos")
	}
	return reg.Snapshot()
}

// The acceptance test for the fault layer: the full pipeline completes
// under every fault class at once, every new series is nonzero, every
// label stays a small closed set, and two same-seed runs land on
// byte-identical counter snapshots.
func TestChaosPipelineCompletesAndIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models twice under chaos")
	}
	snap := chaosSnapshot(t, 42)
	a := snap.Counters
	for _, key := range []string{
		"faults_injected_total",
		"retry_attempts_total",
		"hybrid_fallbacks_total",
		`faults_injected_total{kind="heartbeat_gap"}`,
		`faults_injected_total{kind="preemption"}`,
		`faults_injected_total{kind="link_partition"}`,
	} {
		if a[key] <= 0 {
			t.Errorf("%s = %g, want > 0", key, a[key])
		}
	}
	for series, n := range snap.LabelCardinality() {
		if n >= obs.MaxLabelCardinality {
			t.Errorf("label %s has %d distinct values (limit %d)", series, n, obs.MaxLabelCardinality)
		}
	}
	b := chaosSnapshot(t, 42).Counters
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed chaos runs diverged:\n run 1: %v\n run 2: %v", a, b)
	}
}
