package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/faults"
	"repro/internal/fed"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/testbed"
)

// profileGolden pins what a named fault profile does to whole runs: per
// round virtual wall, wire bytes and validation loss, retry attempts by
// op, hybrid fallbacks, and the heartbeat, object-store and preemption
// injection counts. Link-fault injection kinds are deliberately left out:
// they name how netem refuses a down link, not what the run did.
const profileGolden = "profile_runs_v1.golden"

// profilePlan compiles the named profile into a runtime at tableEpoch,
// started with its counters routed into reg and attached to net, and
// returns the runtime's fault plan.
func profilePlan(t testing.TB, profile string, seed int64, net *netem.Net, reg *obs.Registry) *faults.Plan {
	t.Helper()
	rt, err := ProfileRuntime(profile, seed, tableEpoch)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(obs.Observer{Metrics: reg})
	rt.Attach(net)
	return rt.Plan()
}

// profileCounters renders the fault-plan counters the golden pins.
func profileCounters(plan *faults.Plan, reg *obs.Registry) []string {
	var out []string
	for k, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(k, "retry_attempts_total{") {
			out = append(out, fmt.Sprintf("%s %v", k, v))
		}
	}
	sort.Strings(out)
	sum := plan.Summary()
	out = append(out, fmt.Sprintf("hybrid_fallbacks %d", sum.Fallbacks))
	for _, kind := range []string{"heartbeat_gap", "objstore", "preemption"} {
		out = append(out, fmt.Sprintf("%s %d", kind, sum.Injected[kind]))
	}
	return out
}

// starProfileRun is a small star fleet under the named profile with a hub
// (heartbeat playback) and an object store (checkpoints).
func starProfileRun(t testing.TB, profile string) []string {
	t.Helper()
	const seed = 7
	net, reg := netem.NewNet(seed), obs.NewRegistry()
	plan := profilePlan(t, profile, seed, net, reg)
	deps := fed.Deps{Net: net, Hub: edge.NewHub(), Store: objstore.New(), Plan: plan, Start: tableEpoch}
	samples := replaySamples(t, 45)
	nVal := len(samples) / 5
	shards, err := fed.ShardSamples(samples[:len(samples)-nVal], 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fed.DefaultConfig()
	cfg.Workers = 3
	cfg.Rounds = 5
	cfg.BatchSize = 8
	cfg.Seed = seed
	cfg.RoundGap = 45 * time.Second
	global, err := pilot.New(replayPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	run, err := fed.NewRun(cfg, deps, global, shards, samples[len(samples)-nVal:])
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, rr := range res.Rounds {
		out = append(out, fmt.Sprintf("round %d: wall %v bytes %d val_loss %v",
			rr.Round+1, rr.Wall, rr.BytesOnWire(), rr.ValLoss))
	}
	return append(out, profileCounters(plan, reg)...)
}

// pipelineProfileRun is the Fig. 1 loop — collect, clean, train,
// evaluate, hybrid evaluate — on a small camera under the named profile.
func pipelineProfileRun(t testing.TB, profile string) []string {
	t.Helper()
	const seed = 42
	cfg := core.DefaultConfig()
	cfg.Camera.Width, cfg.Camera.Height = 24, 16
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	student, err := m.Enroll("student", "mu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(student, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	plan := profilePlan(t, profile, seed, m.Net, reg)
	if err := p.EnableFaults(plan); err != nil {
		t.Fatal(err)
	}
	col, err := p.CollectData(core.Simulator, "profile-drive", 600)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CleanData(col.TubDir); err != nil {
		t.Fatal(err)
	}
	trainCfg := nn.TrainConfig{Epochs: 5, BatchSize: 32, ValFrac: 0.15, Seed: 2, ClipGrad: 5, Patience: 3}
	tr, err := p.Train(col.TubDir, pilot.Linear, testbed.V100, trainCfg, plan.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Evaluate(tr.ModelObject, core.EdgePlacement, core.DefaultPlacementModel(m.Net), 300); err != nil {
		t.Fatal(err)
	}
	dc := pilot.DefaultDistillConfig()
	dc.Shrink = 4
	dc.Train = nn.TrainConfig{Epochs: 3, BatchSize: 32, ValFrac: 0.1, Seed: 3}
	if _, err := p.EvaluateHybrid(tr.ModelObject, core.DefaultPlacementModel(m.Net), dc, 0.4, 300); err != nil {
		t.Fatal(err)
	}
	sent, transfers, rpcs := m.Net.Stats()
	out := []string{
		fmt.Sprintf("virtual wall %v", plan.Clock.Now().Sub(tableEpoch)),
		fmt.Sprintf("rsync %v", tr.Transfer),
		fmt.Sprintf("bytes %d transfers %d rpcs %d", sent, transfers, rpcs),
		fmt.Sprintf("val_loss %v epochs %d", tr.History.BestValLoss, len(tr.History.Epochs)),
	}
	return append(out, profileCounters(plan, reg)...)
}

// TestProfileRunsGolden replays the star fleet under lossy-wan and chaos
// and the pipeline under chaos, and compares the pinned fields with the
// checked-in golden (regenerate with UPDATE_GOLDEN=1). It pins profile
// behaviour across commits, whatever carries the fault schedules.
func TestProfileRunsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline and two fleets under fault profiles")
	}
	rows := []struct {
		label string
		run   func(testing.TB) []string
	}{
		{"star lossy-wan seed 7", func(t testing.TB) []string { return starProfileRun(t, "lossy-wan") }},
		{"star chaos seed 7", func(t testing.TB) []string { return starProfileRun(t, "chaos") }},
		{"pipeline chaos seed 42", func(t testing.TB) []string { return pipelineProfileRun(t, "chaos") }},
	}
	var got bytes.Buffer
	got.WriteString("profile-run golden v1\n")
	for _, row := range rows {
		fmt.Fprintf(&got, "== %s\n", row.label)
		for _, line := range row.run(t) {
			got.WriteString(line + "\n")
		}
	}
	golden := filepath.Join("testdata", profileGolden)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, got.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		for i, line := range diffLines(got.String(), string(want)) {
			if i > 10 {
				t.Logf("... (more differences)")
				break
			}
			t.Logf("diff: %s", line)
		}
		t.Fatalf("profile runs diverged from %s (regenerate with UPDATE_GOLDEN=1 if intended)", golden)
	}
}
