package gossip

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/faults"
	"repro/internal/fed"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const (
	testW = 24
	testH = 16
)

var testStart = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

func testPilotCfg() pilot.Config {
	c := pilot.DefaultConfig(pilot.Linear, testW, testH, 1)
	c.ConvFilters1 = 4
	c.ConvFilters2 = 8
	c.DenseUnits = 16
	return c
}

// gossipSamples produces frames whose single bright column encodes the
// steering label, matching fed's test corpus so star/gossip comparisons
// train on identical data.
func gossipSamples(t testing.TB, n int) []pilot.Sample {
	t.Helper()
	recs := make([]sim.Record, n)
	for i := 0; i < n; i++ {
		f, err := sim.NewFrame(testW, testH, 1)
		if err != nil {
			t.Fatal(err)
		}
		angle := math.Sin(float64(i) / 5)
		col := int((angle + 1) / 2 * float64(testW-1))
		for y := 0; y < testH; y++ {
			f.Set(col, y, 255)
		}
		recs[i] = sim.Record{
			Index: i, Frame: f,
			Steering: angle, Throttle: 0.5,
			Timestamp: time.Unix(1_700_000_000, 0).Add(time.Duration(i) * 50 * time.Millisecond),
		}
	}
	samples, err := pilot.SamplesFromRecords(testPilotCfg(), recs)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func testDeps(t testing.TB, profile string, seed int64) Deps {
	t.Helper()
	d := Deps{
		Net:   netem.NewNet(seed),
		Hub:   edge.NewHub(),
		Store: objstore.New(),
		Obs:   obs.NewObserver(),
		Start: testStart,
	}
	if profile != "" {
		plan, err := faults.NewPlan(profile, seed, testStart)
		if err != nil {
			t.Fatal(err)
		}
		plan.Instrument(d.Obs.Metrics)
		d.Plan = plan
	}
	return d
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.Workers = 3
	cfg.Rounds = 3
	cfg.BatchSize = 8
	return cfg
}

func splitShards(t testing.TB, samples []pilot.Sample, workers int) ([][]pilot.Sample, []pilot.Sample) {
	t.Helper()
	nVal := len(samples) / 5
	val := samples[len(samples)-nVal:]
	shards, err := fed.ShardSamples(samples[:len(samples)-nVal], workers)
	if err != nil {
		t.Fatal(err)
	}
	return shards, val
}

func newTestRun(t testing.TB, cfg Config, deps Deps, nSamples int) *Run {
	t.Helper()
	shards, val := splitShards(t, gossipSamples(t, nSamples), cfg.Workers)
	genesis, err := pilot.New(testPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(cfg, deps, genesis, shards, val)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGossipConvergesLikeStar is the acceptance gate: on a clean fabric
// with full fanout, the fleet-union model must land within 2% of the
// star parameter server's val loss on the same data, seeds, and rounds.
func TestGossipConvergesLikeStar(t *testing.T) {
	samples := gossipSamples(t, 45)

	fcfg := fed.DefaultConfig()
	fcfg.Workers = 3
	fcfg.Rounds = 3
	fcfg.BatchSize = 8
	fshards, fval := splitShards(t, samples, fcfg.Workers)
	fglobal, err := pilot.New(testPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	fdeps := fed.Deps{Net: netem.NewNet(1), Store: objstore.New(), Obs: obs.NewObserver(), Start: testStart}
	frun, err := fed.NewRun(fcfg, fdeps, fglobal, fshards, fval)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := frun.Execute()
	if err != nil {
		t.Fatal(err)
	}

	cfg := testCfg()
	r := newTestRun(t, cfg, testDeps(t, "", 1), 45)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("%d rounds, want %d", len(res.Rounds), cfg.Rounds)
	}
	if fres.FinalValLoss <= 0 || res.FinalFleetValLoss <= 0 {
		t.Fatalf("degenerate losses: star %v gossip %v", fres.FinalValLoss, res.FinalFleetValLoss)
	}
	rel := math.Abs(res.FinalFleetValLoss-fres.FinalValLoss) / fres.FinalValLoss
	if rel > 0.02 {
		t.Fatalf("gossip %.6f vs star %.6f: %.2f%% apart, want <= 2%%",
			res.FinalFleetValLoss, fres.FinalValLoss, 100*rel)
	}
	// Full fanout on a clean fabric disseminates everything every round.
	last := res.Rounds[len(res.Rounds)-1]
	if last.ConvergenceLag != 0 {
		t.Fatalf("clean-run convergence lag %d, want 0", last.ConvergenceLag)
	}
	if res.HeadSyncs != cfg.Rounds {
		t.Fatalf("%d head syncs, want %d", res.HeadSyncs, cfg.Rounds)
	}
	if last.HeadValLoss != last.FleetValLoss {
		t.Fatalf("synced head loss %v != fleet loss %v", last.HeadValLoss, last.FleetValLoss)
	}
}

// gossipTrace executes a faulted run and returns the exported bytes.
func gossipTrace(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := testCfg()
	deps := testDeps(t, "lossy-wan", seed)
	r := newTestRun(t, cfg, deps, 45)
	if _, err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := deps.Obs.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGossipTraceByteDeterministic(t *testing.T) {
	a, b := gossipTrace(t, 11), gossipTrace(t, 11)
	if len(a) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed gossip runs exported different trace bytes")
	}
	if c := gossipTrace(t, 12); bytes.Equal(a, c) {
		t.Fatal("different seeds exported identical traces (suspicious)")
	}
	recs, err := obs.ReadTraceJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"gossip-train": false, "gossip-round": false, "gossip_local_train": false,
		"gossip_exchange": false, "gossip_parcels": false, "gossip_validate": false,
		"netem_transfer": false,
	}
	for _, rec := range recs {
		if _, ok := want[rec.Name]; ok {
			want[rec.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %q span in trace", name)
		}
	}
}

// partitionRuntime loads the checked-in cloud-partition scenario.
func partitionRuntime(t *testing.T, seed int64) *scenario.Runtime {
	t.Helper()
	s, err := scenario.Load("../../scenarios/cloud-partition.scn")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.NewRuntime(s, seed, testStart)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestGossipSurvivesCloudPartition runs the scenario the star fleet
// cannot: the WAN partitions for good mid-run. Gossip must keep moving
// parcels and improving the fleet model with the head frozen; star must
// stall outright (zero participants, val loss bit-frozen).
func TestGossipSurvivesCloudPartition(t *testing.T) {
	cfg := testCfg()
	cfg.Rounds = 6
	cfg.RoundGap = 15 * time.Second
	deps := testDeps(t, "", 21)
	rt := partitionRuntime(t, 21)
	rt.Start(deps.Obs)
	deps.Plan = rt.Plan()
	rt.Attach(deps.Net)
	r := newTestRun(t, cfg, deps, 45)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.HeadSyncs == 0 {
		t.Fatal("no head sync succeeded before the partition")
	}
	if res.HeadSyncs >= cfg.Rounds {
		t.Fatalf("%d head syncs in %d rounds: the partition never bit", res.HeadSyncs, cfg.Rounds)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.HeadSynced {
		t.Fatal("final round synced the head through a partitioned WAN")
	}
	// The mesh keeps working: parcels still move, every reachable worker
	// stays caught up, and the fleet model keeps improving past the cut.
	if last.Exchanges == 0 || last.ParcelsMoved == 0 {
		t.Fatalf("final partitioned round moved nothing: %+v", last)
	}
	if last.ConvergenceLag != 0 {
		t.Fatalf("final convergence lag %d, want 0 (peer links are healthy)", last.ConvergenceLag)
	}
	var lastSynced int
	for i, rr := range res.Rounds {
		if rr.HeadSynced {
			lastSynced = i
		}
	}
	if res.FinalFleetValLoss >= res.Rounds[lastSynced].FleetValLoss {
		t.Fatalf("fleet loss did not improve after the partition: %.6f at cut, %.6f final",
			res.Rounds[lastSynced].FleetValLoss, res.FinalFleetValLoss)
	}
	// The head is frozen at its last synced state.
	if last.HeadValLoss != res.Rounds[lastSynced].HeadValLoss {
		t.Fatalf("head loss moved during the partition: %.6f -> %.6f",
			res.Rounds[lastSynced].HeadValLoss, last.HeadValLoss)
	}

	// Star under the same scenario: every upload funnels through the
	// partitioned WAN, so late rounds aggregate nobody and the global
	// model freezes bit-for-bit.
	fcfg := fed.DefaultConfig()
	fcfg.Workers = 3
	fcfg.Rounds = 6
	fcfg.BatchSize = 8
	fcfg.RoundGap = 15 * time.Second
	fdeps := fed.Deps{Net: netem.NewNet(21), Store: objstore.New(), Obs: obs.NewObserver(), Start: testStart}
	frt := partitionRuntime(t, 21)
	frt.Start(fdeps.Obs)
	fdeps.Plan = frt.Plan()
	frt.Attach(fdeps.Net)
	fshards, fval := splitShards(t, gossipSamples(t, 45), fcfg.Workers)
	fglobal, err := pilot.New(testPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	frun, err := fed.NewRun(fcfg, fdeps, fglobal, fshards, fval)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := frun.Execute()
	if err != nil {
		t.Fatal(err)
	}
	flast := fres.Rounds[len(fres.Rounds)-1]
	fprev := fres.Rounds[len(fres.Rounds)-2]
	if len(flast.Participants) != 0 {
		t.Fatalf("star aggregated %d workers through a partition", len(flast.Participants))
	}
	if flast.ValLoss != fprev.ValLoss {
		t.Fatalf("star val loss moved while stalled: %.6f -> %.6f", fprev.ValLoss, flast.ValLoss)
	}
	if res.FinalFleetValLoss >= fres.FinalValLoss {
		t.Fatalf("gossip (%.6f) did not beat the stalled star (%.6f) under partition",
			res.FinalFleetValLoss, fres.FinalValLoss)
	}
}

// TestGossipChurnRejoin silences one worker mid-run and checks the
// overlay's rejoin story: the silent rounds record it offline, and once
// the window passes the next round's anti-entropy pulls it back level
// with the fleet head version.
func TestGossipChurnRejoin(t *testing.T) {
	cfg := testCfg()
	cfg.Rounds = 5
	cfg.RoundGap = 15 * time.Second
	deps := testDeps(t, "", 5)
	plan := faults.NewScriptedPlan(5, testStart)
	// Rounds start roughly every 15s; this window swallows rounds 1-2.
	plan.AddSilenceWindow("rejoiner", faults.Window{
		Start: testStart.Add(10 * time.Second),
		End:   testStart.Add(40 * time.Second),
	})
	deps.Plan = plan
	r := newTestRun(t, cfg, deps, 45)
	// The scripted device name lands on worker 0.
	if r.workers[0].Name != "rejoiner" {
		t.Fatalf("scripted name not adopted: %q", r.workers[0].Name)
	}
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	var offlineRounds int
	for _, rr := range res.Rounds {
		if len(rr.Offline) > 0 {
			offlineRounds++
			for _, idx := range rr.Offline {
				if idx != 0 {
					t.Fatalf("round %d: worker %d offline, only 0 was scripted", rr.Round, idx)
				}
			}
		}
	}
	if offlineRounds == 0 {
		t.Fatal("the silence window never took the worker offline")
	}
	if offlineRounds >= cfg.Rounds {
		t.Fatal("worker never rejoined")
	}
	last := res.Rounds[len(res.Rounds)-1]
	if len(last.Offline) != 0 {
		t.Fatalf("final round still offline: %+v", last.Offline)
	}
	if last.ConvergenceLag != 0 {
		t.Fatalf("rejoiner still lagging %d rounds at the end", last.ConvergenceLag)
	}
	// The rejoiner holds the complete fleet history again.
	for round, keys := range r.produced {
		if !r.workers[0].store.HasAll(keys) {
			t.Fatalf("rejoiner missing parcels from round %d after rejoin", round)
		}
	}
}

// TestGossipFreeRiders checks that store-and-forward-only members ride
// the overlay without producing parcels or stalling convergence.
func TestGossipFreeRiders(t *testing.T) {
	cfg := testCfg()
	cfg.Workers = 4
	cfg.FreeRiders = 1
	deps := testDeps(t, "", 9)
	r := newTestRun(t, cfg, deps, 60)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res.Rounds {
		for _, idx := range rr.Trained {
			if idx == 0 {
				t.Fatalf("round %d: free rider trained", rr.Round)
			}
		}
		if len(rr.Trained) != cfg.Workers-1 {
			t.Fatalf("round %d: %d trainers, want %d", rr.Round, len(rr.Trained), cfg.Workers-1)
		}
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.ConvergenceLag != 0 {
		t.Fatalf("free-rider fleet ended with lag %d", last.ConvergenceLag)
	}
	// The free rider carries the full parcel history all the same.
	for round, keys := range r.produced {
		if !r.workers[0].store.HasAll(keys) {
			t.Fatalf("free rider missing round-%d parcels", round)
		}
	}
}

// TestRebuildOrderIndependent is the determinism keystone: two replicas
// holding the same parcel set rebuild to bit-identical weights no
// matter what order the parcels arrived in.
func TestRebuildOrderIndependent(t *testing.T) {
	cfg := testCfg()
	r := newTestRun(t, cfg, testDeps(t, "", 3), 45)

	// Manufacture a parcel history with adversarial float values.
	rng := rand.New(rand.NewSource(17))
	var parcels []*Parcel
	for round := 0; round < 4; round++ {
		for origin := 0; origin < 3; origin++ {
			vals := make([][]float64, len(r.initVals))
			for i, init := range r.initVals {
				tv := make([]float64, len(init))
				for j := range tv {
					tv[j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(30)-25)
				}
				vals[i] = tv
			}
			parcels = append(parcels, &Parcel{Origin: origin, Round: round, WireBytes: 8, Values: vals})
		}
	}
	for trial := 0; trial < 4; trial++ {
		a, b := NewStore(), NewStore()
		for _, i := range rng.Perm(len(parcels)) {
			a.Put(parcels[i])
		}
		for _, i := range rng.Perm(len(parcels)) {
			b.Put(parcels[i])
		}
		if err := r.rebuild(r.union, a); err != nil {
			t.Fatal(err)
		}
		fromA := snapshotWeights(r.union)
		if err := r.rebuild(r.union, b); err != nil {
			t.Fatal(err)
		}
		fromB := snapshotWeights(r.union)
		for i := range fromA {
			for j := range fromA[i] {
				if math.Float64bits(fromA[i][j]) != math.Float64bits(fromB[i][j]) {
					t.Fatalf("trial %d: rebuild diverged at param %d[%d]: %x vs %x",
						trial, i, j, math.Float64bits(fromA[i][j]), math.Float64bits(fromB[i][j]))
				}
			}
		}
	}
}

// TestGossipCheckpointLandsInStore verifies the head's model reaches
// objstore once synced, with the round recorded in metadata.
func TestGossipCheckpointLandsInStore(t *testing.T) {
	cfg := testCfg()
	deps := testDeps(t, "", 2)
	r := newTestRun(t, cfg, deps, 45)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointContainer == "" {
		t.Fatal("no checkpoint location reported")
	}
	data, info, err := deps.Store.Get(res.CheckpointContainer, res.CheckpointObject)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty checkpoint")
	}
	if info.Metadata["gossip-round"] == "" {
		t.Fatal("checkpoint missing gossip-round metadata")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Workers = 1 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.Fanout = -1 },
		func(c *Config) { c.BucketSize = -2 },
		func(c *Config) { c.FreeRiders = -1 },
		func(c *Config) { c.FreeRiders = 4 },
		func(c *Config) { c.LocalEpochs = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.RoundGap = -time.Second },
		func(c *Config) { c.TopKFrac = 1.5 },
		func(c *Config) { c.Compress = "zstd" },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestNewRunResolvesDefaults pins where zero-valued overlay knobs
// resolve: NewRun writes the effective fanout, bucket size, and
// anti-entropy cadence into Run.Cfg, so what fed-train prints is what
// runs. A negative cadence stays disabled, and the trace reports it as 0.
func TestNewRunResolvesDefaults(t *testing.T) {
	cfg := testCfg()
	cfg.Fanout, cfg.BucketSize, cfg.AntiEntropyEvery = 0, 0, 0
	r := newTestRun(t, cfg, testDeps(t, "", 1), 45)
	if got := [3]int{r.Cfg.Fanout, r.Cfg.BucketSize, r.Cfg.AntiEntropyEvery}; got != [3]int{3, 4, 3} {
		t.Fatalf("resolved fanout/bucket-k/anti-entropy = %v, want [3 4 3]", got)
	}

	cfg.Rounds = 1
	cfg.AntiEntropyEvery = -1
	deps := testDeps(t, "", 1)
	r = newTestRun(t, cfg, deps, 45)
	if r.Cfg.AntiEntropyEvery >= 0 {
		t.Fatalf("negative anti-entropy cadence resolved to %d, want it kept disabled", r.Cfg.AntiEntropyEvery)
	}
	if _, err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := deps.Obs.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Name == "gossip-train" {
			if got := rec.Attrs["anti_entropy_every"]; got != float64(0) {
				t.Fatalf("disabled anti-entropy traced as %v (%T), want 0", got, got)
			}
			return
		}
	}
	t.Fatal("no gossip-train span in trace")
}
