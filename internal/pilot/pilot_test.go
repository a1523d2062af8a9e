package pilot

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/track"
	"repro/internal/tub"
)

const (
	testW = 24
	testH = 16
)

func testCfg(kind Kind) Config {
	c := DefaultConfig(kind, testW, testH, 1)
	c.ConvFilters1 = 4
	c.ConvFilters2 = 8
	c.DenseUnits = 16
	return c
}

// syntheticRecords produces frames whose single bright column encodes the
// steering label, so every architecture has signal to learn.
func syntheticRecords(t testing.TB, n int) []sim.Record {
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
	return recs
}

func TestAllKindsBuildAndInfer(t *testing.T) {
	recs := syntheticRecords(t, 12)
	for _, kind := range AllKinds() {
		cfg := testCfg(kind)
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p.ParamCount() == 0 {
			t.Errorf("%s: zero parameters", kind)
		}
		samples, err := SamplesFromRecords(cfg, recs)
		if err != nil {
			t.Fatalf("%s: samples: %v", kind, err)
		}
		angle, throttle, err := p.Infer(samples[0])
		if err != nil {
			t.Fatalf("%s: infer: %v", kind, err)
		}
		if angle < -1 || angle > 1 {
			t.Errorf("%s: angle %g out of range", kind, angle)
		}
		if throttle < -1 || throttle > 1 {
			t.Errorf("%s: throttle %g out of range", kind, throttle)
		}
	}
}

func TestAllKindsTrainLossDecreases(t *testing.T) {
	recs := syntheticRecords(t, 60)
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := testCfg(kind)
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			samples, err := SamplesFromRecords(cfg, recs)
			if err != nil {
				t.Fatal(err)
			}
			tc := nn.TrainConfig{Epochs: 4, BatchSize: 16, ValFrac: 0, Seed: 3}
			h, err := p.Train(samples, tc)
			if err != nil {
				t.Fatal(err)
			}
			first := h.Epochs[0].TrainLoss
			last := h.FinalTrainLoss()
			if !(last < first) {
				t.Errorf("%s: loss did not decrease: %g -> %g", kind, first, last)
			}
		})
	}
}

func TestInferredThrottleRule(t *testing.T) {
	cfg := testCfg(Inferred)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 3)
	samples, _ := SamplesFromRecords(cfg, recs)
	angle, throttle, err := p.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.MaxThrottle - (cfg.MaxThrottle-cfg.MinThrottle)*math.Sqrt(math.Abs(angle))
	if math.Abs(throttle-want) > 1e-12 {
		t.Errorf("throttle %g, want %g", throttle, want)
	}
	if throttle < cfg.MinThrottle-1e-9 || throttle > cfg.MaxThrottle+1e-9 {
		t.Errorf("throttle %g outside [%g,%g]", throttle, cfg.MinThrottle, cfg.MaxThrottle)
	}
}

func TestCategoricalOutputsAreBinCenters(t *testing.T) {
	cfg := testCfg(Categorical)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 3)
	samples, _ := SamplesFromRecords(cfg, recs)
	angle, throttle, err := p.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	// Angle must be one of the 15 bin centers.
	found := false
	for i := 0; i < cfg.AngleBins; i++ {
		if math.Abs(angle-nn.Unbin(i, -1, 1, cfg.AngleBins)) < 1e-12 {
			found = true
		}
	}
	if !found {
		t.Errorf("angle %g is not a bin center", angle)
	}
	if throttle < 0 || throttle > 1 {
		t.Errorf("throttle %g outside [0,1]", throttle)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testCfg(Linear)
	bad.Kind = "nope"
	if _, err := New(bad); err == nil {
		t.Error("unknown kind accepted")
	}
	bad = testCfg(RNN)
	bad.SeqLen = 1
	if _, err := New(bad); err == nil {
		t.Error("SeqLen 1 RNN accepted")
	}
	bad = testCfg(Linear)
	bad.Channels = 2
	if _, err := New(bad); err == nil {
		t.Error("2-channel accepted")
	}
	bad = testCfg(Linear)
	bad.Width = 4
	if _, err := New(bad); err == nil {
		t.Error("tiny image accepted")
	}
	bad = testCfg(Linear)
	bad.MaxThrottle = 0.1
	bad.MinThrottle = 0.5
	if _, err := New(bad); err == nil {
		t.Error("inverted throttle bounds accepted")
	}
}

func TestSamplesFromRecordsWindows(t *testing.T) {
	cfg := testCfg(RNN) // SeqLen 3
	recs := syntheticRecords(t, 10)
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("got %d samples, want 8", len(samples))
	}
	// Label comes from the last frame in the window.
	if samples[0].Angle != recs[2].Steering {
		t.Error("window label not from last record")
	}
	if len(samples[0].Frames) != 3 {
		t.Errorf("window has %d frames", len(samples[0].Frames))
	}
	if _, err := SamplesFromRecords(cfg, recs[:2]); err == nil {
		t.Error("too-short record list accepted")
	}
}

func TestMemorySamplesCarryHistory(t *testing.T) {
	cfg := testCfg(Memory)
	recs := syntheticRecords(t, 8)
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	// First sample should have zero-padded history.
	if len(samples[0].PrevCmds) != cfg.MemoryLen {
		t.Fatalf("history length %d", len(samples[0].PrevCmds))
	}
	if samples[0].PrevCmds[0][0] != 0 {
		t.Error("missing zero padding at start")
	}
	// A later sample's most recent history entry equals the previous record.
	s := samples[5] // corresponds to record index 5
	if s.PrevCmds[cfg.MemoryLen-1][0] != recs[4].Steering {
		t.Error("history does not track previous record")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := testCfg(Linear)
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 20)
	samples, _ := SamplesFromRecords(cfg, recs)
	if _, err := p1.Train(samples, nn.TrainConfig{Epochs: 2, BatchSize: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Cfg.Kind != Linear || p2.Cfg.Width != testW {
		t.Errorf("config lost: %+v", p2.Cfg)
	}
	a1, t1, err := p1.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	a2, t2, err := p2.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || t1 != t2 {
		t.Errorf("loaded pilot differs: (%g,%g) vs (%g,%g)", a1, t1, a2, t2)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Error("garbage accepted")
	}
}

// forgedCheckpoint saves a small real pilot's weights under the config
// JSON cfg, as an untrusted object in the store could.
func forgedCheckpoint(t testing.TB, cfg string) []byte {
	t.Helper()
	p, err := New(testCfg(Linear))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, p.Model().Params(), map[string]string{"config": cfg}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsOversizedConfig: a checkpoint's config sizes the model
// Load allocates, so one naming a huge architecture must be refused
// before anything is built rather than panic in makeslice.
func TestLoadRejectsOversizedConfig(t *testing.T) {
	const rest = forgedRest
	for _, cfg := range []string{
		`{"kind":"linear","width":1048576,"height":1048576,` + rest + `}`,
		`{"kind":"inferred","width":24,"height":16,` + rest + `,"dense_units":70368744177664}`,
		`{"kind":"categorical","width":24,"height":16,` + rest + `,"angle_bins":70368744177664}`,
		`{"kind":"memory","width":24,"height":16,` + rest + `,"memory_len":70368744177664}`,
		`{"kind":"3d","width":24,"height":16,` + rest + `,"seq_len":70368744177664}`,
		`{"kind":"rnn","width":24,"height":16,` + rest + `,"dense_units":9223372036854775807}`,
	} {
		if _, err := Load(bytes.NewReader(forgedCheckpoint(t, cfg))); err == nil ||
			!strings.Contains(err.Error(), "budget") {
			t.Errorf("config %s: got %v, want an over-budget error", cfg, err)
		}
	}
}

// forgedRest completes a forged config's JSON after its kind and size.
const forgedRest = `"channels":1,"angle_bins":15,"throttle_bins":20,"seq_len":3,"memory_len":3,` +
	`"conv_filters_1":8,"conv_filters_2":16,"dense_units":64,"max_throttle":0.55,"min_throttle":0.22`

// TestLoadRejectsForgedCheckpointCheaply: a checkpoint whose config
// names a model within the weight budget (a 15.5M-weight memory pilot,
// 124 MB of float64) but stores a small model's tensors must be refused
// for what it is, at about the cost of decoding it once, without
// building the model it names.
func TestLoadRejectsForgedCheckpointCheaply(t *testing.T) {
	cfgJSON := `{"kind":"memory","width":24,"height":16,` + forgedRest + `,"dense_units":3900}`
	cfg, err := unmarshalConfig(cfgJSON)
	if err != nil {
		t.Fatal(err)
	}
	if w := cfg.weights(); w < 15e6 || w > maxWeights {
		t.Fatalf("forged config names %g weights, want ~15.5M within the budget", w)
	}
	data := forgedCheckpoint(t, cfgJSON)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged checkpoint loaded")
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(data)); got > limit {
		t.Errorf("rejecting a %d-byte checkpoint allocated %d bytes, want < %d", len(data), got, limit)
	}
}

// TestLoadAcceptsRealCheckpoints: the nn golden checkpoint is not a
// pilot (no config) and must fail cleanly; a saved pilot of every kind
// loads back with its config and weights.
func TestLoadAcceptsRealCheckpoints(t *testing.T) {
	golden, err := os.ReadFile("../nn/testdata/checkpoint_v1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nn.ReadCheckpoint(bytes.NewReader(golden)); err != nil {
		t.Errorf("golden checkpoint: %v", err)
	}
	if _, err := Load(bytes.NewReader(golden)); err == nil || !strings.Contains(err.Error(), "no config") {
		t.Errorf("golden checkpoint as a pilot: got %v, want a missing-config error", err)
	}
	for _, kind := range AllKinds() {
		p, err := New(testCfg(kind))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		q, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if q.Cfg != p.Cfg {
			t.Errorf("%s: config %+v loaded as %+v", kind, p.Cfg, q.Cfg)
		}
		pp, qp := p.Model().Params(), q.Model().Params()
		for i := range pp {
			if !slices.Equal(pp[i].W.Data, qp[i].W.Data) {
				t.Errorf("%s: param %d differs after load", kind, i)
			}
		}
	}
}

// TestWeightBudgetAdmitsRepoModels: the budget is computed from the
// config alone, so it must count exactly what New builds, and every
// model the repo trains must fit under it.
func TestWeightBudgetAdmitsRepoModels(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, geo := range [][3]int{{24, 16, 1}, {32, 24, 1}, {64, 48, 1}, {160, 120, 3}} {
			for _, bn := range []bool{false, true} {
				cfg := DefaultConfig(kind, geo[0], geo[1], geo[2])
				cfg.BatchNorm = bn
				p, err := New(cfg)
				if err != nil {
					t.Fatalf("%s %v batchnorm=%v: %v", kind, geo, bn, err)
				}
				if got, want := cfg.weights(), float64(p.ParamCount()); got != want {
					t.Errorf("%s %v batchnorm=%v: weights() = %g, model has %g", kind, geo, bn, got, want)
				}
			}
		}
	}
	// E14's dense trunk, the largest model the benchmarks build.
	e14 := DefaultConfig(Linear, 128, 96, 1)
	e14.ConvFilters1, e14.ConvFilters2, e14.DenseUnits = 8, 16, 2048
	if err := e14.Validate(); err != nil {
		t.Errorf("E14 trunk: %v", err)
	}
}

// FuzzLoad holds Load to its contract on arbitrary bytes: an error or a
// pilot that saves and loads back to the same config, never a panic.
func FuzzLoad(f *testing.F) {
	p, err := New(testCfg(Memory))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	golden, err := os.ReadFile("../nn/testdata/checkpoint_v1.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(forgedCheckpoint(f, `{"kind":"linear","width":1048576,"height":1048576,"channels":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := p.Save(&out); err != nil {
			t.Fatalf("save loaded pilot: %v", err)
		}
		again, err := Load(&out)
		if err != nil {
			t.Fatalf("reload saved pilot: %v", err)
		}
		if again.Cfg != p.Cfg {
			t.Fatalf("config %+v reloaded as %+v", p.Cfg, again.Cfg)
		}
	})
}

func TestTubRoundTripToSamples(t *testing.T) {
	dir := t.TempDir()
	tb, err := tub.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tub.NewWriter(tb)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 10)
	for _, r := range recs {
		if _, err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(Linear)
	samples, err := SamplesFromTub(cfg, tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("got %d samples", len(samples))
	}
	if math.Abs(samples[3].Angle-recs[3].Steering) > 1e-9 {
		t.Error("labels lost in tub round trip")
	}
}

func TestAutoDriverMaintainsWindow(t *testing.T) {
	cfg := testCfg(RNN)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewAutoDriver(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 6)
	for _, r := range recs {
		angle, throttle := drv.DriveFrame(r.Frame, sim.CarState{})
		if angle < -1 || angle > 1 || throttle < -1 || throttle > 1 {
			t.Fatalf("out-of-range command (%g, %g)", angle, throttle)
		}
	}
	if drv.Err() != nil {
		t.Fatal(drv.Err())
	}
	drv.Reset()
	if drv.Err() != nil {
		t.Fatal("error after reset")
	}
}

func TestAutoDriverThrottleScale(t *testing.T) {
	cfg := testCfg(Inferred)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv, _ := NewAutoDriver(p)
	recs := syntheticRecords(t, 1)
	_, t1 := drv.DriveFrame(recs[0].Frame, sim.CarState{})
	drv2, _ := NewAutoDriver(p)
	drv2.ThrottleScale = 0.5
	drv2.Reset()
	_, t2 := drv2.DriveFrame(recs[0].Frame, sim.CarState{})
	if math.Abs(t2-t1/2) > 1e-9 {
		t.Errorf("throttle scale: %g vs %g", t1, t2)
	}
}

// TestLinearPilotDrivesOval is the package's end-to-end check: collect
// expert data on the oval, train the linear pilot briefly, and verify the
// autopilot makes meaningful forward progress without leaving the lane
// catastrophically more than the expert.
func TestLinearPilotDrivesOval(t *testing.T) {
	if testing.Short() {
		t.Skip("training loop")
	}
	trk, err := track.DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	camCfg := sim.CameraConfig{Width: testW, Height: testH, Channels: 1,
		HeightAboveGround: 0.12, Pitch: 18 * math.Pi / 180, HFOV: 2.1}
	cam, err := sim.NewCamera(camCfg, trk)
	if err != nil {
		t.Fatal(err)
	}
	car, err := sim.NewCar(sim.DefaultCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Collect expert demonstrations.
	ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 1500, OffTrackMargin: 0.1, ResetOnCrash: true},
		car, cam, sim.NewPurePursuit(trk, car.Cfg))
	if err != nil {
		t.Fatal(err)
	}
	res := ses.Run(time.Unix(1_700_000_000, 0))
	cfg := testCfg(Linear)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := SamplesFromRecords(cfg, res.Records)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Train(samples, nn.TrainConfig{Epochs: 8, BatchSize: 32, ValFrac: 0.1, Seed: 2, ClipGrad: 5})
	if err != nil {
		t.Fatal(err)
	}
	if h.BestValLoss > 0.2 {
		t.Logf("warning: val loss %g high", h.BestValLoss)
	}
	// Autonomous evaluation.
	drv, err := NewAutoDriver(p)
	if err != nil {
		t.Fatal(err)
	}
	evalSes, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 800, OffTrackMargin: 0.15, ResetOnCrash: true},
		car, cam, drv)
	if err != nil {
		t.Fatal(err)
	}
	evalRes := evalSes.Run(time.Unix(1_700_000_100, 0))
	if drv.Err() != nil {
		t.Fatal(drv.Err())
	}
	if evalRes.MeanSpeed < 0.1 {
		t.Errorf("autopilot barely moved: mean speed %g", evalRes.MeanSpeed)
	}
	t.Logf("autopilot: laps=%d crashes=%d meanSpeed=%.2f valLoss=%.4f",
		evalRes.Laps, evalRes.Crashes, evalRes.MeanSpeed, h.BestValLoss)
}

func TestBatchNormVariantTrainsAndRoundTrips(t *testing.T) {
	cfg := testCfg(Linear)
	cfg.BatchNorm = true
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 40)
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p1.Train(samples, nn.TrainConfig{Epochs: 3, BatchSize: 8, ValFrac: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !(h.FinalTrainLoss() < h.Epochs[0].TrainLoss) {
		t.Errorf("BN pilot did not learn: %g -> %g", h.Epochs[0].TrainLoss, h.FinalTrainLoss())
	}
	// Running stats must survive save/load (frozen params).
	var buf bytes.Buffer
	if err := p1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Cfg.BatchNorm {
		t.Error("BatchNorm flag lost")
	}
	a1, t1, err := p1.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	a2, t2, err := p2.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || t1 != t2 {
		t.Errorf("BN inference changed after reload: (%g,%g) vs (%g,%g)", a1, t1, a2, t2)
	}
}

func TestDistillShrinksAndLearnsTeacher(t *testing.T) {
	cfg := testCfg(Linear)
	cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseUnits = 8, 16, 32
	teacher, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 60)
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := teacher.Train(samples, nn.TrainConfig{Epochs: 4, BatchSize: 16, ValFrac: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	dc := DefaultDistillConfig()
	dc.Shrink = 4
	dc.Train = nn.TrainConfig{Epochs: 6, BatchSize: 16, ValFrac: 0, Seed: 2}
	student, hist, err := Distill(teacher, samples, dc)
	if err != nil {
		t.Fatal(err)
	}
	if student.ParamCount() >= teacher.ParamCount() {
		t.Errorf("student (%d params) not smaller than teacher (%d)",
			student.ParamCount(), teacher.ParamCount())
	}
	if len(hist.Epochs) == 0 {
		t.Fatal("no distillation epochs")
	}
	// Student approximates the teacher on held-in samples.
	var sumDiff float64
	for _, s := range samples[:20] {
		ta, _, err := teacher.Infer(s)
		if err != nil {
			t.Fatal(err)
		}
		sa, _, err := student.Infer(s)
		if err != nil {
			t.Fatal(err)
		}
		sumDiff += math.Abs(ta - sa)
	}
	if mean := sumDiff / 20; mean > 0.3 {
		t.Errorf("student deviates from teacher by %.3f mean angle", mean)
	}
}

func TestDistillValidation(t *testing.T) {
	if _, _, err := Distill(nil, nil, DefaultDistillConfig()); err == nil {
		t.Error("nil teacher accepted")
	}
	cfg := testCfg(Categorical)
	teacher, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 5)
	samples, _ := SamplesFromRecords(cfg, recs)
	if _, _, err := Distill(teacher, samples, DefaultDistillConfig()); err == nil {
		t.Error("categorical teacher accepted")
	}
	lin, _ := New(testCfg(Linear))
	if _, _, err := Distill(lin, nil, DefaultDistillConfig()); err == nil {
		t.Error("empty samples accepted")
	}
	bad := DefaultDistillConfig()
	bad.Shrink = 1
	if _, _, err := Distill(lin, samples, bad); err == nil {
		t.Error("shrink 1 accepted")
	}
}

func TestSaveLoadRoundTripAllKinds(t *testing.T) {
	recs := syntheticRecords(t, 12)
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := testCfg(kind)
			p1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			samples, err := SamplesFromRecords(cfg, recs)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := p1.Save(&buf); err != nil {
				t.Fatal(err)
			}
			p2, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if p2.Cfg.Kind != kind {
				t.Fatalf("kind lost: %s", p2.Cfg.Kind)
			}
			a1, t1, err := p1.Infer(samples[0])
			if err != nil {
				t.Fatal(err)
			}
			a2, t2, err := p2.Infer(samples[0])
			if err != nil {
				t.Fatal(err)
			}
			if a1 != a2 || t1 != t2 {
				t.Errorf("reloaded %s differs: (%g,%g) vs (%g,%g)", kind, a1, t1, a2, t2)
			}
		})
	}
}

func TestAugmentFlipMirrorsSteering(t *testing.T) {
	cfg := testCfg(Memory)
	recs := syntheticRecords(t, 8)
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	aug := AugmentFlip(samples)
	if len(aug) != 2*len(samples) {
		t.Fatalf("augmented %d from %d", len(aug), len(samples))
	}
	orig := aug[0]
	mirror := aug[len(samples)]
	if mirror.Angle != -orig.Angle {
		t.Errorf("angle %g vs mirrored %g", orig.Angle, mirror.Angle)
	}
	if mirror.Throttle != orig.Throttle {
		t.Error("throttle changed by flip")
	}
	if mirror.PrevCmds[0][0] != -orig.PrevCmds[0][0] {
		t.Error("history steering not negated")
	}
	// The mirrored frame is the horizontal flip of the original.
	f := orig.Frames[0]
	g := mirror.Frames[0]
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			if f.At(x, y)[0] != g.At(f.W-1-x, y)[0] {
				t.Fatalf("pixel (%d,%d) not mirrored", x, y)
			}
		}
	}
	// Augmented set still trains.
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(aug, nn.TrainConfig{Epochs: 1, BatchSize: 8, ValFrac: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestNativeResolutionTrains exercises the stack at DonkeyCar's native
// 160x120 RGB geometry — the configuration the paper actually ships — with
// a tiny sample budget so it stays CI-friendly.
func TestNativeResolutionTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("native-resolution training")
	}
	cfg := DefaultConfig(Linear, 160, 120, 3)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.ParamCount() < 100_000 {
		t.Errorf("native model suspiciously small: %d params", p.ParamCount())
	}
	recs := make([]sim.Record, 40)
	for i := range recs {
		f, err := sim.NewFrame(160, 120, 3)
		if err != nil {
			t.Fatal(err)
		}
		angle := math.Sin(float64(i) / 6)
		col := int((angle + 1) / 2 * 159)
		for y := 0; y < 120; y++ {
			f.Set(col, y, 235, 120, 20)
		}
		recs[i] = sim.Record{Frame: f, Steering: angle, Throttle: 0.5,
			Timestamp: time.Unix(1_700_000_000, 0).Add(time.Duration(i) * 50 * time.Millisecond)}
	}
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Train(samples, nn.TrainConfig{Epochs: 2, BatchSize: 8, ValFrac: 0, Seed: 1, ClipGrad: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !(h.FinalTrainLoss() < h.Epochs[0].TrainLoss) {
		t.Errorf("no learning at native resolution: %g -> %g",
			h.Epochs[0].TrainLoss, h.FinalTrainLoss())
	}
	if _, _, err := p.Infer(samples[0]); err != nil {
		t.Fatal(err)
	}
}
