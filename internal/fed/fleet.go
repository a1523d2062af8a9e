package fed

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
)

// This file is the fleet layer both dissemination topologies run on: the
// star parameter server in this package and the peer-to-peer overlay in
// internal/gossip. It owns the run environment (virtual clock, fault
// plan, re-clocked tracer), the provisioned workers, WAN billing under
// the retry policy, the parallel local-training phase, error-feedback
// residuals, and checkpoint writes. Phase order, aggregation, and parcel
// exchange stay in each topology's round. Every span, metric, device,
// and checkpoint name here derives from the topology's Prefix, so the
// two topologies keep their own names on shared code.

// Deps are the continuum substrates a run composes with. Net is required;
// the rest are optional (nil Hub skips device registration, nil Store
// skips checkpointing, nil Plan runs fault-free on a private clock). Link
// chaos is not in Plan: a scenario.Runtime attaches it to Net.
type Deps struct {
	Net   *netem.Net
	Hub   *edge.Hub
	Store *objstore.Store
	Plan  *faults.Plan
	Obs   obs.Observer
	// Start anchors the private clock when Plan is nil (Plan's own clock
	// is used otherwise). The zero value is a fixed 2023 instant.
	Start time.Time
	// AfterRound, when set, runs at the end of every round inside the
	// round's trace scope — the hook cmd/autolearn uses to hot-reload the
	// serving registry from the fresh checkpoint without fed importing
	// serve. A non-nil error aborts the run.
	AfterRound func(round int, sc obs.SpanContext) error
}

// FleetConfig is what a topology tells NewFleet about its fleet.
type FleetConfig struct {
	// Prefix names the topology ("fed" or "gossip"). Device names
	// (<prefix>-worker-<i>), the hub group (<prefix>-fleet), the
	// <prefix>_local_train and <prefix>_checkpoint spans and retry ops,
	// the <prefix>_checkpoints_total counter, and the <prefix>-round
	// checkpoint metadata key all derive from it.
	Prefix string
	// SpeedSalt is XORed into Seed to seed the worker-speed stream.
	SpeedSalt int64
	// Seed, LocalEpochs, BatchSize, and PerSampleCost are the topology
	// config's local-training schedule and cost model.
	Seed          int64
	LocalEpochs   int
	BatchSize     int
	PerSampleCost time.Duration
	// Container and Object name the checkpoint; empty Container disables
	// checkpointing.
	Container, Object string
}

// Fleet is one run's worker substrate.
type Fleet struct {
	Deps
	FleetConfig
	// Clock is the run's virtual clock: the fault plan's when one is
	// attached, otherwise a private clock at Deps.Start.
	Clock   *faults.Clock
	Workers []*Worker
}

// Worker is one edge participant: its shard, its trainable pilot and the
// base copy it diffs against, its fixed compute speed, its hub device,
// and its error-feedback residual.
type Worker struct {
	Idx   int
	Name  string
	Local *pilot.Pilot // trainable copy
	Base  *pilot.Pilot // the weights Local's delta is taken against

	deviceID  string
	shard     []pilot.Sample
	shardData pilot.DatasetCache // shard encoded for Local's config
	speed     float64            // compute speed factor; higher is faster
	residual  [][]float64        // error feedback for sparsified uploads
	// evicted marks a heartbeat eviction during the current star round. A
	// worker whose daemon went silent misses the round even if it
	// re-onboards before the uploads are collected — its connection was
	// lost mid-round.
	evicted bool
}

// NewFleet sets up the run environment and provisions one worker per
// shard: a seeded compute speed in [0.7, 1.3], local and base pilots of
// architecture arch, and — when a hub is present — a registered, flashed,
// and booted BYOD device. When the fault plan scripts silence windows,
// the first workers take the scripted device names so the plan's
// schedule lands on real fleet members.
func NewFleet(cfg FleetConfig, deps Deps, arch pilot.Config, shards [][]pilot.Sample) (*Fleet, error) {
	if deps.Net == nil {
		return nil, fmt.Errorf("%s: nil network", cfg.Prefix)
	}
	f := &Fleet{Deps: deps, FleetConfig: cfg}
	if deps.Plan != nil {
		f.Clock = deps.Plan.Clock
	} else {
		start := deps.Start
		if start.IsZero() {
			start = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)
		}
		f.Clock = faults.NewClock(start)
	}
	// The run lives entirely in virtual time, so its spans should too:
	// re-clock the tracer onto the run's clock and hand it to every
	// substrate a round's trace flows through. With deterministic span IDs
	// this is what makes two same-seed runs export byte-identical traces.
	if tr := deps.Obs.Tracer; tr != nil {
		tr.SetClock(f.Clock.Now)
		deps.Net.SetTracer(tr)
		if deps.Hub != nil {
			deps.Hub.SetTracer(tr)
		}
		if deps.Store != nil {
			deps.Store.SetTracer(tr)
		}
	}

	for i, s := range shards {
		if len(s) == 0 {
			return nil, fmt.Errorf("%s: worker %d has an empty shard", cfg.Prefix, i)
		}
	}
	var scripted []string
	if deps.Plan != nil {
		scripted = deps.Plan.ScriptDevices()
	}
	speedRNG := rand.New(rand.NewSource(cfg.Seed ^ cfg.SpeedSalt))
	for i, s := range shards {
		w := &Worker{
			Idx:   i,
			Name:  fmt.Sprintf("%s-worker-%d", cfg.Prefix, i),
			shard: s,
			speed: 0.7 + 0.6*speedRNG.Float64(),
		}
		if i < len(scripted) {
			w.Name = scripted[i]
		}
		var err error
		if w.Local, err = pilot.New(arch); err != nil {
			return nil, fmt.Errorf("%s: worker %d pilot: %w", cfg.Prefix, i, err)
		}
		if w.Base, err = pilot.New(arch); err != nil {
			return nil, fmt.Errorf("%s: worker %d base pilot: %w", cfg.Prefix, i, err)
		}
		if deps.Hub != nil {
			d, err := deps.Hub.RegisterDevice(w.Name, cfg.Prefix+"-fleet")
			if err != nil {
				return nil, err
			}
			if _, err := deps.Hub.FlashImage(d.ID); err != nil {
				return nil, err
			}
			if _, err := deps.Hub.Boot(d.ID); err != nil {
				return nil, err
			}
			w.deviceID = d.ID
		}
		f.Workers = append(f.Workers, w)
	}
	if f.Checkpointing() {
		if err := deps.Store.CreateContainer(cfg.Container); err != nil && !errors.Is(err, objstore.ErrExists) {
			return nil, err
		}
	}
	return f, nil
}

// Checkpointing reports whether the run writes checkpoints.
func (f *Fleet) Checkpointing() bool { return f.Store != nil && f.Container != "" }

// Transfer bills size bytes over link, under the fault plan's retry
// policy when one is attached. It returns the total virtual time the
// operation consumed, including backoff waits; the clock has already
// advanced by it. A retryable failure that exhausts the policy budget is
// reported as (elapsed, err) with faults.Retryable(err) true — the caller
// drops the worker or skips the exchange instead of stalling the round.
// The trace context rides along so each attempt (including the retries a
// fault plan injects) emits its own netem_transfer span under the
// caller's stage span.
func (f *Fleet) Transfer(sc obs.SpanContext, op string, size int64, link netem.Link) (time.Duration, error) {
	if f.Plan == nil {
		tr, err := f.Net.TransferCtx(sc, link, size)
		if err != nil {
			return 0, err
		}
		f.Clock.Advance(tr.Duration)
		return tr.Duration, nil
	}
	before := f.Clock.Now()
	err := f.Plan.Do(op, func(int) (time.Duration, error) {
		tr, err := f.Net.TransferCtx(sc, link, size)
		if err != nil {
			return 0, err
		}
		return tr.Duration, nil
	})
	return f.Clock.Now().Sub(before), err
}

// TrainLocal is the local-training phase: step runs for every trainer
// concurrently. Each worker's arithmetic is self-contained and seeded, so
// the schedule cannot change a bit of the result. Train spans are then
// opened sequentially in trainers order so span IDs and timestamps stay
// deterministic; each carries its worker's simulated cost. The fleet
// trains in parallel in simulated time, so the clock advances once, by
// the slowest worker's epochs, letting heartbeat windows and fault
// schedules progress through the round.
func (f *Fleet) TrainLocal(span *obs.Span, round int, trainers []*Worker, step func(*Worker) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(trainers))
	for i, w := range trainers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = step(w)
		}()
	}
	wg.Wait()
	var maxTrain time.Duration
	spans := make([]*obs.Span, len(trainers))
	for i, w := range trainers {
		if errs[i] != nil {
			return fmt.Errorf("%s: worker %d round %d: %w", f.Prefix, w.Idx, round, errs[i])
		}
		cost := f.trainCost(w)
		maxTrain = max(maxTrain, cost)
		spans[i] = span.Child(f.Prefix + "_local_train")
		spans[i].SetAttr("worker", w.Name)
		spans[i].SetAttr("samples", len(w.shard))
		spans[i].SetSimDuration("train", cost)
	}
	f.Clock.Advance(maxTrain)
	for _, tsp := range spans {
		tsp.End()
	}
	return nil
}

// Train runs w's local epochs on its shard, shuffled by a stream seeded
// per (round, worker) — the SGD step both topologies hand TrainLocal.
// The shard is encoded once per run, not once per round.
func (f *Fleet) Train(w *Worker, round int) error {
	data, err := w.shardData.Get(w.Local.Cfg, w.shard)
	if err != nil {
		return err
	}
	_, err = w.Local.TrainData(data, nn.TrainConfig{
		Epochs:    f.LocalEpochs,
		BatchSize: f.BatchSize,
		Seed:      f.Seed + int64(round)*1000 + int64(w.Idx)*7 + 13,
		ClipGrad:  5,
	})
	return err
}

// trainCost is the simulated edge compute time for one worker's local
// epochs (samples x epochs x per-sample cost, scaled by the worker's
// fixed speed factor).
func (f *Fleet) trainCost(w *Worker) time.Duration {
	work := float64(len(w.shard)*f.LocalEpochs) * float64(f.PerSampleCost)
	return time.Duration(work / w.speed)
}

// ResidualFor returns the worker's error-feedback accumulator for codecs
// that sparsify (allocated to match the delta's shape on first use), or
// nil for codecs that ship everything. An accumulator whose shape no
// longer matches the delta — a checkpoint hot-swap mid-run can resize the
// model under a live worker — is reset rather than returned: its entries
// were accumulated against parameters that no longer exist, and indexing
// it against the new shape would panic.
func (w *Worker) ResidualFor(c Codec, delta [][]float64) [][]float64 {
	if !c.Sparsifies() {
		return nil
	}
	if !ShapesMatch(w.residual, delta) {
		w.residual = make([][]float64, len(delta))
		for i, t := range delta {
			w.residual[i] = make([]float64, len(t))
		}
	}
	return w.residual
}

// Checkpoint writes model to the object store (under the retry policy
// when a fault plan injects transient store errors), where the serving
// registry's ETag poll picks it up. Each store attempt emits an
// objstore_put span under the round's <prefix>_checkpoint span. It does
// nothing when checkpointing is disabled.
func (f *Fleet) Checkpoint(parent *obs.Span, round int, model *pilot.Pilot) error {
	if !f.Checkpointing() {
		return nil
	}
	csp := parent.Child(f.Prefix + "_checkpoint")
	csp.SetAttr("round", round)
	err := f.writeCheckpoint(csp.Context(), round, model)
	csp.EndErr(err)
	if err != nil {
		return err
	}
	f.Obs.Metrics.Counter(f.Prefix + "_checkpoints_total").Inc()
	return nil
}

func (f *Fleet) writeCheckpoint(sc obs.SpanContext, round int, model *pilot.Pilot) error {
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return err
	}
	meta := map[string]string{f.Prefix + "-round": fmt.Sprint(round)}
	put := func() error {
		_, err := f.Store.PutTraced(sc, f.Container, f.Object, buf.Bytes(), meta)
		return err
	}
	if f.Plan == nil {
		return put()
	}
	return f.Plan.Do(f.Prefix+"_checkpoint", func(int) (time.Duration, error) {
		return 0, put()
	})
}
