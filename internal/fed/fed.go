// Package fed is the training half of the edge-to-cloud continuum: a
// cloud-side parameter server coordinating a fleet of edge workers, each
// training the same pilot architecture on a disjoint shard of tub data and
// exchanging weight deltas over the emulated WAN. Rounds follow FedAvg —
// broadcast the global weights, train locally, upload delta = local -
// global, aggregate shard-weighted — with a configurable staleness policy:
// a synchronous barrier over every live worker, or a K-of-N quorum that
// cuts stragglers once the K fastest uploads have landed.
//
// The subsystem composes with the existing layers instead of bypassing
// them: workers register as BYOD devices through edge.Hub and heartbeat on
// the fault plan's clock (a silence window long enough for the sweep to
// evict them drops them from the round instead of stalling the barrier);
// every broadcast and upload is billed through netem under the plan's
// retry policy (outage windows turn into real backoff-and-retry, and an
// exhausted budget drops the worker); the global checkpoint lands in
// objstore after every round where the serve Registry's ETag poller can
// hot-reload it; and everything emits fed_* spans, counters, and
// histograms through obs.
//
// Determinism is a hard requirement (the chaos tests diff whole runs):
// network billing and aggregation run in worker-index order on the plan's
// seeded RNGs, local training runs workers in parallel but each worker's
// arithmetic is self-contained and seeded, and aggregation accumulates in
// index order — so two same-seed runs produce bit-identical global
// weights and identical fed_* counters.
package fed

import (
	"fmt"
	"time"

	"repro/internal/edge"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/pilot"
)

// Config shapes one federated training run.
type Config struct {
	// Workers is the fleet size N (at least 1).
	Workers int
	// Rounds is how many FedAvg rounds to run.
	Rounds int
	// Quorum is the K of the K-of-N staleness policy: a round aggregates
	// the K fastest uploads and cuts the rest. 0 (or >= Workers) selects
	// the synchronous barrier over every live worker.
	Quorum int
	// LocalEpochs is how many epochs each worker trains per round.
	LocalEpochs int
	// BatchSize for local training.
	BatchSize int
	// Seed drives every random choice in the run: worker compute speeds,
	// local-training shuffles, and the per-run RNG streams.
	Seed int64
	// Compress names the delta compression profile: "none" (raw float64
	// both ways), "fp16" (float32 broadcast, dense float16 uploads), or
	// "topk" (float32 broadcast, top-k sparsified float16 uploads with
	// error feedback). See Profiles.
	Compress string
	// TopKFrac is the fraction of delta entries the "topk" profile keeps
	// per tensor (0 selects the default 0.1).
	TopKFrac float64
	// Link is the WAN between workers and the parameter server; the zero
	// value selects netem.CampusWAN (which is also the link the stock
	// fault profiles schedule outages on).
	Link netem.Link
	// RoundGap is idle virtual time appended after each round (a fleet
	// checking in on a schedule rather than back to back). It advances
	// fault windows between rounds; 0 runs rounds back to back.
	RoundGap time.Duration
	// Container and Object name where the global checkpoint is written
	// after every round. Empty Container disables checkpointing.
	Container string
	Object    string
	// PerSampleCost is the simulated edge compute cost per sample per
	// epoch (0 selects 2ms, Pi-class). Each worker also draws a fixed
	// speed factor in [0.7, 1.3] from the run seed, so fleets are
	// heterogeneous and quorum mode has honest stragglers to cut.
	PerSampleCost time.Duration
	// Hierarchical routes uploads through regional aggregators: workers
	// ship deltas to their region over RegionLink, each region pre-reduces
	// its members' contributions, and only one dense partial per region
	// crosses the WAN to the parameter server. Aggregation arithmetic is
	// identical to the flat mode (both run the same blocked reduction), so
	// for the same participant set the global weights are bit-identical —
	// the topology only changes transport and parallelism.
	Hierarchical bool
	// Regions is the regional-aggregator count for the blocked reduction
	// (and, under Hierarchical, the aggregator fan-in). 0 selects
	// ceil(sqrt(Workers)), the fan-in that minimizes per-round
	// coordination cost N/R + R; values above Workers clamp to Workers.
	Regions int
	// RegionLink is the edge-to-aggregator network under Hierarchical; the
	// zero value selects netem.FabricManaged (regional fabrics are not on
	// the fault profiles' scripted WAN).
	RegionLink netem.Link
	// IngressSerial models serialization occupancy at upload receivers:
	// a receiver handles one transfer at a time, so a worker's upload
	// completes at max(its arrival, receiver busy-until) + duration. Flat
	// mode has one cloud ingress queue (round wall grows ~linearly with
	// fleet size); Hierarchical gets one queue per regional aggregator
	// draining in parallel plus a cloud queue over the R partials (round
	// wall ~N/R + R, sub-linear at R≈sqrt(N)). Off by default so small
	// runs keep the historical parallel-ingress timing.
	IngressSerial bool
	// SyntheticLocal replaces real SGD with a deterministic, seeded
	// pseudo-delta applied to each worker's local weights — the full
	// coordination path (broadcast, encode, upload, aggregate) still runs
	// bit-for-bit, which is what the fleet-scale benchmarks need at 10k
	// workers where real training would dominate the measurement.
	SyntheticLocal bool
}

// DefaultConfig returns a small fleet with the synchronous barrier and no
// compression.
func DefaultConfig() Config {
	return Config{
		Workers:     4,
		Rounds:      5,
		LocalEpochs: 1,
		BatchSize:   32,
		Seed:        1,
		Compress:    "none",
		Link:        netem.CampusWAN,
		Container:   "autolearn-models",
		Object:      "fed/global.ckpt",
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Workers < 1:
		return fmt.Errorf("fed: need at least 1 worker")
	case c.Rounds < 1:
		return fmt.Errorf("fed: need at least 1 round")
	case c.Quorum < 0 || c.Quorum > c.Workers:
		return fmt.Errorf("fed: quorum %d out of range [0, %d]", c.Quorum, c.Workers)
	case c.LocalEpochs < 1:
		return fmt.Errorf("fed: need at least 1 local epoch")
	case c.BatchSize < 1:
		return fmt.Errorf("fed: batch size must be positive")
	case c.RoundGap < 0:
		return fmt.Errorf("fed: negative round gap")
	case c.TopKFrac < 0 || c.TopKFrac > 1:
		return fmt.Errorf("fed: top-k fraction must be in [0, 1]")
	case c.Regions < 0:
		return fmt.Errorf("fed: negative region count")
	}
	if _, err := NewCodec(c.Compress, c.TopKFrac); err != nil {
		return err
	}
	return nil
}

// sync reports whether the run uses the synchronous barrier.
func (c Config) sync() bool { return c.Quorum == 0 || c.Quorum >= c.Workers }

// Profiles lists the accepted -compress profile names.
func Profiles() []string { return []string{"none", "fp16", "topk"} }

// Run is one federated training run in progress.
type Run struct {
	Cfg    Config
	Global *pilot.Pilot
	*Fleet

	val      []pilot.Sample
	valData  pilot.DatasetCache
	codec    Codec
	playback *heartbeatPlayback
}

// NewRun assembles a run: the global pilot (the parameter server's copy),
// the provisioned fleet (see NewFleet), and heartbeat playback when both
// a hub and a fault plan are attached. shards must have Cfg.Workers
// entries; val is the held-out set the server scores the global model on
// after each round.
func NewRun(cfg Config, deps Deps, global *pilot.Pilot, shards [][]pilot.Sample, val []pilot.Sample) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if global == nil {
		return nil, fmt.Errorf("fed: nil global pilot")
	}
	if len(shards) != cfg.Workers {
		return nil, fmt.Errorf("fed: %d shards for %d workers", len(shards), cfg.Workers)
	}
	if cfg.Link == (netem.Link{}) {
		cfg.Link = netem.CampusWAN
	}
	if cfg.PerSampleCost == 0 {
		cfg.PerSampleCost = 2 * time.Millisecond
	}
	if cfg.TopKFrac == 0 {
		cfg.TopKFrac = 0.1
	}
	if cfg.RegionLink == (netem.Link{}) {
		cfg.RegionLink = netem.FabricManaged
	}
	cdc, err := NewCodec(cfg.Compress, cfg.TopKFrac)
	if err != nil {
		return nil, err
	}
	fl, err := NewFleet(FleetConfig{
		Prefix: "fed", SpeedSalt: 0xfed, Seed: cfg.Seed,
		LocalEpochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, PerSampleCost: cfg.PerSampleCost,
		Container: cfg.Container, Object: cfg.Object,
	}, deps, global.Cfg, shards)
	if err != nil {
		return nil, err
	}
	r := &Run{Cfg: cfg, Global: global, Fleet: fl, val: val, codec: cdc}
	if r.Hub != nil && r.Plan != nil {
		r.playback = newHeartbeatPlayback(r.Plan, r.Hub, r.Workers)
		r.playback.start(r.Clock)
	}
	r.instrument()
	return r, nil
}

// ShardSamples splits samples into n contiguous, disjoint shards — the
// non-IID flavor of federation where each device only ever saw its own
// stretch of driving. Every shard gets at least len/n samples; the first
// len%n shards take one extra.
func ShardSamples(samples []pilot.Sample, n int) ([][]pilot.Sample, error) {
	if n < 1 {
		return nil, fmt.Errorf("fed: need at least 1 shard")
	}
	if len(samples) < n {
		return nil, fmt.Errorf("fed: %d samples cannot fill %d shards", len(samples), n)
	}
	out := make([][]pilot.Sample, n)
	base, extra := len(samples)/n, len(samples)%n
	at := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < extra {
			sz++
		}
		out[i] = samples[at : at+sz]
		at += sz
	}
	return out, nil
}

// live reports whether the worker's device is currently connected (a run
// without a hub treats every worker as live).
func (r *Run) live(w *Worker) bool {
	if r.Hub == nil || w.deviceID == "" {
		return true
	}
	d, err := r.Hub.Device(w.deviceID)
	return err == nil && d.Status == edge.StatusConnected
}

// heartbeatPlayback drives the worker fleet's device daemons as virtual
// time passes: every HeartbeatEvery each worker checks in unless its
// scripted silence window is open, and every SweepEvery the control plane
// sweeps — which is what actually evicts a silent worker mid-round. A
// previously evicted device whose window has passed re-onboards through
// the flash-and-boot reconnect path, rejoining the next round.
//
// Playback rides the clock's discrete-event scheduler: one
// self-rescheduling timer fires at each due beat or sweep instant, so hub
// state changes land at their exact virtual times instead of being caught
// up after the fact. Beats at the same instant as a sweep fire first (the
// daemon's check-in races the reaper and wins).
type heartbeatPlayback struct {
	plan     *faults.Plan
	hub      *edge.Hub
	workers  []*Worker
	byDevice map[string]*Worker
	clock    *faults.Clock
	beat     time.Time
	sweep    time.Time
}

func newHeartbeatPlayback(plan *faults.Plan, hub *edge.Hub, workers []*Worker) *heartbeatPlayback {
	hp := &heartbeatPlayback{
		plan:     plan,
		hub:      hub,
		workers:  workers,
		byDevice: make(map[string]*Worker, len(workers)),
		beat:     plan.Clock.Now().Add(plan.HeartbeatEvery),
		sweep:    plan.Clock.Now().Add(plan.SweepEvery),
	}
	for _, w := range workers {
		if w.deviceID != "" {
			hp.byDevice[w.deviceID] = w
		}
	}
	return hp
}

// start hooks playback onto the clock's event loop.
func (hp *heartbeatPlayback) start(clock *faults.Clock) {
	hp.clock = clock
	clock.Schedule(hp.next(), hp.tick)
}

// next is the earliest pending instant; beats win ties (see type comment).
func (hp *heartbeatPlayback) next() time.Time {
	if hp.beat.After(hp.sweep) {
		return hp.sweep
	}
	return hp.beat
}

// tick replays every beat round and sweep due at now (normally exactly
// one — the clock parks at each due instant — but a timer scheduled in
// the past catches up the backlog in chronological order), then
// re-schedules itself for the next due instant.
func (hp *heartbeatPlayback) tick(now time.Time) {
	for !hp.beat.After(now) || !hp.sweep.After(now) {
		if !hp.beat.After(now) && !hp.beat.After(hp.sweep) {
			hp.beatRound(hp.beat)
			hp.beat = hp.beat.Add(hp.plan.HeartbeatEvery)
		} else {
			for _, id := range hp.hub.SweepHeartbeats(hp.sweep) {
				// Flag evicted workers so the round in progress knows they
				// lost their connection even if they re-onboard before the
				// uploads are collected.
				if w, ok := hp.byDevice[id]; ok {
					w.evicted = true
				}
			}
			hp.sweep = hp.sweep.Add(hp.plan.SweepEvery)
		}
	}
	hp.clock.Schedule(hp.next(), hp.tick)
}

// beatRound lets every worker device act at time t: a scripted-silent one
// skips its check-in (the injected fault), a healthy one heartbeats, and
// an evicted one whose silence has passed re-onboards first.
func (hp *heartbeatPlayback) beatRound(t time.Time) {
	for _, w := range hp.workers {
		if w.deviceID == "" {
			continue
		}
		if hp.plan.DeviceSilent(w.Name, t) {
			hp.plan.RecordInjection("heartbeat_gap")
			continue
		}
		d, err := hp.hub.Device(w.deviceID)
		if err != nil {
			continue
		}
		if d.Status == edge.StatusOffline {
			if _, err := hp.hub.FlashImage(w.deviceID); err != nil {
				continue
			}
			if _, err := hp.hub.Boot(w.deviceID); err != nil {
				continue
			}
		}
		_ = hp.hub.Heartbeat(w.deviceID, t)
	}
}
