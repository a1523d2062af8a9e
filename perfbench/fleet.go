package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/edge"
	"repro/internal/fed"
	"repro/internal/gossip"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/track"
)

// The fleet workload is `autolearn fed-train`'s default fleet (800 ticks
// of human driving, the linear 64x48 pilot, 4 workers, one fifth held
// out) trained once over the star topology and once over the gossip
// overlay, on the same shards, both with top-k 0.2 delta compression.
// Every round's checkpoint is hot-reloaded into a serving registry
// through AfterRound, as the CLI does.
const (
	fleetTicks   = 800
	fleetWorkers = 4
	fleetRounds  = 5
	fleetTopK    = 0.2
	fleetGap     = 15 * time.Second
)

// cliEpoch is the virtual start instant cmd/autolearn uses.
var cliEpoch = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

// humanDrive renders a seeded human drive on default-oval with the small
// camera, the way the CLI collects data for fed-train.
func humanDrive(seed int64, ticks int) (sim.SessionResult, error) {
	trk, err := track.ByName("default-oval")
	if err != nil {
		return sim.SessionResult{}, err
	}
	cam, err := sim.NewCamera(sim.SmallCameraConfig(), trk)
	if err != nil {
		return sim.SessionResult{}, err
	}
	car, err := sim.NewCar(sim.DefaultCarConfig())
	if err != nil {
		return sim.SessionResult{}, err
	}
	cfg := sim.DefaultSessionConfig()
	cfg.MaxTicks = ticks
	ses, err := sim.NewSession(cfg, car, cam, sim.NewHumanDriver(sim.NewPurePursuit(trk, car.Cfg), seed, cfg.Hz))
	if err != nil {
		return sim.SessionResult{}, err
	}
	return ses.Run(cliEpoch), nil
}

type fleetSetup struct {
	pcfg   pilot.Config
	shards [][]pilot.Sample
	val    []pilot.Sample
}

func setupFleet(seed int64) (*fleetSetup, error) {
	res, err := humanDrive(seed, fleetTicks)
	if err != nil {
		return nil, err
	}
	cam := sim.SmallCameraConfig()
	pcfg := pilot.DefaultConfig(pilot.Linear, cam.Width, cam.Height, cam.Channels)
	samples, err := pilot.SamplesFromRecords(pcfg, res.Records)
	if err != nil {
		return nil, err
	}
	nVal := len(samples) / 5
	if nVal < 1 {
		return nil, fmt.Errorf("only %d samples", len(samples))
	}
	shards, err := fed.ShardSamples(samples[:len(samples)-nVal], fleetWorkers)
	if err != nil {
		return nil, err
	}
	return &fleetSetup{pcfg: pcfg, shards: shards, val: samples[len(samples)-nVal:]}, nil
}

// fleetOut holds one star+gossip pair's deterministic outputs.
type fleetOut struct {
	StarBytes, GossipBytes            int64
	StarNetBytes, GossipNetBytes      int64
	StarLoss, GossipFleet, GossipHead float64
	StarCkpt, GossipCkpt              int64
	Deltas, Parcels, Exchanges        int
	StarReloads, GossipReloads        int
}

// fleetTimes is what one pair measures on the wall clock.
type fleetTimes struct {
	star, gossip             time.Duration
	starRounds, gossipRounds []time.Duration // from AfterRound stamps
	reloads                  []time.Duration // PollOnce wall per reload
	virtualRound             []time.Duration // modeled, never a speed claim
}

// reloader returns an AfterRound hook that registers the run's checkpoint
// in a serving registry on its first appearance and hot-reloads it after
// every later round, stamping each round's end on the wall clock.
func reloader(store *objstore.Store, container, object, name string, stamps *[]time.Time,
	reloads *[]time.Duration, count *int) (func(int, obs.SpanContext) error, error) {
	reg, err := serve.NewRegistry(store, container)
	if err != nil {
		return nil, err
	}
	registered := false
	return func(int, obs.SpanContext) error {
		*stamps = append(*stamps, time.Now())
		if !registered {
			if _, err := store.Head(container, object); err != nil {
				return nil // no checkpoint yet (gossip head not synced)
			}
			registered = true
			return reg.Register(name, object)
		}
		t0 := time.Now()
		n, err := reg.PollOnce()
		*reloads = append(*reloads, time.Since(t0))
		*count += n
		return err
	}, nil
}

func roundWalls(start time.Time, stamps []time.Time) []time.Duration {
	out := make([]time.Duration, len(stamps))
	prev := start
	for i, s := range stamps {
		out[i], prev = s.Sub(prev), s
	}
	return out
}

// runFleet trains the star fleet and then the gossip fleet from fresh
// substrates and identical shards.
func runFleet(s *fleetSetup, seed int64, tr *tracer) (fleetOut, fleetTimes, error) {
	var out fleetOut
	var ft fleetTimes

	cfg := fed.DefaultConfig()
	cfg.Workers, cfg.Rounds, cfg.Seed = fleetWorkers, fleetRounds, seed
	cfg.Compress, cfg.TopKFrac, cfg.RoundGap = "topk", fleetTopK, fleetGap
	deps := fed.Deps{Net: netem.NewNet(seed), Hub: edge.NewHub(), Store: objstore.New(), Start: cliEpoch}
	var stamps []time.Time
	hook, err := reloader(deps.Store, cfg.Container, cfg.Object, "fed-global", &stamps, &ft.reloads, &out.StarReloads)
	if err != nil {
		return out, ft, err
	}
	deps.AfterRound = hook
	t0 := time.Now()
	var res fed.Result
	err = tr.do("fed.execute", func() error {
		global, err := pilot.New(s.pcfg)
		if err != nil {
			return err
		}
		run, err := fed.NewRun(cfg, deps, global, s.shards, s.val)
		if err != nil {
			return err
		}
		res, err = run.Execute()
		return err
	})
	if err != nil {
		return out, ft, fmt.Errorf("star: %w", err)
	}
	ft.star = time.Since(t0)
	ft.starRounds = roundWalls(t0, stamps)
	out.StarBytes, out.StarLoss = res.TotalBytes, res.FinalValLoss
	out.StarNetBytes, _, _ = deps.Net.Stats()
	for _, rr := range res.Rounds {
		out.Deltas += len(rr.Participants)
	}
	ft.virtualRound = append(ft.virtualRound, res.MeanRoundWall)
	info, err := deps.Store.Head(cfg.Container, cfg.Object)
	if err != nil {
		return out, ft, err
	}
	out.StarCkpt = info.Size

	gcfg := gossip.DefaultConfig()
	gcfg.Workers, gcfg.Rounds, gcfg.Seed = fleetWorkers, fleetRounds, seed
	gcfg.Fanout, gcfg.BucketSize = 3, 4
	gcfg.Compress, gcfg.TopKFrac, gcfg.RoundGap = "topk", fleetTopK, fleetGap
	gdeps := gossip.Deps{Net: netem.NewNet(seed), Hub: edge.NewHub(), Store: objstore.New(), Start: cliEpoch}
	stamps = nil
	hook, err = reloader(gdeps.Store, gcfg.Container, gcfg.Object, "gossip-global", &stamps, &ft.reloads, &out.GossipReloads)
	if err != nil {
		return out, ft, err
	}
	gdeps.AfterRound = hook
	t0 = time.Now()
	var gres gossip.Result
	err = tr.do("gossip.execute", func() error {
		genesis, err := pilot.New(s.pcfg)
		if err != nil {
			return err
		}
		run, err := gossip.NewRun(gcfg, gdeps, genesis, s.shards, s.val)
		if err != nil {
			return err
		}
		gres, err = run.Execute()
		return err
	})
	if err != nil {
		return out, ft, fmt.Errorf("gossip: %w", err)
	}
	ft.gossip = time.Since(t0)
	ft.gossipRounds = roundWalls(t0, stamps)
	out.GossipBytes, out.GossipFleet, out.GossipHead = gres.TotalBytes, gres.FinalFleetValLoss, gres.FinalHeadValLoss
	out.GossipNetBytes, _, _ = gdeps.Net.Stats()
	for _, rr := range gres.Rounds {
		out.Parcels += rr.ParcelsMoved
		out.Exchanges += rr.Exchanges
	}
	ft.virtualRound = append(ft.virtualRound, gres.MeanRoundWall)
	if info, err := gdeps.Store.Head(gcfg.Container, gcfg.Object); err == nil {
		out.GossipCkpt = info.Size
	}
	return out, ft, nil
}

func runFleetWorkload(opt options) (*report, error) {
	rep := newReport()
	var tr *tracer
	if opt.trace {
		tr = newTracer()
		rep.tr = tr
	}
	var su setups
	var s *fleetSetup
	// Set-up is cheap next to a pair, so it is repeated for a steady median.
	for i := 0; i < 9; i++ {
		if err := su.time(func() (err error) {
			s, err = setupFleet(opt.seed)
			return err
		}); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	var ref *fleetOut
	var pairs, cpus, tracedPairs, starRounds, gossipRounds, reloads, virtual []float64
	var starWalls, gossipWalls []float64
	before := readGoStats()
	if err := opt.startProfile(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(opt.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		runtime.GC() // every pair starts from the same collected heap
		traced := opt.trace && i%2 == 1
		var rtr *tracer
		if traced {
			rtr = tr
			tr.beginIter()
		}
		c0, t0 := cpuTime(), time.Now()
		out, ft, err := runFleet(s, opt.seed, rtr)
		wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
		rep.attempted += 2 * fleetRounds
		if err != nil {
			rep.failed += 2 * fleetRounds
			rep.check(false, "pair %d: %v", i, err)
			continue
		}
		if traced {
			tracedPairs = append(tracedPairs, wall)
		} else {
			pairs = append(pairs, wall)
			cpus = append(cpus, cpu)
		}
		starWalls = append(starWalls, ft.star.Seconds())
		gossipWalls = append(gossipWalls, ft.gossip.Seconds())
		for _, d := range ft.starRounds {
			starRounds = append(starRounds, d.Seconds())
		}
		for _, d := range ft.gossipRounds {
			gossipRounds = append(gossipRounds, d.Seconds())
		}
		reloads = append(reloads, secs(ft.reloads)...)
		virtual = append(virtual, scale(secs(ft.virtualRound), 1e3)...)
		rep.check(len(ft.starRounds) == fleetRounds && len(ft.gossipRounds) == fleetRounds,
			"pair %d: %d star and %d gossip rounds reported, want %d each", i, len(ft.starRounds), len(ft.gossipRounds), fleetRounds)
		if ref == nil {
			ref = &out
		}
		rep.check(out == *ref, "pair %d outputs %+v differ from pair 0's %+v", i, out, *ref)
	}
	if ref == nil {
		return nil, fmt.Errorf("no pair completed: %v", rep.problems)
	}
	fmt.Printf("fleet outputs: %+v\n", *ref)
	fmt.Printf("untraced pairs, wall s: %.3f\n", pairs)
	fmt.Printf("untraced pairs, cpu s:  %.3f\n", cpus)
	rep.check(ref.StarReloads == fleetRounds-1, "star fleet hot-reloaded %d times, want %d", ref.StarReloads, fleetRounds-1)
	rep.setSetup(su)
	rep.set("ok_ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	rep.set("bytes_on_wire", float64(ref.StarBytes+ref.GossipBytes))
	if !opt.trace {
		rep.set("cpu_s", median(cpus))
		return rep, nil
	}
	n := len(starWalls)
	rep.setGoStats(before, readGoStats(), float64(n))
	rep.set("fed.execute_s", median(starWalls))
	rep.set("gossip.execute_s", median(gossipWalls))
	rep.set("fed.round_s.p50", median(starRounds))
	rep.set("fed.round_s.p99", quantile(starRounds, 0.99))
	rep.set("gossip.round_s.p50", median(gossipRounds))
	rep.set("gossip.round_s.p99", quantile(gossipRounds, 0.99))
	rep.set("fed.deltas_applied", float64(ref.Deltas))
	rep.set("gossip.parcels", float64(ref.Parcels))
	rep.set("gossip.exchanges", float64(ref.Exchanges))
	rep.set("fed.val_loss", ref.StarLoss)
	rep.set("gossip.val_loss", ref.GossipFleet)
	rep.set("netem.star_bytes", float64(ref.StarNetBytes))
	rep.set("netem.gossip_bytes", float64(ref.GossipNetBytes))
	rep.set("objstore.checkpoint_bytes", float64(ref.StarCkpt))
	rep.set("netem.virtual_round_ms", median(virtual))
	rep.set("serve.reload_s", median(reloads))
	rep.set("serve.reloads", float64(ref.StarReloads+ref.GossipReloads))
	rep.set("trace.overhead_s", median(tracedPairs)-median(pairs))
	return rep, nil
}
