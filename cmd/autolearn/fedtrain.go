package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/edge"
	"repro/internal/fed"
	"repro/internal/gossip"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/track"
)

// cmdFedTrain drives the federated fleet: collect a tub's worth of
// driving, shard it across N simulated edge workers, and run FedAvg
// rounds over the emulated WAN, optionally under a fault profile and
// delta compression.
func cmdFedTrain(args []string) error {
	fs := flag.NewFlagSet("fed-train", flag.ExitOnError)
	workers := fs.Int("workers", 4, "edge workers in the fleet")
	rounds := fs.Int("rounds", 5, "FedAvg rounds")
	topology := fs.String("topology", "star", "dissemination topology: star (parameter server) or gossip (peer-to-peer overlay)")
	fanout := fs.Int("fanout", 3, "gossip partners each worker contacts per round (gossip topology)")
	peerK := fs.Int("peer-k", 4, "Kademlia k-bucket capacity for the gossip peer table")
	antiEntropy := fs.Int("anti-entropy", 3, "extra farthest-bucket exchange every N rounds, <0 disables (gossip topology)")
	peerLinkName := fs.String("peer-link", "wifi-local", "link profile for the gossip peer mesh")
	quorum := fs.Int("quorum", 0, "K-of-N quorum (0 = synchronous barrier; star topology)")
	compress := fs.String("compress", "none", "delta compression: "+strings.Join(fed.Profiles(), "|"))
	topKFrac := fs.Float64("topk", 0.2, "fraction of delta entries the topk profile keeps")
	profile := fs.String("faults", "", "fault profile: "+strings.Join(scenario.Profiles(), "|")+" (empty = fault-free)")
	scnFile := fs.String("scenario", "", "scenario file scripting faults and link shapes (exclusive with -faults)")
	model := fs.String("model", "linear", "pilot kind")
	trackName := fs.String("track", "default-oval", "track name")
	ticks := fs.Int("ticks", 800, "ticks of driving to collect at 20 Hz")
	epochs := fs.Int("epochs", 1, "local epochs per round")
	batch := fs.Int("batch", 32, "local batch size")
	seed := fs.Int64("seed", 1, "run seed (fleet speeds, faults, training)")
	roundGap := fs.Duration("round-gap", 15*time.Second, "idle virtual time between rounds (lets fault windows progress)")
	hier := fs.Bool("hierarchical", false, "route uploads through regional aggregators (one WAN partial per region)")
	regions := fs.Int("regions", 0, "regional aggregator count (0 = ceil(sqrt(workers)))")
	ingressSerial := fs.Bool("ingress-serial", false, "serialize uploads at each receiver (models fan-in occupancy)")
	of := addObsFlags(fs)
	fs.Parse(args)

	cam := sim.SmallCameraConfig()
	res, _, err := sessionOn(*trackName, cam, func(trk *track.Track, car *sim.Car) sim.Driver {
		return sim.NewHumanDriver(sim.NewPurePursuit(trk, car.Cfg), *seed, 20)
	}, *ticks)
	if err != nil {
		return err
	}
	pcfg := pilot.DefaultConfig(pilot.Kind(*model), cam.Width, cam.Height, cam.Channels)
	samples, err := pilot.SamplesFromRecords(pcfg, res.Records)
	if err != nil {
		return err
	}
	nVal := len(samples) / 5
	if nVal < 1 {
		return fmt.Errorf("fed-train: only %d samples collected; raise -ticks", len(samples))
	}
	val := samples[len(samples)-nVal:]
	shards, err := fed.ShardSamples(samples[:len(samples)-nVal], *workers)
	if err != nil {
		return err
	}
	fmt.Printf("== fleet: %d workers, %d samples each (~), %d held out\n",
		*workers, (len(samples)-nVal) / *workers, nVal)

	cfg := fed.DefaultConfig()
	cfg.Workers = *workers
	cfg.Rounds = *rounds
	cfg.Quorum = *quorum
	cfg.LocalEpochs = *epochs
	cfg.BatchSize = *batch
	cfg.Seed = *seed
	cfg.Compress = *compress
	cfg.TopKFrac = *topKFrac
	cfg.RoundGap = *roundGap
	cfg.Hierarchical = *hier
	cfg.Regions = *regions
	cfg.IngressSerial = *ingressSerial

	o := of.observer()
	deps := fed.Deps{
		Net:   netem.NewNet(*seed),
		Hub:   edge.NewHub(),
		Store: objstore.New(),
		Obs:   o,
		Start: epoch,
	}
	rt, err := chaosRuntime("fed-train", *profile, *scnFile, *seed)
	if err != nil {
		return err
	}
	if rt != nil {
		rt.Start(o)
		rt.Attach(deps.Net)
		deps.Plan = rt.Plan()
		fmt.Printf("== %s\n", rt.Describe())
	}

	switch *topology {
	case "star":
	case "gossip":
		gcfg := gossip.DefaultConfig()
		gcfg.Workers = *workers
		gcfg.Rounds = *rounds
		gcfg.Fanout = *fanout
		gcfg.BucketSize = *peerK
		gcfg.AntiEntropyEvery = *antiEntropy
		gcfg.LocalEpochs = *epochs
		gcfg.BatchSize = *batch
		gcfg.Seed = *seed
		gcfg.Compress = *compress
		gcfg.TopKFrac = *topKFrac
		gcfg.RoundGap = *roundGap
		link, ok := netem.ByName(*peerLinkName)
		if !ok {
			return fmt.Errorf("fed-train: unknown -peer-link %q", *peerLinkName)
		}
		gcfg.PeerLink = link
		if err := runGossipTrain(gcfg, deps, pcfg, shards, val); err != nil {
			return err
		}
		finishChaos(rt, *scnFile != "")
		return of.write(o)
	default:
		return fmt.Errorf("fed-train: unknown -topology %q (have star, gossip)", *topology)
	}

	// The serving side rides along in the same trace: after the first
	// round registers the global checkpoint, every later round's ETag poll
	// hot-swaps it, so the exported trace runs end to end from worker
	// train through WAN upload and aggregation into the serving reload.
	var reloads int
	if cfg.Container != "" {
		sreg, err := serve.NewRegistry(deps.Store, cfg.Container)
		if err != nil {
			return err
		}
		sreg.Instrument(o.Metrics)
		sreg.SetTracer(o.Tracer)
		deps.AfterRound = func(round int, sc obs.SpanContext) error {
			if round == 0 {
				return sreg.RegisterCtx(sc, "fed-global", cfg.Object)
			}
			n, err := sreg.PollOnceCtx(sc)
			reloads += n
			return err
		}
	}

	global, err := pilot.New(pcfg)
	if err != nil {
		return err
	}
	run, err := fed.NewRun(cfg, deps, global, shards, val)
	if err != nil {
		return err
	}
	policy := "synchronous barrier"
	if *quorum > 0 && *quorum < *workers {
		policy = fmt.Sprintf("%d-of-%d quorum", *quorum, *workers)
	}
	topo := "flat"
	if *hier {
		topo = fmt.Sprintf("hierarchical (%d regions)", cfg.EffectiveRegions())
	}
	fmt.Printf("== fed-train: %s, %s, compress=%s, %d params\n", policy, topo, *compress, global.ParamCount())

	out, err := run.Execute()
	if err != nil {
		return err
	}
	for _, rr := range out.Rounds {
		fmt.Printf("   round %d: %d aggregated, %d dropped, %d cut, wall %8v, %7.1f KB on wire, val loss %.4f\n",
			rr.Round+1, len(rr.Participants), len(rr.Dropped), len(rr.Cut),
			rr.Wall.Round(time.Millisecond), float64(rr.BytesOnWire())/1024, rr.ValLoss)
	}
	fmt.Printf("== final val loss %.4f, %.1f KB total on wire, mean round wall %v\n",
		out.FinalValLoss, float64(out.TotalBytes)/1024, out.MeanRoundWall.Round(time.Millisecond))
	if out.CheckpointContainer != "" {
		fmt.Printf("== global checkpoint at %s/%s (served as fed-global, %d hot reloads)\n",
			out.CheckpointContainer, out.CheckpointObject, reloads)
	}
	finishChaos(rt, *scnFile != "")
	return of.write(o)
}

// runGossipTrain is fed-train's peer-to-peer mode: same fleet, same
// data, same substrates, but dissemination runs over the gossip overlay
// instead of the parameter server. The serving registry still rides
// along — it registers the head's checkpoint as soon as the first
// cloud sync lands one (under a cloud partition that may be never, and
// the run carries on regardless).
func runGossipTrain(gcfg gossip.Config, deps gossip.Deps, pcfg pilot.Config,
	shards [][]pilot.Sample, val []pilot.Sample) error {
	var reloads int
	if gcfg.Container != "" && deps.Store != nil {
		sreg, err := serve.NewRegistry(deps.Store, gcfg.Container)
		if err != nil {
			return err
		}
		sreg.Instrument(deps.Obs.Metrics)
		sreg.SetTracer(deps.Obs.Tracer)
		registered := false
		deps.AfterRound = func(round int, sc obs.SpanContext) error {
			if !registered {
				// No checkpoint yet (the head may be partitioned away from
				// the mesh): keep training, try again next round.
				if _, _, err := deps.Store.Get(gcfg.Container, gcfg.Object); err != nil {
					return nil
				}
				registered = true
				return sreg.RegisterCtx(sc, "gossip-global", gcfg.Object)
			}
			n, err := sreg.PollOnceCtx(sc)
			reloads += n
			return err
		}
	}
	genesis, err := pilot.New(pcfg)
	if err != nil {
		return err
	}
	run, err := gossip.NewRun(gcfg, deps, genesis, shards, val)
	if err != nil {
		return err
	}
	fmt.Printf("== fed-train: gossip overlay, fanout %d, bucket k=%d, anti-entropy every %d, compress=%s, %d params\n",
		run.Cfg.Fanout, run.Cfg.BucketSize, run.Cfg.AntiEntropyEvery, gcfg.Compress, genesis.ParamCount())
	out, err := run.Execute()
	if err != nil {
		return err
	}
	for _, rr := range out.Rounds {
		head := "synced"
		if !rr.HeadSynced {
			head = "headless"
		}
		fmt.Printf("   round %d: %d trained, %d offline, %d exchanges (%d parcels), lag %d, %s, wall %8v, %7.1f KB on wire, fleet loss %.4f\n",
			rr.Round+1, len(rr.Trained), len(rr.Offline), rr.Exchanges, rr.ParcelsMoved,
			rr.ConvergenceLag, head, rr.Wall.Round(time.Millisecond),
			float64(rr.BytesOnWire())/1024, rr.FleetValLoss)
	}
	fmt.Printf("== final fleet loss %.4f, head loss %.4f, %.1f KB total on wire, %d/%d head syncs\n",
		out.FinalFleetValLoss, out.FinalHeadValLoss, float64(out.TotalBytes)/1024,
		out.HeadSyncs, len(out.Rounds))
	if out.CheckpointContainer != "" {
		fmt.Printf("== head checkpoint at %s/%s (served as gossip-global, %d hot reloads)\n",
			out.CheckpointContainer, out.CheckpointObject, reloads)
	}
	return nil
}
