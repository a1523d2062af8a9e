package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/tub"
)

// The pipeline workload is `autolearn pipeline` with its defaults: the
// simulator path for 1000 ticks on default-oval, tubclean, the inferred
// pilot trained on an RTX6000 node (5 epochs, batch 32, 15% validation,
// clip 5), and a 600-tick evaluation at the edge placement. Seed 1 is the
// CLI's run (module seed 1, training seed 2).
const (
	pipeCollectTicks = 1000
	pipeEvalTicks    = 600
	pipeKind         = pilot.Inferred
	pipeGPU          = testbed.RTX6000
	pipeTubName      = "drive-1"
	pipeImage        = "CC-Ubuntu20.04-CUDA"
)

// pipeStart is the CLI's training start instant.
var pipeStart = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

func pipeTrainConfig(seed int64) nn.TrainConfig {
	return nn.TrainConfig{Epochs: 5, BatchSize: 32, ValFrac: 0.15, Seed: seed + 1, ClipGrad: 5}
}

// pipeOut holds the loop's deterministic outputs: any two runs with the
// same seed must agree on every field, traced or not.
type pipeOut struct {
	Collected, Flagged, Marked, Remaining int
	SamplesSeen                           int
	ModelBytes                            int64
	BestValLoss                           float64
	Laps, Crashes                         int
	WANBytes                              float64
}

// pipeSetup is what one loop needs before its first stage: an enrolled
// student on a fresh module, and a pipeline over a fresh work directory.
type pipeSetup struct {
	m       *core.Module
	student *testbed.Session
	p       *core.Pipeline
	net     *obs.Registry // counts the WAN bytes netem bills
	work    string
}

func setupPipeline(seed int64, root string) (*pipeSetup, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	m.Net.Instrument(reg)
	student, err := m.Enroll("cli-student", "local")
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(root, "pipeline-*")
	if err != nil {
		return nil, err
	}
	p, err := m.NewPipeline(student, work)
	if err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	return &pipeSetup{m: m, student: student, p: p, net: reg, work: work}, nil
}

func (s *pipeSetup) wanBytes() float64 {
	return s.net.Counter("netem_transfer_bytes_total", obs.L("link", netem.CampusWAN.Name)).Value()
}

// runPipeline is the untraced loop: the four public core.Pipeline stage
// calls, exactly as cmd/autolearn makes them.
func runPipeline(s *pipeSetup, seed int64) (pipeOut, error) {
	col, err := s.p.CollectData(core.Simulator, pipeTubName, pipeCollectTicks)
	if err != nil {
		return pipeOut{}, err
	}
	marked, remaining, err := s.p.CleanData(col.TubDir)
	if err != nil {
		return pipeOut{}, err
	}
	tr, err := s.p.Train(col.TubDir, pipeKind, pipeGPU, pipeTrainConfig(seed), pipeStart)
	if err != nil {
		return pipeOut{}, err
	}
	ev, err := s.p.Evaluate(tr.ModelObject, core.EdgePlacement, core.DefaultPlacementModel(s.m.Net), pipeEvalTicks)
	if err != nil {
		return pipeOut{}, err
	}
	return pipeOut{
		Collected: col.Records, Flagged: col.Bad, Marked: marked, Remaining: remaining,
		SamplesSeen: tr.History.SamplesSeen, ModelBytes: tr.ModelBytes, BestValLoss: tr.History.BestValLoss,
		Laps: ev.Report.Laps, Crashes: ev.Report.Crashes, WANBytes: s.wanBytes(),
	}, nil
}

// pipeLayers collects what the traced loop measures besides spans.
type pipeLayers struct {
	tubBytes  []float64
	epochs    []time.Duration
	frames    []time.Duration
	nnTrain   time.Duration
	nnSamples int
}

// runPipelineTraced is the same loop rebuilt from each layer's public
// functions, so every call into sim, tub, pilot, nn, eval, netem and
// objstore can be timed from outside. It mirrors core's private stage
// code step for step; the benchmark checks that it reproduces the
// untraced loop's outputs bit for bit.
func runPipelineTraced(s *pipeSetup, seed int64, tr *tracer, lay *pipeLayers) (pipeOut, error) {
	var out pipeOut
	m := s.m
	tr.begin("core.pipeline")
	defer tr.end()

	// collect: a human drive on the simulator, persisted into a tub.
	dir := filepath.Join(s.work, pipeTubName)
	err := tr.do("core.collect", func() error {
		car, err := m.NewCar()
		if err != nil {
			return err
		}
		cfg := sim.DefaultSessionConfig()
		cfg.MaxTicks = pipeCollectTicks
		drv := sim.NewHumanDriver(sim.NewPurePursuit(m.Track, car.Cfg), m.Cfg.Seed, cfg.Hz)
		ses, err := sim.NewSession(cfg, car, m.Camera(), drv)
		if err != nil {
			return err
		}
		var res sim.SessionResult
		tr.do("sim.drive", func() error {
			res = ses.Run(time.Unix(1_700_000_000, 0).Add(time.Duration(m.Cfg.Seed) * time.Hour))
			return nil
		})
		var t *tub.Tub
		if err := tr.do("tub.write", func() error {
			var err error
			if t, err = tub.Create(dir); err != nil {
				return err
			}
			w, err := tub.NewWriter(t)
			if err != nil {
				return err
			}
			if _, err := w.WriteSession(res); err != nil {
				return err
			}
			return w.Close()
		}); err != nil {
			return err
		}
		size, err := t.SizeBytes()
		if err != nil {
			return err
		}
		lay.tubBytes = append(lay.tubBytes, float64(size))
		out.Collected, err = t.Count()
		out.Flagged = res.BadCount
		return err
	})
	if err != nil {
		return out, err
	}

	err = tr.do("core.clean", func() error {
		return tr.do("tub.clean", func() error {
			t, err := tub.Open(dir)
			if err != nil {
				return err
			}
			if out.Marked, err = t.AutoClean(tub.DefaultCleanerConfig()); err != nil {
				return err
			}
			out.Remaining, err = t.Count()
			return err
		})
	})
	if err != nil {
		return out, err
	}

	var object string
	err = tr.do("core.train", func() error {
		lease, err := s.student.Reserve(testbed.NodeFilter{GPU: pipeGPU}, pipeStart, pipeStart.Add(4*time.Hour))
		if err != nil {
			return err
		}
		inst, err := s.student.Deploy(lease.ID, pipeImage, pipeStart)
		if err != nil {
			return err
		}
		t, err := tub.Open(dir)
		if err != nil {
			return err
		}
		size, err := t.SizeBytes()
		if err != nil {
			return err
		}
		if err := tr.do("netem.transfer", func() error {
			_, err := m.Net.Transfer(netem.CampusWAN, size)
			return err
		}); err != nil {
			return err
		}
		pcfg := m.DefaultPilotConfig(pipeKind)
		pl, err := pilot.New(pcfg)
		if err != nil {
			return err
		}
		var samples []pilot.Sample
		if err := tr.do("tub.read", func() error {
			samples, err = pilot.SamplesFromTub(pcfg, t)
			return err
		}); err != nil {
			return err
		}
		var data nn.Dataset
		if err := tr.do("pilot.dataset", func() error {
			data, err = pcfg.BuildDataset(samples)
			return err
		}); err != nil {
			return err
		}
		opt, err := nn.NewAdam(1e-3)
		if err != nil {
			return err
		}
		tcfg := pipeTrainConfig(seed)
		tcfg.EpochObserver = func(_ nn.EpochStats, d time.Duration) { lay.epochs = append(lay.epochs, d) }
		var hist nn.History
		if err := tr.do("nn.train", func() error {
			hist, err = nn.Train(timedModel{pl.Model(), tr}, data, timedLoss{inner: pl.Loss(), tr: tr}, timedOpt{opt, tr}, tcfg)
			return err
		}); err != nil {
			return err
		}
		lay.nnTrain += hist.WallTime
		lay.nnSamples += hist.SamplesSeen
		out.SamplesSeen, out.BestValLoss = hist.SamplesSeen, hist.BestValLoss
		epochs := len(hist.Epochs)
		if _, err := inst.TrainingTime(testbed.TrainingJob{Samples: len(samples), ParamCount: pl.ParamCount(),
			Epochs: epochs, BatchSize: tcfg.BatchSize}); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := tr.do("pilot.save", func() error { return pl.Save(&buf) }); err != nil {
			return err
		}
		object = fmt.Sprintf("%s-%s.ckpt", pipeKind, s.student.User().Name)
		out.ModelBytes = int64(buf.Len())
		return tr.do("objstore.put", func() error {
			_, err := m.Store.Put(core.ContainerModels, object, buf.Bytes(),
				map[string]string{"kind": string(pipeKind), "gpu": string(pipeGPU)})
			return err
		})
	})
	if err != nil {
		return out, err
	}

	err = tr.do("core.evaluate", func() error {
		var data []byte
		if err := tr.do("objstore.get", func() error {
			var err error
			data, _, err = m.Store.Get(core.ContainerModels, object)
			return err
		}); err != nil {
			return err
		}
		if err := tr.do("netem.transfer", func() error {
			_, err := m.Net.Transfer(netem.CampusWAN, int64(len(data)))
			return err
		}); err != nil {
			return err
		}
		var pl *pilot.Pilot
		if err := tr.do("pilot.load", func() error {
			var err error
			pl, err = pilot.Load(bytes.NewReader(data))
			return err
		}); err != nil {
			return err
		}
		lat, err := core.DefaultPlacementModel(m.Net).ControlLatency(core.EdgePlacement, pl.ParamCount())
		if err != nil {
			return err
		}
		ad, err := pilot.NewAutoDriver(pl)
		if err != nil {
			return err
		}
		const hz = 20.0
		delayed, err := core.NewDelayedDriver(&timedDriver{AutoDriver: ad, tr: tr, lay: lay}, core.DelayTicksFor(lat, hz))
		if err != nil {
			return err
		}
		car, err := m.NewCar()
		if err != nil {
			return err
		}
		ses, err := sim.NewSession(sim.SessionConfig{Hz: hz, MaxTicks: pipeEvalTicks, OffTrackMargin: 0.15, ResetOnCrash: true},
			car, m.Camera(), delayed)
		if err != nil {
			return err
		}
		var res sim.SessionResult
		tr.do("sim.eval_drive", func() error {
			res = ses.Run(time.Unix(1_700_001_000, 0))
			return nil
		})
		if err := ad.Err(); err != nil {
			return err
		}
		return tr.do("eval.score", func() error {
			rep, err := eval.Evaluate(res, m.Track, hz)
			out.Laps, out.Crashes = rep.Laps, rep.Crashes
			return err
		})
	})
	out.WANBytes = s.wanBytes()
	return out, err
}

// timedDriver times each pilot decision the evaluation drive asks for.
type timedDriver struct {
	*pilot.AutoDriver
	tr  *tracer
	lay *pipeLayers
}

func (d *timedDriver) DriveFrame(f *sim.Frame, st sim.CarState) (float64, float64) {
	t0 := time.Now()
	a, b := d.AutoDriver.DriveFrame(f, st)
	t1 := time.Now()
	d.tr.add("pilot.drive_frame", t0, t1)
	d.lay.frames = append(d.lay.frames, t1.Sub(t0))
	return a, b
}

// pipeCoverTolerance is how much of a core stage's wall time may be left
// to core's own glue code in a traced loop: the self times of the layer
// spans beneath each stage must add up to at least 1 - tolerance of it.
const pipeCoverTolerance = 0.05

func runPipelineWorkload(opt options) (*report, error) {
	rep := newReport()
	var tr *tracer
	lay := &pipeLayers{}
	if opt.trace {
		tr = newTracer()
		rep.tr = tr
	}
	var ref *pipeOut
	var su setups
	var walls, tracedWalls, cpus []float64
	before := readGoStats()
	if err := opt.startProfile(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(opt.seconds)
	// A traced run alternates untraced and traced loops, so the two can
	// be compared for overhead and for identical outputs.
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var s *pipeSetup
		if err := su.time(func() (err error) {
			s, err = setupPipeline(opt.seed, opt.root)
			return err
		}); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		traced := opt.trace && i%2 == 1
		var out pipeOut
		var err error
		c1 := cpuTime()
		t1 := time.Now()
		if traced {
			tr.beginIter()
			out, err = runPipelineTraced(s, opt.seed, tr, lay)
			tracedWalls = append(tracedWalls, time.Since(t1).Seconds())
		} else {
			out, err = runPipeline(s, opt.seed)
			walls = append(walls, time.Since(t1).Seconds())
			cpus = append(cpus, (cpuTime() - c1).Seconds())
		}
		if rerr := os.RemoveAll(s.work); rerr != nil && err == nil {
			err = rerr
		}
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.check(false, "loop %d: %v", i, err)
			continue
		}
		if ref == nil {
			ref = &out
		}
		rep.check(out == *ref, "loop %d (traced %v) outputs %+v differ from loop 0's %+v", i, traced, out, *ref)
	}
	if ref == nil {
		return nil, fmt.Errorf("no loop completed: %v", rep.problems)
	}
	fmt.Printf("pipeline outputs: %+v\n", *ref)
	fmt.Printf("untraced loops, wall s: %.3f\n", walls)
	fmt.Printf("untraced loops, cpu s:  %.3f\n", cpus)
	rep.setSetup(su)
	rep.set("core.loop_s", median(walls))
	rep.set("ok_ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	rep.set("bytes_on_wire", ref.WANBytes)
	rep.set("pipeline.val_loss", ref.BestValLoss)
	if !opt.trace {
		rep.set("cpu_s", median(cpus))
		return rep, nil
	}
	rep.setGoStats(before, readGoStats(), float64(rep.attempted))
	n := tr.iter
	rep.layerSums(tr, n, map[string]string{
		"core.collect_s": "core.collect", "core.clean_s": "core.clean",
		"core.train_s": "core.train", "core.evaluate_s": "core.evaluate",
		"sim.drive_s": "sim.drive", "tub.write_s": "tub.write", "tub.clean_s": "tub.clean", "tub.read_s": "tub.read",
		"nn.forward_train_s": "nn.forward_train", "nn.backward_s": "nn.backward", "nn.optimizer_s": "nn.optimizer",
		"nn.loss_s": "nn.loss", "nn.forward_eval_s": "nn.forward_eval",
		"pilot.dataset_s": "pilot.dataset", "pilot.save_s": "pilot.save", "pilot.load_s": "pilot.load",
		"eval.score_s": "eval.score", "objstore.put_s": "objstore.put", "objstore.get_s": "objstore.get",
		"netem.transfer_s": "netem.transfer",
	})
	self := tr.selfByName()
	_, count := tr.sumByName()
	rep.set("sim.eval_drive_s", self["sim.eval_drive"].Seconds()/float64(n))
	rep.set("nn.train_self_s", self["nn.train"].Seconds()/float64(n))
	rep.set("nn.batches", float64(count["nn.optimizer"])/float64(n))
	rep.set("nn.samples_per_s", float64(lay.nnSamples)/lay.nnTrain.Seconds())
	rep.set("nn.epoch_s", median(secs(lay.epochs)))
	rep.set("tub.write_bytes", median(lay.tubBytes))
	frames := scale(secs(lay.frames), 1e6)
	rep.set("pilot.drive_frame_us.p50", median(frames))
	rep.set("pilot.drive_frame_us.p99", quantile(frames, 0.99))
	rep.set("pilot.drive_frame_us.count", float64(len(frames))/float64(n))
	rep.set("trace.overhead_s", median(tracedWalls)-median(walls))
	for _, stage := range []string{"core.collect", "core.clean", "core.train", "core.evaluate"} {
		wall, covered := tr.under(stage)
		share := covered.Seconds() / wall.Seconds()
		fmt.Printf("%s: layers below account for %.2f%% of %.4fs\n", stage, 100*share, wall.Seconds()/float64(n))
		rep.check(share >= 1-pipeCoverTolerance && covered <= wall,
			"%s: layer self times cover %.2f%% of the stage wall, outside the %.0f%% tolerance",
			stage, 100*share, 100*pipeCoverTolerance)
	}
	return rep, nil
}
