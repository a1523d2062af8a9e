package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/fed"
	"repro/internal/gossip"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/sim"
)

// replayGoldenVersion tags the golden snapshot schema; bump it (and
// regenerate with UPDATE_GOLDEN=1) when the replay's shape changes.
const replayGoldenVersion = 1

const replayW, replayH = 24, 16

func replayPilotCfg() pilot.Config {
	c := pilot.DefaultConfig(pilot.Linear, replayW, replayH, 1)
	c.ConvFilters1 = 4
	c.ConvFilters2 = 8
	c.DenseUnits = 16
	return c
}

func replaySamples(t testing.TB, n int) []pilot.Sample {
	t.Helper()
	recs := make([]sim.Record, n)
	for i := 0; i < n; i++ {
		f, err := sim.NewFrame(replayW, replayH, 1)
		if err != nil {
			t.Fatal(err)
		}
		angle := math.Sin(float64(i) / 5)
		col := int((angle + 1) / 2 * float64(replayW-1))
		for y := 0; y < replayH; y++ {
			f.Set(col, y, 255)
		}
		recs[i] = sim.Record{
			Index: i, Frame: f,
			Steering: angle, Throttle: 0.5,
			Timestamp: time.Unix(1_700_000_000, 0).Add(time.Duration(i) * 50 * time.Millisecond),
		}
	}
	samples, err := pilot.SamplesFromRecords(replayPilotCfg(), recs)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// replayCase is one golden-pinned scenario replay: a small fleet run
// under a library scenario, exported as trace bytes plus a counter
// snapshot.
type replayCase struct {
	// label names the run in the golden header; golden is the file under
	// testdata.
	label, golden string
	scenario      string
	transitions   int
	// run executes the fleet on the replay's substrates, shards, and
	// held-out set.
	run func(t testing.TB, seed int64, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample)
}

var replayCases = []replayCase{
	{
		// The original replay: a fault-free-config star fleet under the
		// lossy-wan scenario.
		label: "lossy-wan", golden: "replay_lossy_wan_v1.golden",
		scenario: "lossy-wan.scn", transitions: 3,
		run: func(t testing.TB, seed int64, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) {
			cfg := fed.DefaultConfig()
			cfg.Workers = 3
			cfg.Rounds = 2
			cfg.BatchSize = 8
			cfg.Seed = seed
			cfg.RoundGap = 45 * time.Second
			runStar(t, cfg, deps, shards, val)
		},
	},
	{
		// The star residual path: top-k uploads with error feedback, and a
		// 2-of-3 quorum so a cut straggler's upload is reclaimed into its
		// residual.
		label: "lossy-wan star topk quorum 2", golden: "replay_lossy_wan_star_topk_v1.golden",
		scenario: "lossy-wan.scn", transitions: 3,
		run: func(t testing.TB, seed int64, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) {
			cfg := fed.DefaultConfig()
			cfg.Workers = 3
			cfg.Rounds = 3
			cfg.Quorum = 2
			cfg.BatchSize = 8
			cfg.Seed = seed
			cfg.Compress = "topk"
			cfg.TopKFrac = 0.2
			cfg.RoundGap = 45 * time.Second
			runStar(t, cfg, deps, shards, val)
		},
	},
	{
		// The gossip overlay under a cloud partition: the head goes
		// headless mid-run while top-k parcels keep moving peer to peer.
		label: "cloud-partition gossip topk", golden: "replay_cloud_partition_gossip_v1.golden",
		scenario: "cloud-partition.scn", transitions: 2,
		run: func(t testing.TB, seed int64, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) {
			cfg := gossip.DefaultConfig()
			cfg.Workers = 3
			cfg.Rounds = 4
			cfg.BatchSize = 8
			cfg.Seed = seed
			cfg.Compress = "topk"
			cfg.TopKFrac = 0.2
			cfg.RoundGap = 15 * time.Second
			genesis, err := pilot.New(replayPilotCfg())
			if err != nil {
				t.Fatal(err)
			}
			run, err := gossip.NewRun(cfg, deps, genesis, shards, val)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Execute(); err != nil {
				t.Fatal(err)
			}
		},
	},
}

func runStar(t testing.TB, cfg fed.Config, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) {
	t.Helper()
	global, err := pilot.New(replayPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	run, err := fed.NewRun(cfg, deps, global, shards, val)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(); err != nil {
		t.Fatal(err)
	}
}

// replay drives one case's fleet under its library scenario with a hub
// and an object store attached, and returns the exported trace bytes and
// the Prometheus counter snapshot.
func (c replayCase) replay(t testing.TB, seed int64) (trace, prom []byte, transitions int) {
	t.Helper()
	s, err := Load(filepath.Join("..", "..", "scenarios", c.scenario))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(s, seed, tableEpoch)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	rt.Start(o)

	deps := fed.Deps{
		Net:   netem.NewNet(seed),
		Hub:   edge.NewHub(),
		Store: objstore.New(),
		Obs:   o,
		Start: tableEpoch,
		Plan:  rt.Plan(),
	}
	rt.Attach(deps.Net)

	samples := replaySamples(t, 45)
	nVal := len(samples) / 5
	val := samples[len(samples)-nVal:]
	shards, err := fed.ShardSamples(samples[:len(samples)-nVal], 3)
	if err != nil {
		t.Fatal(err)
	}
	c.run(t, seed, deps, shards, val)
	// Play the clock out past the scenario horizon so every phase
	// transition fires regardless of how long the rounds took.
	rt.Clock().Advance(s.Horizon())
	transitions = rt.Finish()

	var tb, pb bytes.Buffer
	if err := o.Tracer.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.Metrics.WriteProm(&pb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), pb.Bytes(), transitions
}

// TestScenarioReplayGolden replays each case twice with the same seed:
// the two runs must export byte-identical JSONL traces and counter
// snapshots, and the snapshot must match the checked-in golden
// (regenerate with UPDATE_GOLDEN=1). The goldens pin star and gossip
// traces across commits, which same-build determinism checks cannot.
func TestScenarioReplayGolden(t *testing.T) {
	for _, c := range replayCases {
		t.Run(c.golden, func(t *testing.T) {
			trace1, prom1, n1 := c.replay(t, 7)
			trace2, prom2, n2 := c.replay(t, 7)

			if !bytes.Equal(trace1, trace2) {
				t.Fatal("same-seed scenario replays exported different traces")
			}
			if !bytes.Equal(prom1, prom2) {
				t.Fatal("same-seed scenario replays exported different counter snapshots")
			}
			if n1 != n2 || n1 != c.transitions {
				t.Fatalf("transitions = %d / %d, want %d", n1, n2, c.transitions)
			}

			var got bytes.Buffer
			fmt.Fprintf(&got, "scenario-replay golden v%d\n", replayGoldenVersion)
			fmt.Fprintf(&got, "scenario: %s seed 7\n", c.label)
			fmt.Fprintf(&got, "transitions: %d\n", n1)
			fmt.Fprintf(&got, "trace_sha256: %x\n", sha256.Sum256(trace1))
			fmt.Fprintf(&got, "trace_lines: %d\n", bytes.Count(trace1, []byte("\n")))
			fmt.Fprintf(&got, "-- counters --\n")
			got.Write(prom1)

			golden := filepath.Join("testdata", c.golden)
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
				g, w := got.String(), string(want)
				for i, line := range diffLines(g, w) {
					if i > 10 {
						t.Logf("... (more differences)")
						break
					}
					t.Logf("diff: %s", line)
				}
				t.Fatalf("replay snapshot diverged from %s (regenerate with UPDATE_GOLDEN=1 if intended)", golden)
			}
		})
	}
}

func diffLines(got, want string) []string {
	g := bytes.Split([]byte(got), []byte("\n"))
	w := bytes.Split([]byte(want), []byte("\n"))
	var out []string
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = string(g[i])
		}
		if i < len(w) {
			wl = string(w[i])
		}
		if gl != wl {
			out = append(out, fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl))
		}
	}
	return out
}
