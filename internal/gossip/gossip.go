// Package gossip is the decentralized alternative to fed's star
// topology: no parameter server, no single aggregation point. Each edge
// worker trains on its shard, wraps the weight-scaled delta into a
// content-addressed parcel, and disseminates it by push-pull gossip — a
// seeded Kademlia-style peer table (XOR distance over FNV node IDs,
// k-buckets) picks each round's partners, the pair trades version-vector
// digests, and whichever parcels either side is missing cross the
// per-pair netem link as compressed payloads. Periodic anti-entropy
// exchanges with the farthest occupied bucket repair long-range drift,
// and a passive cloud head syncs over the WAN purely to checkpoint —
// when a scenario partitions the cloud link, the peer mesh keeps
// converging among reachable workers and the head simply falls behind
// until the partition heals (the exact failure that stalls the star
// fleet outright).
//
// Determinism is inherited from the parcel model rather than enforced
// per-operation: a worker's weights are a pure function of the parcel
// set it holds (rebuild from the shared init in canonical (round,
// origin) order), every parcel is encoded once at its origin through the
// fed codecs (fp16/top-k with error feedback), and all network billing
// runs sequentially in worker-index order on the fault plan's seeded
// RNGs — so two same-seed runs export byte-identical traces, and two
// workers that have heard the same news have bit-identical models no
// matter which route the news took.
package gossip

import (
	"fmt"
	"time"

	"repro/internal/fed"
	"repro/internal/netem"
	"repro/internal/pilot"
)

// HeadName is the passive cloud peer's device name — present in every
// worker's address book but never in the peer mesh (it is reached over
// the cloud link, and only for checkpoint sync).
const HeadName = "cloud-head"

// Config shapes one gossip training run.
type Config struct {
	// Workers is the fleet size N (at least 2 — gossip needs a peer).
	Workers int
	// Rounds is how many train-and-exchange rounds to run.
	Rounds int
	// Fanout is how many gossip partners each worker contacts per round
	// (0 selects 3, the classic epidemic fanout).
	Fanout int
	// BucketSize is the Kademlia k — peers per bucket (0 selects 4).
	BucketSize int
	// AntiEntropyEvery adds, every Nth round, one extra exchange per
	// worker with a member of its farthest occupied bucket — the
	// long-range repair pass. 0 selects 3; negative disables.
	AntiEntropyEvery int
	// FreeRiders marks the first F workers as non-training participants:
	// they gossip (store and forward parcels) but never produce one. The
	// overlay must carry them without stalling convergence.
	FreeRiders int
	// LocalEpochs is how many epochs each worker trains per round.
	LocalEpochs int
	// BatchSize for local training.
	BatchSize int
	// Seed drives every random choice: worker speeds, partner selection,
	// local-training shuffles, netem jitter.
	Seed int64
	// Compress names the parcel compression profile, sharing fed's
	// codecs: "none", "fp16", or "topk" (with per-origin error feedback).
	Compress string
	// TopKFrac is the fraction the "topk" profile keeps (0 = 0.1).
	TopKFrac float64
	// PeerLink is the base profile for the worker-to-worker mesh; every
	// pair gets a named copy (netem.Mesh). Zero selects netem.WiFiLocal.
	PeerLink netem.Link
	// CloudLink is the WAN to the passive head; zero selects
	// netem.CampusWAN — the link the stock scenarios partition.
	CloudLink netem.Link
	// RoundGap is idle virtual time appended after each round.
	RoundGap time.Duration
	// PerSampleCost is simulated edge compute per sample per epoch
	// (0 selects 2ms, matching fed).
	PerSampleCost time.Duration
	// Container and Object name where the head checkpoints its model
	// after a successful sync. Empty Container disables checkpointing.
	Container string
	Object    string
}

// DefaultConfig returns a small mesh with classic epidemic parameters.
func DefaultConfig() Config {
	return Config{
		Workers:          4,
		Rounds:           5,
		Fanout:           3,
		BucketSize:       4,
		AntiEntropyEvery: 3,
		LocalEpochs:      1,
		BatchSize:        32,
		Seed:             1,
		Compress:         "none",
		PeerLink:         netem.WiFiLocal,
		CloudLink:        netem.CampusWAN,
		Container:        "autolearn-models",
		Object:           "gossip/global.ckpt",
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Workers < 2:
		return fmt.Errorf("gossip: need at least 2 workers, got %d", c.Workers)
	case c.Rounds < 1:
		return fmt.Errorf("gossip: need at least 1 round")
	case c.Fanout < 0:
		return fmt.Errorf("gossip: negative fanout")
	case c.BucketSize < 0:
		return fmt.Errorf("gossip: negative bucket size")
	case c.FreeRiders < 0 || c.FreeRiders >= c.Workers:
		return fmt.Errorf("gossip: free riders %d out of range [0, %d)", c.FreeRiders, c.Workers)
	case c.LocalEpochs < 1:
		return fmt.Errorf("gossip: need at least 1 local epoch")
	case c.BatchSize < 1:
		return fmt.Errorf("gossip: batch size must be positive")
	case c.RoundGap < 0:
		return fmt.Errorf("gossip: negative round gap")
	case c.TopKFrac < 0 || c.TopKFrac > 1:
		return fmt.Errorf("gossip: top-k fraction must be in [0, 1]")
	}
	if _, err := fed.NewCodec(c.Compress, c.TopKFrac); err != nil {
		return fmt.Errorf("gossip: %w", err)
	}
	return nil
}

// Deps are the continuum substrates a run composes with — the same as
// the star's: Net is required, the rest optional.
type Deps = fed.Deps

// worker is one mesh participant: the shared fleet worker (shard, base
// model rebuilt from the parcel store, trainable copy diffed against the
// base, per-origin error feedback) plus its overlay state (peer table,
// parcel replica).
type worker struct {
	*fed.Worker
	table  *Table
	store  *Store
	weight float64 // shard fraction of the training total
	// caughtUp is the count of leading rounds whose produced parcels this
	// worker fully holds (monotone: stores are grow-only).
	caughtUp int
	// offline marks a scripted silence window covering this round.
	offline bool
	// freeRider marks a store-and-forward-only participant.
	freeRider bool
}

// headState is the passive cloud peer: a parcel replica plus the model
// it checkpoints from. It never trains and never initiates.
type headState struct {
	store *Store
	model *pilot.Pilot
	// dirty marks parcels landed since the last checkpoint rebuild.
	dirty bool
}

// Run is one gossip training run in progress.
type Run struct {
	Cfg Config
	*fed.Fleet

	workers []*worker
	head    *headState
	val     []pilot.Sample
	valData pilot.DatasetCache
	mesh    *netem.Mesh
	// initVals is the shared genesis weights every store rebuild starts
	// from (the image flashed at provisioning).
	initVals [][]float64
	// union is a scratch pilot rebuilt from the union store for
	// validation — the "fleet head version" a rejoining peer converges to.
	union *pilot.Pilot
	// produced[r] lists the parcel keys round r generated, for
	// convergence-lag accounting.
	produced [][]Key
	codec    fed.Codec
}

// NewRun assembles a run: the provisioned fleet (see fed.NewFleet), a
// seeded peer table per worker over the full member list, the per-pair
// link mesh, the shared genesis weights, and the passive cloud head.
// Zero-valued config fields resolve to their defaults in Run.Cfg, so it
// reports the values the run uses. shards must have Cfg.Workers entries;
// val is the held-out set scored after each round.
func NewRun(cfg Config, deps Deps, genesis *pilot.Pilot, shards [][]pilot.Sample, val []pilot.Sample) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if genesis == nil {
		return nil, fmt.Errorf("gossip: nil genesis pilot")
	}
	if len(shards) != cfg.Workers {
		return nil, fmt.Errorf("gossip: %d shards for %d workers", len(shards), cfg.Workers)
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = 3
	}
	if cfg.BucketSize == 0 {
		cfg.BucketSize = 4
	}
	if cfg.AntiEntropyEvery == 0 {
		cfg.AntiEntropyEvery = 3
	}
	if cfg.PeerLink == (netem.Link{}) {
		cfg.PeerLink = netem.WiFiLocal
	}
	if cfg.CloudLink == (netem.Link{}) {
		cfg.CloudLink = netem.CampusWAN
	}
	if cfg.PerSampleCost == 0 {
		cfg.PerSampleCost = 2 * time.Millisecond
	}
	if cfg.TopKFrac == 0 {
		cfg.TopKFrac = 0.1
	}
	cdc, err := fed.NewCodec(cfg.Compress, cfg.TopKFrac)
	if err != nil {
		return nil, err
	}
	fl, err := fed.NewFleet(fed.FleetConfig{
		Prefix: "gossip", SpeedSalt: 0x905512, Seed: cfg.Seed,
		LocalEpochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, PerSampleCost: cfg.PerSampleCost,
		Container: cfg.Container, Object: cfg.Object,
	}, deps, genesis.Cfg, shards)
	if err != nil {
		return nil, err
	}
	r := &Run{Cfg: cfg, Fleet: fl, val: val, codec: cdc}

	// Genesis weights: every rebuild starts from these exact bits.
	r.initVals = snapshotWeights(genesis)
	r.union, err = pilot.New(genesis.Cfg)
	if err != nil {
		return nil, fmt.Errorf("gossip: fleet pilot: %w", err)
	}
	r.head = &headState{store: NewStore()}
	r.head.model, err = pilot.New(genesis.Cfg)
	if err != nil {
		return nil, fmt.Errorf("gossip: head pilot: %w", err)
	}

	names := make([]string, cfg.Workers)
	total := 0
	for i, fw := range fl.Workers {
		names[i] = fw.Name
		if i >= cfg.FreeRiders {
			total += len(shards[i])
		}
	}
	r.mesh, err = netem.NewMesh(cfg.PeerLink, names)
	if err != nil {
		return nil, fmt.Errorf("gossip: peer mesh: %w", err)
	}
	for i, fw := range fl.Workers {
		w := &worker{
			Worker:    fw,
			table:     NewTable(fw.Name, cfg.BucketSize),
			store:     NewStore(),
			freeRider: i < cfg.FreeRiders,
		}
		if !w.freeRider {
			w.weight = float64(len(shards[i])) / float64(total)
		}
		Seed(w.table, names)
		r.workers = append(r.workers, w)
	}
	r.instrument()
	return r, nil
}

// Mesh exposes the per-pair link fabric (tests target specific pairs).
func (r *Run) Mesh() *netem.Mesh { return r.mesh }

// snapshotWeights copies a pilot's parameters into plain slices.
func snapshotWeights(p *pilot.Pilot) [][]float64 {
	params := p.Model().Params()
	out := make([][]float64, len(params))
	for i, prm := range params {
		vals := make([]float64, len(prm.W.Data))
		copy(vals, prm.W.Data)
		out[i] = vals
	}
	return out
}
