package nn

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Model is anything trainable by the Trainer: sequential stacks and the
// recurrent composites both satisfy it.
type Model interface {
	Forward(x *Tensor, train bool) (*Tensor, error)
	Backward(grad *Tensor) error
	Params() []*Param
}

// Dataset is a supervised set of examples: X is [N, ...], Y is [N, D].
type Dataset struct {
	X, Y *Tensor
}

// Len returns the number of examples.
func (d Dataset) Len() int {
	if d.X == nil {
		return 0
	}
	return d.X.Shape[0]
}

// Validate checks the two tensors agree on N.
func (d Dataset) Validate() error {
	if d.X == nil || d.Y == nil {
		return fmt.Errorf("nn: dataset missing X or Y")
	}
	if d.X.Shape[0] != d.Y.Shape[0] {
		return fmt.Errorf("nn: dataset X has %d rows, Y has %d", d.X.Shape[0], d.Y.Shape[0])
	}
	return nil
}

// rowVol returns the volume of one example of t (all dims but the first).
func rowVol(t *Tensor) int {
	v := 1
	for _, d := range t.Shape[1:] {
		v *= d
	}
	return v
}

// gatherInto copies the selected rows into out's preallocated tensors.
func (d Dataset) gatherInto(idx []int, out Dataset) {
	xv, yv := rowVol(d.X), rowVol(d.Y)
	for i, j := range idx {
		copy(out.X.Data[i*xv:(i+1)*xv], d.X.Data[j*xv:(j+1)*xv])
		copy(out.Y.Data[i*yv:(i+1)*yv], d.Y.Data[j*yv:(j+1)*yv])
	}
}

// batchScratch is a reusable mini-batch buffer: the trainer and evaluator
// copy each batch into the same backing arrays instead of allocating two
// fresh tensors per step.
type batchScratch struct{ x, y *Tensor }

func newBatchScratch(d Dataset, maxRows int) batchScratch {
	return batchScratch{
		x: NewTensor(append([]int{maxRows}, d.X.Shape[1:]...)...),
		y: NewTensor(append([]int{maxRows}, d.Y.Shape[1:]...)...),
	}
}

// batch reshapes the scratch to len(idx) rows and fills it from d. The
// returned dataset aliases the scratch buffers and is valid until the
// next call.
func (b batchScratch) batch(d Dataset, idx []int) Dataset {
	n := len(idx)
	b.x.Shape[0], b.y.Shape[0] = n, n
	out := Dataset{
		X: &Tensor{Shape: b.x.Shape, Data: b.x.Data[:n*rowVol(b.x)]},
		Y: &Tensor{Shape: b.y.Shape, Data: b.y.Data[:n*rowVol(b.y)]},
	}
	d.gatherInto(idx, out)
	return out
}

// TrainConfig controls a training run.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	ValFrac   float64 // fraction of data held out for validation
	Seed      int64
	ClipGrad  float64 // 0 disables clipping
	// Patience stops training after this many epochs without val-loss
	// improvement (0 disables early stopping, matching DonkeyCar's
	// EarlyStopping(patience=5) default when set to 5).
	Patience int
	// LRDecay multiplies the optimizer's learning rate after each epoch
	// (0 or 1 disables; 0.9 is a gentle step decay). Requires an optimizer
	// implementing LRScaler; others ignore it silently.
	LRDecay float64
	// Verbose emits one line per epoch via the Logf callback.
	Logf func(format string, args ...any)
	// EpochObserver, when non-nil, is called synchronously after every
	// completed epoch with that epoch's stats and its wall-clock duration
	// — the hook the observability layer uses to export per-epoch loss
	// and timing without the trainer importing it.
	EpochObserver func(stats EpochStats, dur time.Duration)
	// Abort, when non-nil, is polled after every completed epoch (after
	// EpochObserver, so a checkpoint of that epoch exists); returning true
	// stops training cleanly with History.Aborted set — the hook the
	// testbed's lease-preemption path uses to interrupt and later resume a
	// run from its last checkpoint.
	Abort func() bool
}

// DefaultTrainConfig mirrors DonkeyCar's training defaults at small scale.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 10, BatchSize: 32, ValFrac: 0.2, Seed: 1, ClipGrad: 5, Patience: 5}
}

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	ValLoss   float64
}

// History is the result of a training run.
type History struct {
	Epochs      []EpochStats
	BestValLoss float64
	BestEpoch   int
	Stopped     bool // true if early stopping fired
	Aborted     bool // true if the Abort hook interrupted training
	WallTime    time.Duration
	SamplesSeen int
	ParamCount  int
}

// FinalTrainLoss returns the last epoch's training loss (NaN if empty).
func (h History) FinalTrainLoss() float64 {
	if len(h.Epochs) == 0 {
		return math.NaN()
	}
	return h.Epochs[len(h.Epochs)-1].TrainLoss
}

// ParamCount sums the number of scalar parameters of a model.
func ParamCount(m Model) int {
	n := 0
	for _, p := range m.Params() {
		n += p.W.Size()
	}
	return n
}

// Train runs mini-batch training of model on data with the given loss and
// optimizer. It is deterministic for a fixed config seed.
func Train(model Model, data Dataset, loss Loss, opt Optimizer, cfg TrainConfig) (History, error) {
	start := time.Now()
	h := History{BestValLoss: math.Inf(1), ParamCount: ParamCount(model)}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return h, fmt.Errorf("nn: epochs and batch size must be positive")
	}
	if err := data.Validate(); err != nil {
		return h, err
	}
	if cfg.ValFrac < 0 || cfg.ValFrac >= 1 {
		return h, fmt.Errorf("nn: valFrac must be in [0,1), got %g", cfg.ValFrac)
	}
	// A seeded permutation holds out the first ValFrac of the rows for
	// validation. Batches gather straight from data through these index
	// lists, so no copy of either part is made.
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(data.Len())
	nv := int(float64(len(perm)) * cfg.ValFrac)
	trainRows, valRows := perm[nv:], perm[:nv]
	if len(trainRows) == 0 {
		return h, fmt.Errorf("nn: empty training set")
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	sinceBest := 0
	scratch := newBatchScratch(data, min(cfg.BatchSize, max(len(trainRows), len(valRows))))
	rows := make([]int, min(cfg.BatchSize, len(trainRows)))

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		idx := rng.Perm(len(trainRows))
		var epochLoss float64
		var batches int
		for b := 0; b < len(idx); b += cfg.BatchSize {
			hi := b + cfg.BatchSize
			if hi > len(idx) {
				hi = len(idx)
			}
			for j, k := range idx[b:hi] {
				rows[j] = trainRows[k]
			}
			batch := scratch.batch(data, rows[:hi-b])
			pred, err := model.Forward(batch.X, true)
			if err != nil {
				return h, fmt.Errorf("nn: epoch %d forward: %w", epoch, err)
			}
			l, grad, err := loss.Loss(pred, batch.Y)
			if err != nil {
				return h, fmt.Errorf("nn: epoch %d loss: %w", epoch, err)
			}
			if err := model.Backward(grad); err != nil {
				return h, fmt.Errorf("nn: epoch %d backward: %w", epoch, err)
			}
			if cfg.ClipGrad > 0 {
				ClipGradients(model.Params(), cfg.ClipGrad)
			}
			if err := opt.Step(model.Params()); err != nil {
				return h, err
			}
			epochLoss += l
			batches++
			h.SamplesSeen += hi - b
		}
		stats := EpochStats{Epoch: epoch, TrainLoss: epochLoss / float64(batches), ValLoss: math.NaN()}
		if len(valRows) > 0 {
			vl, err := evaluate(model, data, valRows, loss, cfg.BatchSize, scratch)
			if err != nil {
				return h, err
			}
			stats.ValLoss = vl
			if vl < h.BestValLoss {
				h.BestValLoss = vl
				h.BestEpoch = epoch
				sinceBest = 0
			} else {
				sinceBest++
			}
		}
		h.Epochs = append(h.Epochs, stats)
		if cfg.EpochObserver != nil {
			cfg.EpochObserver(stats, time.Since(epochStart))
		}
		if cfg.Logf != nil {
			cfg.Logf("epoch %d: train %.5f val %.5f", epoch, stats.TrainLoss, stats.ValLoss)
		}
		if cfg.Abort != nil && cfg.Abort() {
			h.Aborted = true
			break
		}
		if cfg.Patience > 0 && sinceBest >= cfg.Patience {
			h.Stopped = true
			break
		}
		if cfg.LRDecay > 0 && cfg.LRDecay != 1 {
			if sc, ok := opt.(LRScaler); ok {
				sc.ScaleLR(cfg.LRDecay)
			}
		}
	}
	h.WallTime = time.Since(start)
	return h, nil
}

// Evaluate computes the mean loss of model over data without training.
func Evaluate(model Model, data Dataset, loss Loss, batchSize int) (float64, error) {
	if err := data.Validate(); err != nil {
		return 0, err
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	n := data.Len()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return evaluate(model, data, rows, loss, batchSize, newBatchScratch(data, min(batchSize, n)))
}

// evaluate is the mean batch loss of model over the given rows of data,
// in order, batchSize rows at a time through scratch, which must hold
// min(batchSize, len(rows)) rows.
func evaluate(model Model, data Dataset, rows []int, loss Loss, batchSize int, scratch batchScratch) (float64, error) {
	var total float64
	var batches int
	for b := 0; b < len(rows); b += batchSize {
		hi := min(b+batchSize, len(rows))
		batch := scratch.batch(data, rows[b:hi])
		pred, err := model.Forward(batch.X, false)
		if err != nil {
			return 0, err
		}
		l, _, err := loss.Loss(pred, batch.Y)
		if err != nil {
			return 0, err
		}
		total += l
		batches++
	}
	return total / float64(batches), nil
}
