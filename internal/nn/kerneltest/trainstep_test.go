package kerneltest

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/nn"
)

// trainStep is one mini-batch step of the linear pilot at its fleet
// shape: the encoder of pilot.DefaultConfig(Linear, 64, 48, 1) (conv
// 5x5/2 x8, conv 3x3/2 x16, dense 64, dropout 0.1) plus its tanh head,
// on a batch of 32 frames, stepped as nn.Train steps it: forward, MSE,
// backward, gradient clipping at 5, Adam.
type trainStep struct {
	model nn.Model
	opt   nn.Optimizer
	x, y  *nn.Tensor
}

func newTrainStep(tb testing.TB) *trainStep {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	conv1, err := nn.NewConv2D(1, 8, 5, 2, rng)
	if err != nil {
		tb.Fatal(err)
	}
	conv2, err := nn.NewConv2D(8, 16, 3, 2, rng)
	if err != nil {
		tb.Fatal(err)
	}
	drop, err := nn.NewDropout(0.1, rng)
	if err != nil {
		tb.Fatal(err)
	}
	opt, err := nn.NewAdam(1e-3)
	if err != nil {
		tb.Fatal(err)
	}
	s := &trainStep{
		model: nn.NewSequential(
			conv1, &nn.ReLU{}, conv2, &nn.ReLU{},
			&nn.Flatten{},
			nn.NewDense(16*10*14, 64, rng), &nn.ReLU{},
			drop,
			nn.NewDense(64, 2, rng), &nn.Tanh{},
		),
		opt: opt,
		x:   nn.NewTensor(32, 1, 48, 64),
		y:   nn.NewTensor(32, 2),
	}
	s.x.RandNormal(rng, 1)
	s.y.RandNormal(rng, 0.5)
	return s
}

func (s *trainStep) run(tb testing.TB) {
	pred, err := s.model.Forward(s.x, true)
	if err != nil {
		tb.Fatal(err)
	}
	_, grad, err := nn.MSE{}.Loss(pred, s.y)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.model.Backward(grad); err != nil {
		tb.Fatal(err)
	}
	nn.ClipGradients(s.model.Params(), 5)
	if err := s.opt.Step(s.model.Params()); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkTrainStep measures one training step of the linear 64x48
// pilot at batch 32, with its bytes and allocations per step.
func BenchmarkTrainStep(b *testing.B) {
	s := newTrainStep(b)
	s.run(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.run(b)
	}
}

// TestTrainStepSteadyStateBytes pins what a steady-state training step
// allocates: the layers reuse their output and gradient buffers and the
// kernels their pooled scratch, so after a warm-up a step allocates
// little more than its loss gradient and closures — under 64 KB, where
// a fresh tensor per layer call cost about 4.4 MB. The collector is off
// while it runs, so no collection empties the scratch pools mid-way.
func TestTrainStepSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled scratch buffers at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newTrainStep(t)
	for i := 0; i < 3; i++ {
		s.run(t)
	}
	const steps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		s.run(t)
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / steps
	t.Logf("%d bytes per step", perStep)
	if perStep >= 64<<10 {
		t.Errorf("a steady-state training step allocates %d bytes, want < %d", perStep, 64<<10)
	}
}
