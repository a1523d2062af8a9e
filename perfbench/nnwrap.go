package main

import (
	"time"

	"repro/internal/nn"
)

// The wrappers below time the trainer's calls into the pilot's network,
// its loss and its optimizer. Each delegates to the wrapped value, so the
// layers' own kernels (Sequential's fused paths included) run unchanged
// and the trained weights are bit-identical to an unwrapped run.

type timedModel struct {
	nn.Model
	tr *tracer
}

func (m timedModel) Forward(x *nn.Tensor, train bool) (*nn.Tensor, error) {
	name := "nn.forward_eval"
	if train {
		name = "nn.forward_train"
	}
	t0 := time.Now()
	y, err := m.Model.Forward(x, train)
	m.tr.add(name, t0, time.Now())
	return y, err
}

func (m timedModel) Backward(grad *nn.Tensor) error {
	t0 := time.Now()
	err := m.Model.Backward(grad)
	m.tr.add("nn.backward", t0, time.Now())
	return err
}

type timedLoss struct {
	inner nn.Loss
	tr    *tracer
}

func (l timedLoss) Name() string { return l.inner.Name() }

func (l timedLoss) Loss(pred, target *nn.Tensor) (float64, *nn.Tensor, error) {
	t0 := time.Now()
	v, g, err := l.inner.Loss(pred, target)
	l.tr.add("nn.loss", t0, time.Now())
	return v, g, err
}

type timedOpt struct {
	nn.Optimizer
	tr *tracer
}

func (o timedOpt) Step(params []*nn.Param) error {
	t0 := time.Now()
	err := o.Optimizer.Step(params)
	o.tr.add("nn.optimizer", t0, time.Now())
	return err
}
