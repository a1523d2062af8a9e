package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is a trainable tensor with its accumulated gradient. Frozen
// params (e.g. batch-norm running statistics) are serialized with the
// model but skipped by optimizers.
type Param struct {
	Name   string
	W      *Tensor
	Grad   *Tensor
	Frozen bool
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: NewTensor(shape...), Grad: NewTensor(shape...)}
}

// Layer is one differentiable stage. Forward caches whatever Backward
// needs; Backward consumes the upstream gradient and returns the gradient
// with respect to the layer input, accumulating parameter gradients.
// Layers are not safe for concurrent use; the trainer drives them from one
// goroutine (kernels parallelize internally).
//
// Ownership: the output of a training Forward (train == true) and the
// gradient a Backward returns may be buffers the layer owns and reuses,
// so a steady-state training step allocates almost nothing. A training
// output stays valid until the layer's next training Forward, a returned
// gradient until its next Backward; a caller that needs either longer
// copies it. An inference Forward (train == false) returns a tensor the
// caller keeps.
type Layer interface {
	Forward(x *Tensor, train bool) (*Tensor, error)
	Backward(grad *Tensor) (*Tensor, error)
	Params() []*Param
}

// Dense is a fully connected layer: y = xW + b for x [N, in].
type Dense struct {
	In, Out   int
	w, b      *Param
	lastX     *Tensor
	y, dx, dw *Tensor // training buffers (see Layer)
}

// NewDense builds a dense layer with He-initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, w: newParam("w", in, out), b: newParam("b", 1, out)}
	d.w.W.RandNormal(rng, math.Sqrt(2.0/float64(in)))
	return d
}

// Forward implements Layer: one fused GEMM computes y = xW + b, with the
// bias folded into the kernel's row initialization.
func (d *Dense) Forward(x *Tensor, train bool) (*Tensor, error) {
	return d.forward(x, nil, train)
}

// forward runs the fused kernel, optionally applying an activation
// epilogue to each output row range while it is cache-hot.
func (d *Dense) forward(x *Tensor, act fusedActivation, train bool) (*Tensor, error) {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		return nil, fmt.Errorf("nn: dense expects [N,%d], got %v", d.In, x.Shape)
	}
	d.lastX = x
	n := x.Shape[0]
	y := layerBuf(&d.y, train, n, d.Out)
	var epi func(lo, hi int)
	if act != nil {
		epi = act.fuseInto(y)
	}
	gemmBiasInto(x.Data, d.w.W.Data, d.b.W.Data, y.Data, n, d.In, d.Out, epi)
	return y, nil
}

// Backward implements Layer.
func (d *Dense) Backward(grad *Tensor) (*Tensor, error) {
	if err := d.backwardParamsOnly(grad); err != nil {
		return nil, err
	}
	// dx = grad Wᵀ
	n := grad.Shape[0]
	dx := layerBuf(&d.dx, true, n, d.In)
	gemmTransBInto(grad.Data, d.w.W.Data, dx.Data, n, d.Out, d.In)
	return dx, nil
}

// backwardParamsOnly implements noInputGrad: dW += xᵀ grad and db += column
// sums, without the dx GEMM a first-in-Sequential layer would discard.
func (d *Dense) backwardParamsOnly(grad *Tensor) error {
	if d.lastX == nil {
		return fmt.Errorf("nn: dense backward before forward")
	}
	n := grad.Shape[0]
	dw := layerBuf(&d.dw, true, d.In, d.Out)
	gemmTransAInto(d.lastX.Data, grad.Data, dw.Data, n, d.In, d.Out)
	if err := d.w.Grad.AddScaled(dw, 1); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := grad.Data[i*d.Out : (i+1)*d.Out]
		for j := 0; j < d.Out; j++ {
			d.b.Grad.Data[j] += row[j]
		}
	}
	return nil
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// fusedActivation is implemented by activations that can run as a GEMM
// epilogue: fuseInto prepares the layer's backward caches for output y
// and returns a function that transforms y's flat index range [lo, hi)
// in place. Concurrent callers receive disjoint ranges.
type fusedActivation interface {
	Layer
	fuseInto(y *Tensor) func(lo, hi int)
}

// epilogueFuser is implemented by layers (Dense, Conv2D) that can apply a
// fusedActivation to their output without a separate pass.
type epilogueFuser interface {
	Layer
	forward(x *Tensor, act fusedActivation, train bool) (*Tensor, error)
}

// layerBuf returns a tensor of the given shape for a layer's output, a
// gradient or a matrix its backward reuses. With own set it reshapes the
// layer's buffer *buf, reusing its backing array when that is large
// enough, and its contents are stale: the caller overwrites every
// element or zeroes what it scatters into. Otherwise it returns a fresh
// zeroed tensor the caller keeps.
func layerBuf(buf **Tensor, own bool, shape ...int) *Tensor {
	if !own {
		return NewTensor(shape...)
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	t := *buf
	if t == nil || cap(t.Data) < n {
		t = NewTensor(shape...)
		*buf = t
		return t
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = t.Data[:n]
	return t
}

// noInputGrad is implemented by layers (Dense, Conv2D) that can accumulate
// parameter gradients without materializing the input gradient. Sequential
// uses it for its first layer, whose input gradient is always discarded —
// for a leading convolution that halves the backward cost.
type noInputGrad interface {
	Layer
	backwardParamsOnly(grad *Tensor) error
}

// ReLU is the rectified-linear activation.
type ReLU struct{ mask []bool }

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor, train bool) (*Tensor, error) {
	y := x.Clone()
	r.fuseInto(y)(0, len(y.Data))
	return y, nil
}

// fuseInto implements fusedActivation.
func (r *ReLU) fuseInto(y *Tensor) func(lo, hi int) {
	if cap(r.mask) < len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	r.mask = r.mask[:len(y.Data)]
	return func(lo, hi int) { reluInto(y.Data[lo:hi], r.mask[lo:hi]) }
}

// reluIntoGo applies the rectifier to y in place and records in mask
// which elements passed through. Negative values become +0; -0, NaN and
// +Inf pass unchanged, as under `if v < 0 { v = 0 }`. The sign test
// becomes a bit mask instead of a branch, which the data's signs would
// make unpredictable.
func reluIntoGo(y []float64, mask []bool) {
	mask = mask[:len(y)]
	for i, v := range y {
		keep := !(v < 0)
		mask[i] = keep
		y[i] = math.Float64frombits(math.Float64bits(v) & -b2u(keep))
	}
}

// reluMaskGo zeroes (+0) the elements of g whose mask entry is false and
// leaves the others' bits unchanged, without a branch.
func reluMaskGo(g []float64, mask []bool) {
	mask = mask[:len(g)]
	for i, keep := range mask {
		g[i] = math.Float64frombits(math.Float64bits(g[i]) & -b2u(keep))
	}
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a
// zero-extending move.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Backward implements Layer. The upstream gradient is masked in place:
// every producer in this package hands each backward gradient to exactly
// one consumer, so reusing the buffer saves a clone per batch. Masked
// elements become +0, the others keep their bits.
func (r *ReLU) Backward(grad *Tensor) (*Tensor, error) {
	if len(r.mask) != len(grad.Data) {
		return nil, fmt.Errorf("nn: relu backward size mismatch")
	}
	reluMask(grad.Data, r.mask)
	return grad, nil
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Tanh activation, used on steering heads to bound outputs to [-1, 1].
type Tanh struct{ lastY *Tensor }

// Forward implements Layer.
func (t *Tanh) Forward(x *Tensor, train bool) (*Tensor, error) {
	y := x.Clone()
	t.fuseInto(y)(0, len(y.Data))
	return y, nil
}

// fuseInto implements fusedActivation.
func (t *Tanh) fuseInto(y *Tensor) func(lo, hi int) {
	t.lastY = y
	return func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y.Data[i] = math.Tanh(y.Data[i])
		}
	}
}

// Backward implements Layer. Scales the upstream gradient in place (see
// ReLU.Backward for the ownership argument).
func (t *Tanh) Backward(grad *Tensor) (*Tensor, error) {
	if t.lastY == nil || len(t.lastY.Data) != len(grad.Data) {
		return nil, fmt.Errorf("nn: tanh backward size mismatch")
	}
	for i := range grad.Data {
		y := t.lastY.Data[i]
		grad.Data[i] *= 1 - y*y
	}
	return grad, nil
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Dropout zeroes a fraction of activations during training, scaling the
// survivors (inverted dropout). It is the identity at inference time.
type Dropout struct {
	Rate float64
	rng  *rand.Rand
	mask []float64
	y    *Tensor // training buffer (see Layer)
}

// NewDropout builds a dropout layer with its own seeded RNG stream.
func NewDropout(rate float64, rng *rand.Rand) (*Dropout, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("nn: dropout rate must be in [0,1), got %g", rate)
	}
	return &Dropout{Rate: rate, rng: rand.New(rand.NewSource(rng.Int63()))}, nil
}

// Forward implements Layer.
func (d *Dropout) Forward(x *Tensor, train bool) (*Tensor, error) {
	if !train || d.Rate == 0 {
		d.mask = nil
		return x, nil
	}
	y := layerBuf(&d.y, true, x.Shape...)
	if cap(d.mask) < len(y.Data) {
		d.mask = make([]float64, len(y.Data))
	}
	d.mask = d.mask[:len(y.Data)]
	scale := 1 / (1 - d.Rate)
	for i, v := range x.Data {
		if d.rng.Float64() < d.Rate {
			d.mask[i] = 0
			y.Data[i] = 0
		} else {
			d.mask[i] = scale
			y.Data[i] = v * scale
		}
	}
	return y, nil
}

// Backward implements Layer. Scales the upstream gradient in place (see
// ReLU.Backward for the ownership argument).
func (d *Dropout) Backward(grad *Tensor) (*Tensor, error) {
	if d.mask == nil {
		return grad, nil
	}
	if len(d.mask) != len(grad.Data) {
		return nil, fmt.Errorf("nn: dropout backward size mismatch")
	}
	for i := range grad.Data {
		grad.Data[i] *= d.mask[i]
	}
	return grad, nil
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Flatten reshapes [N, ...] to [N, prod(...)], remembering the input shape
// for the backward pass.
type Flatten struct{ lastShape []int }

// Forward implements Layer.
func (f *Flatten) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) < 2 {
		return nil, fmt.Errorf("nn: flatten needs at least 2 dims, got %v", x.Shape)
	}
	f.lastShape = append(f.lastShape[:0], x.Shape...)
	n := x.Shape[0]
	return x.Reshape(n, len(x.Data)/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *Tensor) (*Tensor, error) {
	return grad.Reshape(f.lastShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Sequential chains layers and implements the Model interface the trainer
// consumes.
type Sequential struct{ Layers []Layer }

// NewSequential builds a model from layers in order.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Model. Dense/Conv2D layers immediately followed by a
// ReLU or Tanh run as one fused kernel: the activation is applied as a
// GEMM epilogue (filling the activation layer's backward caches), saving
// a full clone-and-rewrite pass over the activations.
func (s *Sequential) Forward(x *Tensor, train bool) (*Tensor, error) {
	var err error
	for i := 0; i < len(s.Layers); i++ {
		if f, ok := s.Layers[i].(epilogueFuser); ok && i+1 < len(s.Layers) {
			if act, ok := s.Layers[i+1].(fusedActivation); ok {
				x, err = f.forward(x, act, train)
				if err != nil {
					return nil, fmt.Errorf("layer %d: %w", i, err)
				}
				i++
				continue
			}
		}
		x, err = s.Layers[i].Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return x, nil
}

// Backward implements Model. The first layer's input gradient is never
// consumed, so layers implementing noInputGrad skip computing it there.
func (s *Sequential) Backward(grad *Tensor) error {
	var err error
	for i := len(s.Layers) - 1; i >= 0; i-- {
		if i == 0 {
			if l, ok := s.Layers[0].(noInputGrad); ok {
				if err := l.backwardParamsOnly(grad); err != nil {
					return fmt.Errorf("layer 0: %w", err)
				}
				return nil
			}
		}
		grad, err = s.Layers[i].Backward(grad)
		if err != nil {
			return fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return nil
}

// Params implements Model.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
