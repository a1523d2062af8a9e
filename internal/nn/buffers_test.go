package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// specialValue draws from the values where IEEE arithmetic is easiest
// to get subtly wrong: signed zeros, subnormals, infinities and NaN,
// mixed with ordinary unit-scale values.
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000)+1)
	case 3:
		return -math.SmallestNonzeroFloat64 * float64(rng.Intn(1<<20)+1)
	case 4:
		return math.Inf(1 - 2*rng.Intn(2))
	case 5:
		return math.NaN()
	}
	return rng.NormFloat64()
}

// reluBranchy is the rectifier with a branch on each sign: y keeps x
// unless x < 0, where it is +0, and the gradient is zeroed (+0) where y
// was. It is the reference for the branch-free ReLU.
func reluBranchy(x, grad []float64) (y, g []float64) {
	y, g = slices.Clone(x), slices.Clone(grad)
	for i, v := range x {
		if v < 0 {
			y[i] = 0
			g[i] = 0
		}
	}
	return y, g
}

// TestReLUMatchesBranchy holds the branch-free ReLU, forward and
// backward, to the branchy rectifier bit for bit on signed zeros,
// subnormals, infinities and NaN.
func TestReLUMatchesBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := NewTensor(7, 37)
	grad := NewTensor(7, 37)
	for i := range x.Data {
		x.Data[i], grad.Data[i] = specialValue(rng), specialValue(rng)
	}
	x.Data[0], x.Data[1], x.Data[2], x.Data[3] = math.Copysign(0, -1), math.NaN(), math.Inf(-1), -math.SmallestNonzeroFloat64
	wantY, wantG := reluBranchy(x.Data, grad.Data)
	r := &ReLU{}
	y, err := r.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Backward(grad.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantY {
		if math.Float64bits(y.Data[i]) != math.Float64bits(wantY[i]) ||
			math.Float64bits(g.Data[i]) != math.Float64bits(wantG[i]) {
			t.Fatalf("element %d (x %#x): y %#x g %#x, want y %#x g %#x", i, math.Float64bits(x.Data[i]),
				math.Float64bits(y.Data[i]), math.Float64bits(g.Data[i]),
				math.Float64bits(wantY[i]), math.Float64bits(wantG[i]))
		}
	}
}

// forwarder is what the ownership test drives: a Layer or a Model.
type forwarder interface {
	Forward(x *Tensor, train bool) (*Tensor, error)
}

// TestLayerBufferOwnership pins the Layer ownership rule: two training
// forwards return the same buffer, as do two backwards, while two
// inference forwards return distinct tensors that both survive. The
// Sequential case runs Dense with a fused ReLU epilogue.
func TestLayerBufferOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	conv, err := NewConv2D(2, 3, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := NewDropout(0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		f     forwarder
		shape []int
	}{
		{"dense", NewDense(5, 4, rng), []int{3, 5}},
		{"conv2d", conv, []int{2, 2, 6, 6}},
		{"dropout", drop, []int{3, 5}},
		{"dense+relu", NewSequential(NewDense(5, 4, rng), &ReLU{}), []int{3, 5}},
	} {
		x1, x2, x3 := NewTensor(tc.shape...), NewTensor(tc.shape...), NewTensor(tc.shape...)
		x1.RandNormal(rng, 1)
		x2.RandNormal(rng, 1)
		x3.RandNormal(rng, 1)
		forward := func(x *Tensor, train bool) *Tensor {
			t.Helper()
			y, err := tc.f.Forward(x, train)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return y
		}
		y1 := forward(x1, true)
		if y2 := forward(x2, true); &y2.Data[0] != &y1.Data[0] {
			t.Errorf("%s: two training forwards returned different buffers", tc.name)
		}
		if l, ok := tc.f.(Layer); ok && tc.name != "dropout" {
			grad := y1.Clone()
			grad.RandNormal(rng, 1)
			dx1, err := l.Backward(grad.Clone())
			if err != nil {
				t.Fatal(err)
			}
			dx2, err := l.Backward(grad.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if &dx1.Data[0] != &dx2.Data[0] {
				t.Errorf("%s: two backwards returned different buffers", tc.name)
			}
		}
		e1 := forward(x1, false)
		keep := e1.Clone()
		e2 := forward(x3, false)
		if &e1.Data[0] == &e2.Data[0] || &e1.Data[0] == &y1.Data[0] {
			t.Errorf("%s: an inference forward returned a shared buffer", tc.name)
		}
		if !slices.Equal(e1.Data, keep.Data) {
			t.Errorf("%s: an inference output changed under a later inference forward", tc.name)
		}
	}
}
