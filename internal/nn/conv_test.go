package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// conv2DRef is the earlier im2col lowering of Conv2D, kept as the
// reference the NCHW lowering must match bit for bit. Its forward pass
// runs one A×Bᵀ GEMM over the whole batch into a [position, F] matrix
// and transposes that into NCHW; its backward pass transposes the
// gradient into a [position, F] matrix gmat, takes dW = gmatᵀ × cols and
// dCols = gmat × W over the whole batch, and scatters dCols position by
// position.
type conv2DRef struct {
	c    *Conv2D
	x    *Tensor
	cols []float64
}

func (r *conv2DRef) dims() (n, h, w, oh, ow, patch int) {
	c := r.c
	n, h, w = r.x.Shape[0], r.x.Shape[2], r.x.Shape[3]
	oh, ow = (h-c.K)/c.Stride+1, (w-c.K)/c.Stride+1
	return n, h, w, oh, ow, c.InC * c.K * c.K
}

// forward returns the convolution of x plus bias, before any activation.
func (r *conv2DRef) forward(x *Tensor) *Tensor {
	c := r.c
	r.x = x
	n, h, w, oh, ow, patch := r.dims()
	r.cols = make([]float64, n*oh*ow*patch)
	for i := 0; i < n; i++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := r.cols[((i*oh+oy)*ow+ox)*patch:]
				t := 0
				for ch := 0; ch < c.InC; ch++ {
					base := ((i*c.InC + ch) * h) * w
					for ky := 0; ky < c.K; ky++ {
						src := base + (oy*c.Stride+ky)*w + ox*c.Stride
						copy(row[t:t+c.K], x.Data[src:src+c.K])
						t += c.K
					}
				}
			}
		}
	}
	out2d := make([]float64, n*oh*ow*c.OutC)
	gemmTransBInto(r.cols, c.w.W.Data, out2d, n*oh*ow, patch, c.OutC)
	y := NewTensor(n, c.OutC, oh, ow)
	for i := 0; i < n; i++ {
		for p := 0; p < oh*ow; p++ {
			row := out2d[(i*oh*ow+p)*c.OutC:]
			for f := 0; f < c.OutC; f++ {
				y.Data[((i*c.OutC+f)*oh*ow)+p] = row[f] + c.b.W.Data[f]
			}
		}
	}
	return y
}

// backward returns dW and db accumulated onto zero, as a fresh layer's
// Grad tensors hold them, and dX.
func (r *conv2DRef) backward(grad *Tensor) (dw, db, dx []float64) {
	c := r.c
	n, h, w, oh, ow, patch := r.dims()
	db = make([]float64, c.OutC)
	for i := 0; i < n; i++ {
		for f := 0; f < c.OutC; f++ {
			base := ((i*c.OutC + f) * oh) * ow
			var s float64
			for p := 0; p < oh*ow; p++ {
				s += grad.Data[base+p]
			}
			db[f] += s
		}
	}
	gmat := make([]float64, n*oh*ow*c.OutC)
	for i := 0; i < n; i++ {
		for f := 0; f < c.OutC; f++ {
			base := ((i*c.OutC + f) * oh) * ow
			for p := 0; p < oh*ow; p++ {
				gmat[(i*oh*ow+p)*c.OutC+f] = grad.Data[base+p]
			}
		}
	}
	dwm := make([]float64, c.OutC*patch)
	gemmTransAInto(gmat, r.cols, dwm, n*oh*ow, c.OutC, patch)
	dw = make([]float64, len(dwm))
	for j, v := range dwm {
		dw[j] += v
	}
	dcols := make([]float64, n*oh*ow*patch)
	gemmInto(gmat, c.w.W.Data, dcols, n*oh*ow, c.OutC, patch)
	dx = make([]float64, n*c.InC*h*w)
	for i := 0; i < n; i++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := dcols[((i*oh+oy)*ow+ox)*patch:]
				t := 0
				for ch := 0; ch < c.InC; ch++ {
					base := ((i*c.InC + ch) * h) * w
					for ky := 0; ky < c.K; ky++ {
						dst := base + (oy*c.Stride+ky)*w + ox*c.Stride
						for kx := 0; kx < c.K; kx++ {
							dx[dst+kx] += row[t]
							t++
						}
					}
				}
			}
		}
	}
	return dw, db, dx
}

// convGrad fills an [n, f, p] gradient with normals and zeroes about a
// third of the 4-blocks the weight-gradient pass skips — runs of four
// consecutive positions, counted across image boundaries — and of the
// 4-channel blocks the input-gradient pass skips.
func convGrad(rng *rand.Rand, n, f, p int) *Tensor {
	g := NewTensor(n, f, p)
	for j := range g.Data {
		g.Data[j] = rng.NormFloat64()
	}
	at := func(q, ch int) *float64 {
		i := q / p
		return &g.Data[(i*f+ch)*p+q-i*p]
	}
	for ch := 0; ch < f; ch++ {
		for q := 0; q+4 <= n*p; q += 4 {
			if rng.Intn(3) == 0 {
				for d := 0; d < 4; d++ {
					*at(q+d, ch) = 0
				}
			}
		}
	}
	for q := 0; q < n*p; q++ {
		for ch := 0; ch+4 <= f; ch += 4 {
			if rng.Intn(3) == 0 {
				for d := 0; d < 4; d++ {
					*at(q, ch+d) = 0
				}
			}
		}
	}
	return g
}

// sameBits reports whether two results agree bit for bit, treating any
// two NaNs as equal (their payloads may legitimately differ).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for j := range got {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, j,
				got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// checkConv2DMatchesRef runs Conv2D against conv2DRef over the grid of
// batch sizes, channel counts, kernels and strides, with two input sizes
// so that P = OH·OW takes values both divisible and not divisible by 4,
// and varying worker counts; every third input holds an infinity. y, dW,
// db and dX must match bit for bit (any NaN matching any NaN):
// for a bare layer (full backward), and for Conv2D first in a Sequential
// with a fused ReLU or Tanh (fused forward, params-only backward).
func checkConv2DMatchesRef(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(0))
	rng := rand.New(rand.NewSource(15))
	fresh := []func() Layer{
		func() Layer { return &ReLU{} },
		func() Layer { return &Tanh{} },
	}
	cases := 0
	for _, n := range []int{1, 2, 3, 32} {
		for _, inC := range []int{1, 3, 8} {
			for _, outC := range []int{1, 4, 8, 9, 16} {
				for _, k := range []int{1, 3, 5} {
					for _, stride := range []int{1, 2} {
						for _, hw := range [][2]int{{k + 4, k + 6}, {k + 7, k + 11}} {
							cases++
							SetMaxWorkers(1 + cases%3)
							name := fmt.Sprintf("n=%d c=%d f=%d k=%d s=%d hw=%v", n, inC, outC, k, stride, hw)
							conv, err := NewConv2D(inC, outC, k, stride, rng)
							if err != nil {
								t.Fatal(err)
							}
							conv.b.W.RandNormal(rng, 1)
							x := NewTensor(n, inC, hw[0], hw[1])
							x.RandNormal(rng, 1)
							if cases%3 == 0 {
								// 0·Inf is NaN: an all-zero gradient block
								// must be skipped, not multiplied out.
								x.Data[rng.Intn(len(x.Data))] = math.Inf(1 - 2*rng.Intn(2))
							}
							ref := &conv2DRef{c: conv}
							yRef := ref.forward(x)
							p := yRef.Size() / (n * outC)
							grad := convGrad(rng, n, outC, p)
							dwRef, dbRef, dxRef := ref.backward(grad)

							y, err := conv.Forward(x, true)
							if err != nil {
								t.Fatal(err)
							}
							requireSameBits(t, name+": y", y.Data, yRef.Data)
							dx, err := conv.Backward(grad.Clone())
							if err != nil {
								t.Fatal(err)
							}
							requireSameBits(t, name+": dW", conv.w.Grad.Data, dwRef)
							requireSameBits(t, name+": db", conv.b.Grad.Data, dbRef)
							requireSameBits(t, name+": dX", dx.Data, dxRef)

							// Fused activation, params-only backward.
							act, actRef := fresh[cases%2](), fresh[cases%2]()
							seq := &Sequential{Layers: []Layer{conv, act}}
							conv.w.Grad.Zero()
							conv.b.Grad.Zero()
							y, err = seq.Forward(x, true)
							if err != nil {
								t.Fatal(err)
							}
							yAct, _ := actRef.Forward(yRef, true)
							requireSameBits(t, name+": fused y", y.Data, yAct.Data)
							if err := seq.Backward(grad.Clone()); err != nil {
								t.Fatal(err)
							}
							gAct, _ := actRef.Backward(grad.Clone())
							dwRef, dbRef, _ = ref.backward(gAct)
							requireSameBits(t, name+": fused dW", conv.w.Grad.Data, dwRef)
							requireSameBits(t, name+": fused db", conv.b.Grad.Data, dbRef)
						}
					}
				}
			}
		}
	}
}

// TestConv2DMatchesRef compares the NCHW lowering with the earlier
// lowering on the kernels the host dispatches to.
func TestConv2DMatchesRef(t *testing.T) {
	checkConv2DMatchesRef(t)
}
