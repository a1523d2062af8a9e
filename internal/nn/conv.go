package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Conv2D is a valid (no padding) 2-D convolution over [N, C, H, W] input
// with an [F, C, KH, KW] kernel. By default it lowers to an im2col matrix
// multiply; Naive switches to the direct nested-loop kernel (kept for the
// ablation benchmark comparing the two).
//
// Buffer layouts of the lowering, with P = OH·OW output positions per
// image and T = C·K·K receptive-field taps:
//   - x and dx are [N, C, H, W]; y and the upstream grad are
//     [N, F, OH, OW]. Each image's slice of y or grad is an [F, P]
//     matrix, which the GEMMs write and read in place: nothing is
//     transposed into a [position, F] layout.
//   - cols is [N·P, T], one im2col row per output position, image by
//     image. Forward builds it and backward reuses it for dW.
//   - The kernel, and dW, are read as the [F, T] matrix W.
//   - dcols is [P, T] for one image at a time, per worker; col2im
//     scatters it into that image's dx while it is still cache-hot.
type Conv2D struct {
	InC, OutC, K, Stride int
	Naive                bool

	w, b  *Param
	lastX *Tensor
	cols  *Tensor // cached im2col matrix for backward
	outH  int
	outW  int
}

// NewConv2D builds a square-kernel convolution with He initialization.
func NewConv2D(inC, outC, k, stride int, rng *rand.Rand) (*Conv2D, error) {
	if k <= 0 || stride <= 0 || inC <= 0 || outC <= 0 {
		return nil, fmt.Errorf("nn: conv2d invalid params c=%d f=%d k=%d s=%d", inC, outC, k, stride)
	}
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride,
		w: newParam("w", outC, inC, k, k), b: newParam("b", 1, outC)}
	fanIn := float64(inC * k * k)
	c.w.W.RandNormal(rng, math.Sqrt(2.0/fanIn))
	return c, nil
}

func (c *Conv2D) outDims(h, w int) (int, int, error) {
	oh := (h-c.K)/c.Stride + 1
	ow := (w-c.K)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		return 0, 0, fmt.Errorf("nn: conv2d input %dx%d too small for k=%d s=%d", h, w, c.K, c.Stride)
	}
	return oh, ow, nil
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *Tensor, train bool) (*Tensor, error) {
	return c.forward(x, nil)
}

// forward lowers the convolution, one image at a time across workers:
// im2col, then y_i = W × cols_iᵀ straight into the image's [F, P] output
// slice, then the bias and the optional fused activation epilogue while
// the slice is cache-hot.
func (c *Conv2D) forward(x *Tensor, act fusedActivation) (*Tensor, error) {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		return nil, fmt.Errorf("nn: conv2d expects [N,%d,H,W], got %v", c.InC, x.Shape)
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow, err := c.outDims(h, w)
	if err != nil {
		return nil, err
	}
	c.lastX, c.outH, c.outW = x, oh, ow
	if c.Naive {
		y, err := c.forwardNaive(x, n, h, w, oh, ow)
		if err == nil && act != nil {
			act.fuseInto(y)(0, len(y.Data))
		}
		return y, err
	}
	pos, patch := oh*ow, c.InC*c.K*c.K
	releaseScratch(c.cols) // drop a cached matrix from a backward-less pass
	c.cols = getScratch(n*pos, patch)
	y := NewTensor(n, c.OutC, oh, ow)
	var epi func(lo, hi int)
	if act != nil {
		epi = act.fuseInto(y)
	}
	ySize := c.OutC * pos
	parallelFor(n, n*pos*patch*c.OutC, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			cols := c.cols.Data[i*pos*patch : (i+1)*pos*patch]
			c.im2colImage(x.Data, cols, i, h, w, oh, ow)
			yi := y.Data[i*ySize : (i+1)*ySize]
			gemmTransBT(cols, c.w.W.Data, yi, pos, patch, c.OutC)
			for f, bf := range c.b.W.Data {
				yf := yi[f*pos : (f+1)*pos]
				for p := range yf {
					yf[p] += bf
				}
			}
			if epi != nil {
				epi(i*ySize, (i+1)*ySize)
			}
		}
	})
	return y, nil
}

// im2col fills cols ([N·P, T]) for every image of x.
func (c *Conv2D) im2col(x, cols *Tensor, n, h, w, oh, ow int) {
	rows := oh * ow * c.InC * c.K * c.K
	parallelFor(n, n*rows, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			c.im2colImage(x.Data, cols.Data[i*rows:(i+1)*rows], i, h, w, oh, ow)
		}
	})
}

// im2colImage writes image i's im2col rows into cols ([P, T]). For each
// output row it sweeps every (channel, kernel row) pair along one
// contiguous input row, copying K taps per output position.
func (c *Conv2D) im2colImage(x, cols []float64, i, h, w, oh, ow int) {
	k, s := c.K, c.Stride
	patch := c.InC * k * k
	for oy := 0; oy < oh; oy++ {
		for ch := 0; ch < c.InC; ch++ {
			for ky := 0; ky < k; ky++ {
				r := ((i*c.InC+ch)*h + oy*s + ky) * w
				src := x[r : r+w]
				dst := cols[oy*ow*patch+(ch*k+ky)*k:]
				// Unrolled taps for the common kernel sizes: a memmove
				// call costs more than 3-5 scalar stores.
				switch k {
				case 3:
					for ox := 0; ox < ow; ox++ {
						sv := src[ox*s : ox*s+3 : ox*s+3]
						d := dst[ox*patch : ox*patch+3 : ox*patch+3]
						d[0], d[1], d[2] = sv[0], sv[1], sv[2]
					}
				case 5:
					for ox := 0; ox < ow; ox++ {
						sv := src[ox*s : ox*s+5 : ox*s+5]
						d := dst[ox*patch : ox*patch+5 : ox*patch+5]
						d[0], d[1], d[2], d[3], d[4] = sv[0], sv[1], sv[2], sv[3], sv[4]
					}
				default:
					for ox := 0; ox < ow; ox++ {
						copy(dst[ox*patch:ox*patch+k], src[ox*s:ox*s+k])
					}
				}
			}
		}
	}
}

func (c *Conv2D) forwardNaive(x *Tensor, n, h, w, oh, ow int) (*Tensor, error) {
	y := NewTensor(n, c.OutC, oh, ow)
	work := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			for f := 0; f < c.OutC; f++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						s := c.b.W.Data[f]
						for ch := 0; ch < c.InC; ch++ {
							for ky := 0; ky < c.K; ky++ {
								for kx := 0; kx < c.K; kx++ {
									xi := ((i*c.InC+ch)*h+(oy*c.Stride+ky))*w + ox*c.Stride + kx
									wi := ((f*c.InC+ch)*c.K+ky)*c.K + kx
									s += x.Data[xi] * c.w.W.Data[wi]
								}
							}
						}
						y.Data[((i*c.OutC+f)*oh+oy)*ow+ox] = s
					}
				}
			}
		}
	}
	parallelFor(n, n*c.OutC*oh*ow*c.InC*c.K*c.K, work)
	return y, nil
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *Tensor) (*Tensor, error) {
	return c.backward(grad, true)
}

// backwardParamsOnly implements noInputGrad: when the layer is first in a
// Sequential, its input gradient is discarded, so the dCols GEMM and the
// col2im scatter — as expensive as the whole forward pass — are skipped.
func (c *Conv2D) backwardParamsOnly(grad *Tensor) error {
	_, err := c.backward(grad, false)
	return err
}

func (c *Conv2D) backward(grad *Tensor, needDX bool) (*Tensor, error) {
	if c.lastX == nil {
		return nil, fmt.Errorf("nn: conv2d backward before forward")
	}
	n, h, w := c.lastX.Shape[0], c.lastX.Shape[2], c.lastX.Shape[3]
	oh, ow := c.outH, c.outW
	pos, patch := oh*ow, c.InC*c.K*c.K

	// Bias gradient.
	for i := 0; i < n; i++ {
		for f := 0; f < c.OutC; f++ {
			base := ((i*c.OutC + f) * oh) * ow
			var s float64
			for p := 0; p < oh*ow; p++ {
				s += grad.Data[base+p]
			}
			c.b.Grad.Data[f] += s
		}
	}

	if c.cols == nil {
		// Naive path: rebuild the im2col matrix for gradient computation.
		cols := getScratch(n*pos, patch)
		c.im2col(c.lastX, cols, n, h, w, oh, ow)
		c.cols = cols
	}

	dw := getScratch(c.OutC, patch)
	convWeightGrad(grad.Data, c.cols.Data, dw.Data, n, c.OutC, pos, patch)
	if err := c.w.Grad.AddScaled(dw, 1); err != nil {
		return nil, err
	}
	releaseScratch(dw)
	releaseScratch(c.cols)
	c.cols = nil
	if !needDX {
		return nil, nil
	}

	// Per image: dcols = grad_iᵀ × W, then col2im into dx_i.
	dx := NewTensor(n, c.InC, h, w)
	gSize, xSize := c.OutC*pos, c.InC*h*w
	parallelFor(n, n*pos*patch*c.OutC, func(i0, i1 int) {
		dcols := getScratch(pos, patch)
		for i := i0; i < i1; i++ {
			gemmTransARows(grad.Data[i*gSize:(i+1)*gSize], c.w.W.Data, dcols.Data, c.OutC, pos, patch, 0, pos)
			c.col2imImage(dcols.Data, dx.Data[i*xSize:(i+1)*xSize], h, w, oh, ow)
		}
		releaseScratch(dcols)
	})
	return dx, nil
}

// convWeightGrad computes dW [F, T] = Σ_q grad(q) ⊗ cols[q] over the
// N·P output positions q, reading grad in its NCHW layout. Each element
// is summed exactly as gemmTransAInto over a [N·P, F] gradient matrix
// would sum it: 4-position blocks in q order (skipped when all four
// gradients are zero), then the remainder positions. Workers own
// disjoint ranges of f, and each streams cols once for its whole range.
func convWeightGrad(grad, cols, dw []float64, n, nf, pos, patch int) {
	m := n * pos
	// g is the gradient of channel f at position q.
	g := func(q, f int) float64 {
		i := q / pos
		return grad[(i*nf+f)*pos+q-i*pos]
	}
	parallelFor(nf, m*nf*patch, func(f0, f1 int) {
		for j := range dw[f0*patch : f1*patch] {
			dw[f0*patch+j] = 0
		}
		q := 0
		for ; q+4 <= m; q += 4 {
			c0 := cols[q*patch : (q+1)*patch]
			c1 := cols[(q+1)*patch : (q+2)*patch]
			c2 := cols[(q+2)*patch : (q+3)*patch]
			c3 := cols[(q+3)*patch : (q+4)*patch]
			i, p := q/pos, q%pos
			for f := f0; f < f1; f++ {
				var g0, g1, g2, g3 float64
				if p+4 <= pos {
					gf := grad[(i*nf+f)*pos+p:]
					g0, g1, g2, g3 = gf[0], gf[1], gf[2], gf[3]
				} else { // the block straddles two images
					g0, g1, g2, g3 = g(q, f), g(q+1, f), g(q+2, f), g(q+3, f)
				}
				if g0 == 0 && g1 == 0 && g2 == 0 && g3 == 0 {
					continue
				}
				axpy4(dw[f*patch:(f+1)*patch], c0, c1, c2, c3, g0, g1, g2, g3)
			}
		}
		for ; q < m; q++ {
			cq := cols[q*patch : (q+1)*patch]
			for f := f0; f < f1; f++ {
				if gv := g(q, f); gv != 0 {
					axpy1(dw[f*patch:(f+1)*patch], cq, gv)
				}
			}
		}
	})
}

// col2imImage scatter-adds one image's dcols ([P, T]) into its dx slice
// ([C, H, W]), the transpose of im2colImage. For any one dx element the
// loop order visits output positions in (oy, ox) order, as a plain
// per-position scatter would, so the sums round identically.
func (c *Conv2D) col2imImage(dcols, dx []float64, h, w, oh, ow int) {
	k, s := c.K, c.Stride
	patch := c.InC * k * k
	for oy := 0; oy < oh; oy++ {
		for ch := 0; ch < c.InC; ch++ {
			for ky := 0; ky < k; ky++ {
				r := (ch*h + oy*s + ky) * w
				dst := dx[r : r+w]
				src := dcols[oy*ow*patch+(ch*k+ky)*k:]
				switch k {
				case 3:
					for ox := 0; ox < ow; ox++ {
						sv := src[ox*patch : ox*patch+3 : ox*patch+3]
						d := dst[ox*s : ox*s+3 : ox*s+3]
						d[0] += sv[0]
						d[1] += sv[1]
						d[2] += sv[2]
					}
				case 5:
					for ox := 0; ox < ow; ox++ {
						sv := src[ox*patch : ox*patch+5 : ox*patch+5]
						d := dst[ox*s : ox*s+5 : ox*s+5]
						d[0] += sv[0]
						d[1] += sv[1]
						d[2] += sv[2]
						d[3] += sv[3]
						d[4] += sv[4]
					}
				default:
					for ox := 0; ox < ow; ox++ {
						sv := src[ox*patch : ox*patch+k]
						d := dst[ox*s : ox*s+k]
						for kx, v := range sv {
							d[kx] += v
						}
					}
				}
			}
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// MaxPool2D is a max pooling layer with square window and equal stride,
// over [N, C, H, W].
type MaxPool2D struct {
	K      int
	argmax []int
	lastIn []int
}

// NewMaxPool2D builds a pool layer with window and stride k.
func NewMaxPool2D(k int) (*MaxPool2D, error) {
	if k <= 1 {
		return nil, fmt.Errorf("nn: maxpool window must be > 1, got %d", k)
	}
	return &MaxPool2D{K: k}, nil
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("nn: maxpool expects [N,C,H,W], got %v", x.Shape)
	}
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/m.K, w/m.K
	if oh == 0 || ow == 0 {
		return nil, fmt.Errorf("nn: maxpool input %dx%d smaller than window %d", h, w, m.K)
	}
	m.lastIn = append(m.lastIn[:0], x.Shape...)
	y := NewTensor(n, ch, oh, ow)
	if cap(m.argmax) < len(y.Data) {
		m.argmax = make([]int, len(y.Data))
	}
	m.argmax = m.argmax[:len(y.Data)]
	for i := 0; i < n*ch; i++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				bestIdx := 0
				for ky := 0; ky < m.K; ky++ {
					for kx := 0; kx < m.K; kx++ {
						idx := (i*h+(oy*m.K+ky))*w + ox*m.K + kx
						if v := x.Data[idx]; v > best {
							best = v
							bestIdx = idx
						}
					}
				}
				o := (i*oh+oy)*ow + ox
				y.Data[o] = best
				m.argmax[o] = bestIdx
			}
		}
	}
	return y, nil
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *Tensor) (*Tensor, error) {
	if len(m.lastIn) == 0 {
		return nil, fmt.Errorf("nn: maxpool backward before forward")
	}
	dx := NewTensor(m.lastIn...)
	for o, src := range m.argmax {
		dx.Data[src] += grad.Data[o]
	}
	return dx, nil
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Conv3D is a valid 3-D convolution over [N, C, T, H, W], used by the "3D"
// DonkeyCar pilot that convolves over short frame sequences. The kernel is
// [F, C, KT, K, K]. This layer is small in practice (T ≤ 4), so it uses the
// direct kernel.
type Conv3D struct {
	InC, OutC, KT, K, Stride int

	w, b  *Param
	lastX *Tensor
	outT  int
	outH  int
	outW  int
}

// NewConv3D builds a 3-D convolution with He initialization.
func NewConv3D(inC, outC, kt, k, stride int, rng *rand.Rand) (*Conv3D, error) {
	if kt <= 0 || k <= 0 || stride <= 0 || inC <= 0 || outC <= 0 {
		return nil, fmt.Errorf("nn: conv3d invalid params")
	}
	c := &Conv3D{InC: inC, OutC: outC, KT: kt, K: k, Stride: stride,
		w: newParam("w", outC, inC, kt, k, k), b: newParam("b", 1, outC)}
	fanIn := float64(inC * kt * k * k)
	c.w.W.RandNormal(rng, math.Sqrt(2.0/fanIn))
	return c, nil
}

// Forward implements Layer.
func (c *Conv3D) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) != 5 || x.Shape[1] != c.InC {
		return nil, fmt.Errorf("nn: conv3d expects [N,%d,T,H,W], got %v", c.InC, x.Shape)
	}
	n, t, h, w := x.Shape[0], x.Shape[2], x.Shape[3], x.Shape[4]
	ot := t - c.KT + 1
	oh := (h-c.K)/c.Stride + 1
	ow := (w-c.K)/c.Stride + 1
	if ot <= 0 || oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: conv3d input %dx%dx%d too small", t, h, w)
	}
	c.lastX, c.outT, c.outH, c.outW = x, ot, oh, ow
	y := NewTensor(n, c.OutC, ot, oh, ow)
	work := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			for f := 0; f < c.OutC; f++ {
				for oz := 0; oz < ot; oz++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							s := c.b.W.Data[f]
							for ch := 0; ch < c.InC; ch++ {
								for kz := 0; kz < c.KT; kz++ {
									for ky := 0; ky < c.K; ky++ {
										for kx := 0; kx < c.K; kx++ {
											xi := (((i*c.InC+ch)*t+(oz+kz))*h+(oy*c.Stride+ky))*w + ox*c.Stride + kx
											wi := (((f*c.InC+ch)*c.KT+kz)*c.K+ky)*c.K + kx
											s += x.Data[xi] * c.w.W.Data[wi]
										}
									}
								}
							}
							y.Data[(((i*c.OutC+f)*ot+oz)*oh+oy)*ow+ox] = s
						}
					}
				}
			}
		}
	}
	parallelFor(n, n*c.OutC*ot*oh*ow*c.InC*c.KT*c.K*c.K, work)
	return y, nil
}

// Backward implements Layer.
func (c *Conv3D) Backward(grad *Tensor) (*Tensor, error) {
	if c.lastX == nil {
		return nil, fmt.Errorf("nn: conv3d backward before forward")
	}
	x := c.lastX
	n, t, h, w := x.Shape[0], x.Shape[2], x.Shape[3], x.Shape[4]
	ot, oh, ow := c.outT, c.outH, c.outW
	dx := NewTensor(n, c.InC, t, h, w)
	for i := 0; i < n; i++ {
		for f := 0; f < c.OutC; f++ {
			for oz := 0; oz < ot; oz++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						g := grad.Data[(((i*c.OutC+f)*ot+oz)*oh+oy)*ow+ox]
						if g == 0 {
							continue
						}
						c.b.Grad.Data[f] += g
						for ch := 0; ch < c.InC; ch++ {
							for kz := 0; kz < c.KT; kz++ {
								for ky := 0; ky < c.K; ky++ {
									for kx := 0; kx < c.K; kx++ {
										xi := (((i*c.InC+ch)*t+(oz+kz))*h+(oy*c.Stride+ky))*w + ox*c.Stride + kx
										wi := (((f*c.InC+ch)*c.KT+kz)*c.K+ky)*c.K + kx
										c.w.Grad.Data[wi] += g * x.Data[xi]
										dx.Data[xi] += g * c.w.W.Data[wi]
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return dx, nil
}

// Params implements Layer.
func (c *Conv3D) Params() []*Param { return []*Param{c.w, c.b} }
