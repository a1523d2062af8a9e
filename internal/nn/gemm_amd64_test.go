package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fillOperand fills x, viewed as rows of length k: plain normals, or —
// with special set — a mix of special values and whole zero blocks of
// four along each row, the k-blocks the A×B kernels skip.
func fillOperand(rng *rand.Rand, x []float64, k int, special bool) {
	for i := range x {
		if special {
			x[i] = specialValue(rng)
		} else {
			x[i] = rng.NormFloat64()
		}
	}
	if !special || k == 0 {
		return
	}
	for r := 0; r < len(x)/k; r++ {
		for p := 0; p+4 <= k; p += 4 {
			if rng.Intn(3) == 0 {
				for q := p; q < p+4; q++ {
					x[r*k+q] = 0
				}
			}
		}
	}
}

// transpose returns the [cols,rows] transpose of the row-major x.
func transpose(x []float64, rows, cols int) []float64 {
	t := make([]float64, len(x))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t[c*rows+r] = x[r*cols+c]
		}
	}
	return t
}

// gemmKernels runs each of the raw kernels for an m×k×n problem. The
// operand layouts follow the kernels: A is [m,k] (or [k,m] for Aᵀ×B), B
// is [k,n] (or [n,k] for A×Bᵀ); gemmTransBT writes C as [n,m].
var gemmKernels = []struct {
	name string
	run  func(a, b, bias, c []float64, m, k, n int)
}{
	{"gemmInto", func(a, b, _, c []float64, m, k, n int) { gemmInto(a, b, c, m, k, n) }},
	{"gemmBiasInto", func(a, b, bias, c []float64, m, k, n int) { gemmBiasInto(a, b, bias, c, m, k, n, nil) }},
	{"gemmTransAInto", func(a, b, _, c []float64, m, k, n int) { gemmTransAInto(a, b, c, k, m, n) }},
	{"gemmTransBInto", func(a, b, _, c []float64, m, k, n int) { gemmTransBInto(a, b, c, m, k, n) }},
	{"gemmTransBT", func(a, b, _, c []float64, m, k, n int) { gemmTransBT(a, b, c, m, k, n) }},
}

// TestGEMMAVX2MatchesGo runs every kernel with the AVX2 inner loops and
// with the Go loops and requires bit-identical outputs over a shape grid
// that straddles the 4-wide vectors, the 4×8 register tile and the 64
// tile, on plain and special-value inputs.
func TestGEMMAVX2MatchesGo(t *testing.T) {
	if !hasAVX2() {
		t.Skip("CPU lacks AVX2: the Go kernels are the only path")
	}
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 64, 65}
	ks := []int{0, 1, 3, 4, 5, 25, 72}
	rng := rand.New(rand.NewSource(14))
	for _, kern := range gemmKernels {
		for _, m := range dims {
			for _, n := range dims {
				for _, k := range ks {
					for _, special := range []bool{false, true} {
						a := make([]float64, m*k)
						b := make([]float64, k*n)
						bias := make([]float64, n)
						fillOperand(rng, a, k, special)
						if kern.name == "gemmTransAInto" {
							a = transpose(a, m, k)
						}
						bRow := n
						if kern.name == "gemmTransBInto" || kern.name == "gemmTransBT" {
							bRow = k
						}
						fillOperand(rng, b, bRow, special)
						fillOperand(rng, bias, n, special)
						var out [2][]float64
						for i, avx := range []bool{true, false} {
							useAVX2 = avx
							out[i] = make([]float64, m*n)
							for j := range out[i] {
								out[i][j] = math.NaN() // kernels overwrite C
							}
							kern.run(a, b, bias, out[i], m, k, n)
						}
						for j := range out[0] {
							if !sameBits(out[0][j], out[1][j]) {
								t.Fatalf("%s m=%d k=%d n=%d special=%v: element %d: AVX2 %v (%#x), Go %v (%#x)",
									kern.name, m, k, n, special, j,
									out[0][j], math.Float64bits(out[0][j]),
									out[1][j], math.Float64bits(out[1][j]))
							}
						}
					}
				}
			}
		}
	}
}

// TestConv2DMatchesRefGo repeats TestConv2DMatchesRef on the Go loops,
// the path of hosts without AVX2.
func TestConv2DMatchesRefGo(t *testing.T) {
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	useAVX2 = false
	checkConv2DMatchesRef(t)
}

// BenchmarkGEMMPaths compares the AVX2 and Go paths of each kernel,
// single-threaded, on the dense head panel and the training shapes of
// kerneltest's BenchmarkGEMM (m×k×n).
func BenchmarkGEMMPaths(b *testing.B) {
	if !hasAVX2() {
		b.Skip("CPU lacks AVX2")
	}
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	defer SetMaxWorkers(SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(1))
	for _, s := range [][3]int{{64, 576, 50}, {21120, 25, 8}, {4480, 72, 16}, {32, 2240, 64}} {
		m, k, n := s[0], s[1], s[2]
		a := make([]float64, m*k)
		bm := make([]float64, k*n)
		bias := make([]float64, n)
		c := make([]float64, m*n)
		fillOperand(rng, a, k, false)
		fillOperand(rng, bm, n, false)
		for _, kern := range gemmKernels {
			for _, avx := range []bool{true, false} {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/avx2=%v", kern.name, m, k, n, avx), func(b *testing.B) {
					useAVX2 = avx
					for i := 0; i < b.N; i++ {
						kern.run(a, bm, bias, c, m, k, n)
					}
				})
			}
		}
	}
}

// TestAdamAVX2MatchesGo runs Adam's update with the AVX2 kernel and
// with the Go loop on special-value parameters, gradients and moments,
// over lengths that straddle the 4-wide vector, for several steps of
// real coefficients, and requires bit-identical results in all four
// arrays. A quarter of the values are NaNs with random payloads; which
// payload survives where two NaNs meet depends on the compiler's operand
// order, so a NaN only has to meet a NaN, as in TestGEMMAVX2MatchesGo.
func TestAdamAVX2MatchesGo(t *testing.T) {
	if !hasAVX2() {
		t.Skip("CPU lacks AVX2: the Go loop is the only path")
	}
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	useAVX2 = true
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 3, 4, 5, 7, 8, 13, 64, 65} {
		var got, want [4][]float64
		for a := range got {
			got[a] = make([]float64, n)
			for i := range got[a] {
				got[a][i] = specialValue(rng)
				if rng.Intn(4) == 0 {
					got[a][i] = math.Float64frombits(0x7ff8<<48 | uint64(rng.Intn(2))<<63 | uint64(rng.Int63n(1<<51)))
				}
			}
			want[a] = slices.Clone(got[a])
		}
		for step := 1; step <= 3; step++ {
			bc1, bc2 := 1-math.Pow(0.9, float64(step)), 1-math.Pow(0.999, float64(step))
			k := adamCoef{b1: 0.9, c1: 1 - 0.9, b2: 0.999, c2: 1 - 0.999,
				step: 1e-3 / bc1, invBC2: 1 / bc2, eps: 1e-8}
			adamUpdate(got[0], got[1], got[2], got[3], k)
			adamUpdateGo(want[0], want[1], want[2], want[3], k)
			for a, name := range []string{"w", "g", "m", "v"} {
				for i := range got[a] {
					if !sameBits(got[a][i], want[a][i]) {
						t.Fatalf("n=%d step %d: %s[%d]: AVX2 %v (%#x), Go %v (%#x)", n, step, name, i,
							got[a][i], math.Float64bits(got[a][i]), want[a][i], math.Float64bits(want[a][i]))
					}
				}
			}
		}
	}
}

// TestFusedReLUAVX2MatchesGo runs a Dense layer with its ReLU fused into
// the GEMM epilogue, forward and backward, on special-value inputs with
// the AVX2 and the Go GEMM loops, and requires both to match the branchy
// rectifier applied to the layer's unfused output bit for bit.
func TestFusedReLUAVX2MatchesGo(t *testing.T) {
	if !hasAVX2() {
		t.Skip("CPU lacks AVX2: the Go kernels are the only path")
	}
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	rng := rand.New(rand.NewSource(18))
	d := NewDense(9, 13, rng)
	fillOperand(rng, d.w.W.Data, 13, true)
	fillOperand(rng, d.b.W.Data, 13, true)
	x := NewTensor(6, 9)
	fillOperand(rng, x.Data, 9, true)
	grad := NewTensor(6, 13)
	fillOperand(rng, grad.Data, 13, true)
	for _, avx := range []bool{true, false} {
		useAVX2 = avx
		plain, err := d.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		wantY, wantG := reluBranchy(plain.Data, grad.Data)
		relu := &ReLU{}
		y, err := NewSequential(d, relu).Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		g, err := relu.Backward(grad.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantY {
			if math.Float64bits(y.Data[i]) != math.Float64bits(wantY[i]) ||
				math.Float64bits(g.Data[i]) != math.Float64bits(wantG[i]) {
				t.Fatalf("avx2=%v element %d: y %#x g %#x, want y %#x g %#x", avx, i,
					math.Float64bits(y.Data[i]), math.Float64bits(g.Data[i]),
					math.Float64bits(wantY[i]), math.Float64bits(wantG[i]))
			}
		}
	}
}

// TestReLUAVX2MatchesGo runs the ReLU forward and backward kernels with
// AVX2 and with the Go loops on special values, NaNs of every payload
// included, over lengths that straddle the 4-wide vector, and requires
// the same bits and the same mask.
func TestReLUAVX2MatchesGo(t *testing.T) {
	if !hasAVX2() {
		t.Skip("CPU lacks AVX2: the Go loops are the only path")
	}
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	useAVX2 = true
	rng := rand.New(rand.NewSource(21))
	for k, n := range []int{64, 1, 3, 4, 5, 7, 8, 13, 64, 65} {
		y := make([]float64, n)
		for i := range y {
			y[i] = specialValue(rng)
			if rng.Intn(4) == 0 {
				y[i] = math.Float64frombits(0x7ff<<52 | uint64(rng.Intn(2))<<63 | uint64(rng.Int63n(1<<52-1)+1))
			}
		}
		if k == 0 {
			// Every one of the 16 keep patterns of a 4-wide vector.
			for i := range y {
				y[i] = 1 - 2*float64(i/4>>(i%4)&1)
			}
		}
		g := slices.Clone(y)
		rng.Shuffle(n, func(i, j int) { g[i], g[j] = g[j], g[i] })
		wantY, wantG := slices.Clone(y), slices.Clone(g)
		mask, wantMask := make([]bool, n), make([]bool, n)
		for i := range mask {
			mask[i], wantMask[i] = i%2 == 0, i%3 == 0 // stale masks must be overwritten
		}
		reluInto(y, mask)
		reluIntoGo(wantY, wantMask)
		reluMask(g, mask)
		reluMaskGo(wantG, wantMask)
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(wantY[i]) || mask[i] != wantMask[i] ||
				math.Float64bits(g[i]) != math.Float64bits(wantG[i]) {
				t.Fatalf("n=%d element %d: AVX2 y %#x mask %v g %#x, Go y %#x mask %v g %#x", n, i,
					math.Float64bits(y[i]), mask[i], math.Float64bits(g[i]),
					math.Float64bits(wantY[i]), wantMask[i], math.Float64bits(wantG[i]))
			}
		}
	}
}
