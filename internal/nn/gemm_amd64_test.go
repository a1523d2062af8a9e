package nn

import (
	"fmt"
	"math"
	"math/rand"
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
