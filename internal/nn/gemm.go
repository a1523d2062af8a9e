package nn

// Cache-blocked, register-tiled GEMM kernels for the three layouts the
// layers need (C = A×B, C = Aᵀ×B, C = A×Bᵀ), plus fused bias/epilogue
// variants for the Dense hot path. Each optimized kernel keeps its naive
// sibling (MatMulRef and friends) as the reference implementation; the
// nn/kerneltest package cross-checks the pair over a shape × worker grid
// and go-fuzz targets.
//
// Determinism contract: for a fixed shape, every output element is
// accumulated in the same k-order by exactly one goroutine, so results
// are bitwise identical across worker counts and across runs. The tiled
// kernels may round differently from the naive references (partial-sum
// grouping), but the difference is bounded well below 1e-12 for
// unit-scale data, which kerneltest asserts.
//
// On amd64 hosts with AVX2 the inner loops (axpy4, axpy1 and the 4×8
// tile of gemmTransBTile) run as assembly, chosen from the CPU feature
// alone (gemm_amd64.go). The assembly issues the same IEEE operation
// sequence as the Go code in this file: separate multiplies and adds
// (VMULPD then VADDPD, never FMA), grouped as the Go expressions group
// them, in the same k-order per element. The two paths therefore agree
// bit for bit, which gemm_amd64_test.go checks; the Go code here is the
// only path on other hosts.
//
// The A×Bᵀ tile can also store C transposed (gemmTransBT), which lets
// Conv2D write its [F, positions] NCHW output straight from the im2col
// GEMM. The transposed 4×8 tile (dot4x8TAVX2) runs the same k-loop into
// the same eight accumulators as the row-major one, then moves each 4×4
// quarter through an in-register transpose (unpack and lane permute,
// which copy values without arithmetic) before storing. Only where each
// element lands changes, never how it is summed, so the transposed
// result is bit for bit the transpose of gemmTransBInto's.

const (
	// gemmTileM × gemmTileN is the C tile each parallel work unit owns in
	// the A×Bᵀ kernel: the tile's A and B row panels (tile × k floats
	// each) stay L1/L2-resident while the 2×4 register micro-kernel
	// sweeps the tile.
	gemmTileM = 64
	gemmTileN = 64
)

// gemmInto computes C = A×B on raw row-major buffers (overwrite, not
// accumulate): A is [m,k], B is [k,n], C is [m,n]. The inner kernel
// processes four k-steps per pass so each C row is loaded and stored
// n/4 times less than the naive ikj loop.
func gemmInto(a, b, c []float64, m, k, n int) {
	work := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			ai := a[i*k : (i+1)*k]
			ci := c[i*n : (i+1)*n]
			for j := range ci {
				ci[j] = 0
			}
			p := 0
			for ; p+4 <= k; p += 4 {
				av0, av1, av2, av3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
				if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
					continue
				}
				b0 := b[p*n : (p+1)*n]
				b1 := b[(p+1)*n : (p+2)*n]
				b2 := b[(p+2)*n : (p+3)*n]
				b3 := b[(p+3)*n : (p+4)*n]
				axpy4(ci, b0, b1, b2, b3, av0, av1, av2, av3)
			}
			for ; p < k; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				axpy1(ci, b[p*n:(p+1)*n], av)
			}
		}
	}
	parallelFor(m, m*k*n, work)
}

// axpy4Go computes c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j],
// the four-k-step inner loop of the A×B kernels.
func axpy4Go(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	for j := range c {
		c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// axpy1Go computes c[j] += a*b[j], the k-remainder step.
func axpy1Go(c, b []float64, a float64) {
	for j := range c {
		c[j] += a * b[j]
	}
}

// gemmBiasInto computes C = A×B + bias (bias broadcast across rows) and
// then applies epi — when non-nil — to each completed row range while it
// is still cache-hot. epi receives the flat [lo, hi) index range of C it
// must process; ranges from concurrent workers never overlap.
func gemmBiasInto(a, b, bias, c []float64, m, k, n int, epi func(lo, hi int)) {
	work := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			ai := a[i*k : (i+1)*k]
			ci := c[i*n : (i+1)*n]
			copy(ci, bias)
			p := 0
			for ; p+4 <= k; p += 4 {
				av0, av1, av2, av3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
				if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
					continue
				}
				b0 := b[p*n : (p+1)*n]
				b1 := b[(p+1)*n : (p+2)*n]
				b2 := b[(p+2)*n : (p+3)*n]
				b3 := b[(p+3)*n : (p+4)*n]
				axpy4(ci, b0, b1, b2, b3, av0, av1, av2, av3)
			}
			for ; p < k; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				axpy1(ci, b[p*n:(p+1)*n], av)
			}
		}
		if epi != nil {
			epi(i0*n, i1*n)
		}
	}
	parallelFor(m, m*k*n, work)
}

// gemmTransAInto computes C = Aᵀ×B (overwrite) for A [k,m], B [k,n],
// C [m,n]. Workers own disjoint row blocks of C and sweep all of A/B, so
// the k-order per element is fixed regardless of worker count.
func gemmTransAInto(a, b, c []float64, k, m, n int) {
	parallelFor(m, m*k*n, func(i0, i1 int) {
		gemmTransARows(a, b, c, k, m, n, i0, i1)
	})
}

// gemmTransARows computes rows [i0, i1) of C = Aᵀ×B, serially. The
// column of A is read with stride m; four k-steps per pass keep the
// active B rows in L1.
func gemmTransARows(a, b, c []float64, k, m, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		ci := c[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			av0 := a[p*m+i]
			av1 := a[(p+1)*m+i]
			av2 := a[(p+2)*m+i]
			av3 := a[(p+3)*m+i]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			b0 := b[p*n : (p+1)*n]
			b1 := b[(p+1)*n : (p+2)*n]
			b2 := b[(p+2)*n : (p+3)*n]
			b3 := b[(p+3)*n : (p+4)*n]
			axpy4(ci, b0, b1, b2, b3, av0, av1, av2, av3)
		}
		for ; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			axpy1(ci, b[p*n:(p+1)*n], av)
		}
	}
}

// gemmTransBInto computes C = A×Bᵀ (overwrite) for A [m,k], B [n,k],
// C [m,n]. The output is 2-D-tiled into gemmTileM × gemmTileN blocks
// scheduled across workers (instead of whole-row chunks), and rows of A
// and B are both contiguous, so inside a tile the kernel register-tiles
// 2×4 output elements: each pass loads two A rows and four B rows once
// and feeds eight dot-product accumulators.
func gemmTransBInto(a, b, c []float64, m, k, n int) {
	mt := (m + gemmTileM - 1) / gemmTileM
	nt := (n + gemmTileN - 1) / gemmTileN
	parallelForTiles(mt, nt, m*k*n, func(ti, tj int) {
		i0, i1 := ti*gemmTileM, (ti+1)*gemmTileM
		if i1 > m {
			i1 = m
		}
		j0, j1 := tj*gemmTileN, (tj+1)*gemmTileN
		if j1 > n {
			j1 = n
		}
		gemmTransBTile(a, b, c, k, n, false, i0, i1, j0, j1)
	})
}

// gemmTransBT computes C = A×Bᵀ for A [m,k], B [n,k] and stores it
// transposed, as C [n,m], serially: the caller parallelizes over
// independent problems (Conv2D over images).
func gemmTransBT(a, b, c []float64, m, k, n int) {
	gemmTransBTile(a, b, c, k, m, true, 0, m, 0, n)
}

// gemmTransBTileGo computes the C tile [i0:i1) × [j0:j1) of C = A×Bᵀ,
// storing element (i, j) at c[i*ldc+j], or at c[j*ldc+i] when trans is
// set. Every element is s = 0; s += a[i][p]*b[j][p] for p = 0..k-1.
func gemmTransBTileGo(a, b, c []float64, k, ldc int, trans bool, i0, i1, j0, j1 int) {
	rs, cs := ldc, 1 // C strides along i and j
	if trans {
		rs, cs = 1, ldc
	}
	i := i0
	for ; i+2 <= i1; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		j := j0
		for ; j+4 <= j1; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for p := 0; p < k; p++ {
				av0, av1 := a0[p], a1[p]
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			o0, o1 := i*rs+j*cs, (i+1)*rs+j*cs
			c[o0], c[o0+cs], c[o0+2*cs], c[o0+3*cs] = s00, s01, s02, s03
			c[o1], c[o1+cs], c[o1+2*cs], c[o1+3*cs] = s10, s11, s12, s13
		}
		for ; j < j1; j++ {
			bj := b[j*k : (j+1)*k]
			var s0, s1 float64
			for p := 0; p < k; p++ {
				s0 += a0[p] * bj[p]
				s1 += a1[p] * bj[p]
			}
			c[i*rs+j*cs], c[(i+1)*rs+j*cs] = s0, s1
		}
	}
	for ; i < i1; i++ {
		ai := a[i*k : (i+1)*k]
		j := j0
		for ; j+4 <= j1; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p := 0; p < k; p++ {
				av := ai[p]
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			o := i*rs + j*cs
			c[o], c[o+cs], c[o+2*cs], c[o+3*cs] = s0, s1, s2, s3
		}
		for ; j < j1; j++ {
			bj := b[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += ai[p] * bj[p]
			}
			c[i*rs+j*cs] = s
		}
	}
}

// ---------------------------------------------------------------------
// Naive reference kernels. These are the original triple-loop
// implementations, kept verbatim as the ground truth the optimized
// kernels are cross-checked against (nn/kerneltest). They run
// single-threaded so their accumulation order is the plain 0..k-1 scan.

// MatMulRef is the naive reference for MatMul.
func MatMulRef(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, errMatMulShape(a, b)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, errMatMulInner(k, k2)
	}
	c := NewTensor(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += av * bp[j]
			}
		}
	}
	return c, nil
}

// MatMulTransARef is the naive reference for MatMulTransA.
func MatMulTransARef(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, errMatMulShape(a, b)
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, errMatMulInner(k, k2)
	}
	c := NewTensor(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := ap[i]
			if av == 0 {
				continue
			}
			ci := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += av * bp[j]
			}
		}
	}
	return c, nil
}

// MatMulTransBRef is the naive reference for MatMulTransB.
func MatMulTransBRef(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, errMatMulShape(a, b)
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, errMatMulInner(k, k2)
	}
	c := NewTensor(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += ai[p] * bj[p]
			}
			ci[j] = s
		}
	}
	return c, nil
}
