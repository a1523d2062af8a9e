package nn

// useAVX2 selects the assembly inner loops in gemm_amd64.s. It is set
// once from the CPU's features; tests flip it to compare the two paths.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	// XCR0 bit 1 is SSE (XMM) state, bit 2 AVX (upper YMM) state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// axpy4AVX2 computes c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
// for j in [0, n).
//
//go:noescape
func axpy4AVX2(c, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

// axpy1AVX2 computes c[j] += a*b[j] for j in [0, n).
//
//go:noescape
func axpy1AVX2(c, b *float64, n int, a float64)

// dot4x8AVX2 computes the 4×8 block c[r*ldc+j] = Σ_p a[r*lda+p]*panel[p*8+j]
// for r < 4, j < 8, p < k, accumulating each element from zero in p order.
//
//go:noescape
func dot4x8AVX2(a *float64, lda int, panel *float64, k int, c *float64, ldc int)

// dot4x8TAVX2 computes the same block as dot4x8AVX2 and stores it
// transposed: c[j*ldc+r] for r < 4, j < 8.
//
//go:noescape
func dot4x8TAVX2(a *float64, lda int, panel *float64, k int, c *float64, ldc int)

// axpy4 is the four-k-step inner loop of the A×B kernels; see axpy4Go.
// Rows shorter than one vector stay in Go, where no call overhead is
// paid; the assembly needs at least one element either way.
func axpy4(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	if !useAVX2 || len(c) < 4 {
		axpy4Go(c, b0, b1, b2, b3, a0, a1, a2, a3)
		return
	}
	n := len(c)
	_, _, _, _ = b0[n-1], b1[n-1], b2[n-1], b3[n-1]
	axpy4AVX2(&c[0], &b0[0], &b1[0], &b2[0], &b3[0], n, a0, a1, a2, a3)
}

// axpy1 is the k-remainder step of the A×B kernels; see axpy1Go.
func axpy1(c, b []float64, a float64) {
	if !useAVX2 || len(c) < 4 {
		axpy1Go(c, b, a)
		return
	}
	n := len(c)
	_ = b[n-1]
	axpy1AVX2(&c[0], &b[0], n, a)
}

// gemmTransBTile computes the C tile [i0:i1) × [j0:j1) of C = A×Bᵀ,
// storing element (i, j) at c[i*ldc+j], or at c[j*ldc+i] when trans is
// set. With AVX2 it packs each 8-column panel of Bᵀ into scratch and
// sweeps it with the 4×8 register tile; edge rows and columns take
// gemmTransBTileGo.
func gemmTransBTile(a, b, c []float64, k, ldc int, trans bool, i0, i1, j0, j1 int) {
	if !useAVX2 || k == 0 || i1-i0 < 4 || j1-j0 < 8 {
		gemmTransBTileGo(a, b, c, k, ldc, trans, i0, i1, j0, j1)
		return
	}
	i4 := i0 + (i1-i0)&^3
	j8 := j0 + (j1-j0)&^7
	// The assembly reads rows [i0, i4) of A and writes the elements
	// [i0, i4) × [j0, j8) of C: bound-check the last of each here.
	_ = a[i4*k-1]
	rs, cs := ldc, 1 // C strides along i and j
	if trans {
		rs, cs = 1, ldc
	}
	_ = c[(i4-1)*rs+(j8-1)*cs]
	scratch := getScratch(8 * k)
	panel := scratch.Data
	for j := j0; j < j8; j += 8 {
		for jj := 0; jj < 8; jj++ {
			bj := b[(j+jj)*k : (j+jj+1)*k]
			for p, v := range bj {
				panel[p*8+jj] = v
			}
		}
		for i := i0; i < i4; i += 4 {
			if trans {
				dot4x8TAVX2(&a[i*k], k, &panel[0], k, &c[j*ldc+i], ldc)
			} else {
				dot4x8AVX2(&a[i*k], k, &panel[0], k, &c[i*ldc+j], ldc)
			}
		}
	}
	releaseScratch(scratch)
	gemmTransBTileGo(a, b, c, k, ldc, trans, i4, i1, j0, j8)
	gemmTransBTileGo(a, b, c, k, ldc, trans, i0, i1, j8, j1)
}

// adamAVX2 runs adamUpdateGo's update on elements [0, n) of the four
// arrays, four at a time; n must be a multiple of 4.
//
//go:noescape
func adamAVX2(w, grad, m, v *float64, n int, k *adamCoef)

// adamUpdate is Adam's per-element update; see adamUpdateGo. The
// assembly takes whole vectors and Go the remaining elements.
func adamUpdate(w, g, m, v []float64, k adamCoef) {
	n4 := 0
	if useAVX2 {
		n4 = len(w) &^ 3
	}
	if n4 > 0 {
		_, _, _ = g[n4-1], m[n4-1], v[n4-1]
		adamAVX2(&w[0], &g[0], &m[0], &v[0], n4, &k)
	}
	adamUpdateGo(w[n4:], g[n4:], m[n4:], v[n4:], k)
}

// reluAVX2 runs reluIntoGo on elements [0, n) of y and mask, four at a
// time; n must be a multiple of 4.
//
//go:noescape
func reluAVX2(y *float64, mask *bool, n int)

// reluMaskAVX2 runs reluMaskGo on elements [0, n) of grad and mask, four
// at a time; n must be a multiple of 4.
//
//go:noescape
func reluMaskAVX2(grad *float64, mask *bool, n int)

// reluInto is the ReLU forward; see reluIntoGo.
func reluInto(y []float64, mask []bool) {
	n4 := 0
	if useAVX2 {
		n4 = len(y) &^ 3
	}
	if n4 > 0 {
		_ = mask[n4-1]
		reluAVX2(&y[0], &mask[0], n4)
	}
	reluIntoGo(y[n4:], mask[n4:])
}

// reluMask is the ReLU backward; see reluMaskGo.
func reluMask(g []float64, mask []bool) {
	n4 := 0
	if useAVX2 {
		n4 = len(g) &^ 3
	}
	if n4 > 0 {
		_ = mask[n4-1]
		reluMaskAVX2(&g[0], &mask[0], n4)
	}
	reluMaskGo(g[n4:], mask[n4:])
}
