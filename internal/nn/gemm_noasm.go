//go:build !amd64

package nn

// Hosts without the amd64 assembly run the Go kernels in gemm.go,
// optimizer.go and layer.go.

func axpy4(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4Go(c, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy1(c, b []float64, a float64) { axpy1Go(c, b, a) }

func gemmTransBTile(a, b, c []float64, k, ldc int, trans bool, i0, i1, j0, j1 int) {
	gemmTransBTileGo(a, b, c, k, ldc, trans, i0, i1, j0, j1)
}

func adamUpdate(w, g, m, v []float64, k adamCoef) { adamUpdateGo(w, g, m, v, k) }

func reluInto(y []float64, mask []bool) { reluIntoGo(y, mask) }

func reluMask(g []float64, mask []bool) { reluMaskGo(g, mask) }
