package fed

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// keptSet returns the indices EncodeDelta shipped for a one-tensor delta
// whose entries all survive binary16 as nonzero (or NaN).
func keptSet(t *testing.T, vals []float64, frac float64) map[int]bool {
	t.Helper()
	enc := topKCodec{frac: frac}.EncodeDelta([][]float64{vals}, nil)
	kept := map[int]bool{}
	for j, v := range enc.Values[0] {
		if v != 0 || math.IsNaN(v) {
			kept[j] = true
		}
	}
	return kept
}

// TestTopKNaNRanksFirst pins the selection order with a NaN entry: NaN
// ranks above every finite magnitude (its magnitude key exceeds +Inf's),
// and the finite entries keep their |v|-descending order. A comparison
// sort over math.Abs has no consistent order with NaN and drops 2 here.
func TestTopKNaNRanksFirst(t *testing.T) {
	vals := []float64{1, math.NaN(), 2, 3}
	for _, tc := range []struct {
		frac float64
		want []int
	}{
		{0.25, []int{1}},
		{0.5, []int{1, 3}},
		{0.75, []int{1, 3, 2}},
	} {
		kept := keptSet(t, vals, tc.frac)
		if len(kept) != len(tc.want) {
			t.Fatalf("frac %v: kept %v, want indices %v", tc.frac, kept, tc.want)
		}
		for _, j := range tc.want {
			if !kept[j] {
				t.Fatalf("frac %v: kept %v, want indices %v", tc.frac, kept, tc.want)
			}
		}
	}
}

// topKRef is the comparison-sort selection keepTopK replaced, kept as
// the reference for NaN-free inputs: sort indices by |v| descending, then
// index ascending, and quantize the first k.
func topKRef(vals []float64, k int) []float64 {
	idx := make([]int, len(vals))
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := math.Abs(vals[idx[a]]), math.Abs(vals[idx[b]])
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	q := make([]float64, len(vals))
	for _, j := range idx[:k] {
		q[j] = f16Round(vals[j])
	}
	return q
}

// TestTopKMatchesSortReference checks keepTopK against topKRef, bit for
// bit, on random, heavy-tie and signed-zero vectors at every k.
func TestTopKMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	gens := map[string]func() float64{
		"random": func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)) },
		"ties":   func() float64 { return float64(rng.Intn(5)-2) * 0.25 },
		"zeros": func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return 1
			}
			return -1
		},
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 7, 16, 33, 100, 257} {
			vals := make([]float64, n)
			for j := range vals {
				vals[j] = gen()
			}
			keys := make([]uint64, n)
			for k := 0; k <= n; k++ {
				want := topKRef(vals, k)
				got := make([]float64, n)
				keepTopK(vals, got, k, keys)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s n=%d k=%d: entry %d = %v, reference %v (vals %v)",
							name, n, k, j, got[j], want[j], vals)
					}
				}
			}
		}
	}
}
