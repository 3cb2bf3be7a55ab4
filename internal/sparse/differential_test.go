package sparse

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// rankLess reports whether element (i of dense) outranks element j under
// the deterministic top-k order: larger rankKey first, smaller index on
// ties. Total and strict for i != j, so selection results are unique.
func rankLess(dense []float64, i, j int) bool {
	ki, kj := rankKey(dense[i]), rankKey(dense[j])
	if ki != kj {
		return ki > kj
	}
	return i < j
}

// TopKHeap is the reference top-k selection via a size-k min-heap,
// returning the same deterministic ordering as TopK.
func TopKHeap(dense []float64, k int) Vec {
	d := len(dense)
	if k <= 0 || d == 0 {
		return Vec{}
	}
	if k > d {
		k = d
	}
	h := &rankHeap{dense: dense}
	for i := 0; i < d; i++ {
		if h.Len() < k {
			heap.Push(h, i)
			continue
		}
		// Replace the heap's weakest element when i outranks it.
		if rankLess(dense, i, h.idx[0]) {
			h.idx[0] = i
			heap.Fix(h, 0)
		}
	}
	sel := h.idx
	sort.Slice(sel, func(a, b int) bool { return rankLess(dense, sel[a], sel[b]) })
	v := Vec{Idx: make([]int, len(sel)), Val: make([]float64, len(sel))}
	for i, ix := range sel {
		v.Idx[i] = ix
		v.Val[i] = dense[ix]
	}
	return v
}

// rankHeap is a min-heap by rank (weakest element at the root).
type rankHeap struct {
	dense []float64
	idx   []int
}

func (h *rankHeap) Len() int           { return len(h.idx) }
func (h *rankHeap) Less(a, b int) bool { return rankLess(h.dense, h.idx[b], h.idx[a]) }
func (h *rankHeap) Swap(a, b int)      { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *rankHeap) Push(x any)         { h.idx = append(h.idx, x.(int)) }
func (h *rankHeap) Pop() any {
	n := len(h.idx)
	x := h.idx[n-1]
	h.idx = h.idx[:n-1]
	return x
}

// requireSameVec asserts two selections are identical element by element,
// values bit for bit (so NaNs and signed zeros compare too).
func requireSameVec(t *testing.T, label string, a, b Vec) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: lengths %d vs %d", label, a.Len(), b.Len())
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			t.Fatalf("%s: element %d: (%d, %v) vs (%d, %v)",
				label, i, a.Idx[i], a.Val[i], b.Idx[i], b.Val[i])
		}
	}
}

// TestTopKDifferentialRandom cross-checks the radix TopK against the
// heap reference on continuous random vectors across a spread of sizes,
// including k near 0, near d, and beyond d.
func TestTopKDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{1, 2, 17, 256, 1000, 4096} {
		dense := make([]float64, d)
		for i := range dense {
			dense[i] = rng.NormFloat64()
		}
		for _, k := range []int{0, 1, 2, d / 3, d - 1, d, d + 5} {
			requireSameVec(t, "random", TopK(dense, k), TopKHeap(dense, k))
		}
	}
}

// TestTopKDifferentialTieHeavy is the same cross-check on vectors drawn
// from a tiny value alphabet, so almost every |value| comparison is a tie
// and selection is decided by the index tiebreak — the case where a
// partition or heap-order bug would silently reorder results.
func TestTopKDifferentialTieHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	alphabets := [][]float64{
		{0},                    // all ties at zero
		{1, -1},                // one |value| level
		{0, 0.5, -0.5, 1, -1},  // few levels, signs mixed
		{2, 2, 2, -2, 0, 1e-9}, // dominant level plus noise floor
	}
	for _, alpha := range alphabets {
		for _, d := range []int{5, 64, 777, 2048} {
			dense := make([]float64, d)
			for i := range dense {
				dense[i] = alpha[rng.Intn(len(alpha))]
			}
			for _, k := range []int{1, 2, d / 2, d - 1, d} {
				requireSameVec(t, "tie-heavy", TopK(dense, k), TopKHeap(dense, k))
			}
		}
	}
}

// TestTopKDifferentialFuzz sweeps random (d, k, tie-density) triples so
// the two implementations are compared far beyond the fixed grids above.
func TestTopKDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 500; trial++ {
		d := 1 + rng.Intn(300)
		dense := make([]float64, d)
		// levels controls tie density: 1 level = all tied, many = mostly
		// distinct.
		levels := 1 + rng.Intn(12)
		for i := range dense {
			dense[i] = float64(rng.Intn(2*levels+1)-levels) / float64(levels)
		}
		k := rng.Intn(d + 2)
		requireSameVec(t, "fuzz", TopK(dense, k), TopKHeap(dense, k))
	}
}
