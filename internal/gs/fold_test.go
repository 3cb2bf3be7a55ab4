package gs

import (
	"math"
	"testing"

	"fedsparse/internal/sparse"
)

func TestFoldStaleMasksAndAccounts(t *testing.T) {
	uploads := []ClientUpload{
		{Pairs: sparse.Vec{Idx: []int{0, 2}, Val: []float64{3, 4}}, Weight: 1},
		{Pairs: sparse.Vec{Idx: []int{1}, Val: []float64{2}}, Weight: 2},
		{Pairs: sparse.Vec{Idx: []int{5}, Val: []float64{-6}}, Weight: 3},
	}
	admitted := []bool{true, false, false}
	stale, norm := FoldStale(uploads, admitted)
	if stale != 2 {
		t.Fatalf("stale = %d, want 2", stale)
	}
	want := math.Sqrt(2*2 + 6*6)
	if norm != want {
		t.Fatalf("residual norm = %v, want %v", norm, want)
	}
	if uploads[0].Pairs.Len() != 2 {
		t.Fatalf("admitted upload was masked: %v", uploads[0].Pairs)
	}
	for pi := 1; pi < 3; pi++ {
		if uploads[pi].Pairs.Len() != 0 {
			t.Fatalf("upload %d not masked: %v", pi, uploads[pi].Pairs)
		}
		if uploads[pi].Weight == 0 {
			t.Fatalf("upload %d lost its weight", pi)
		}
	}
}

func TestFoldStaleNilAndAllAdmitted(t *testing.T) {
	uploads := []ClientUpload{
		{Pairs: sparse.Vec{Idx: []int{0}, Val: []float64{1}}, Weight: 1},
	}
	if stale, norm := FoldStale(uploads, nil); stale != 0 || norm != 0 {
		t.Fatalf("nil admitted folded %d/%v", stale, norm)
	}
	if stale, norm := FoldStale(uploads, []bool{true}); stale != 0 || norm != 0 {
		t.Fatalf("all-admitted folded %d/%v", stale, norm)
	}
	if uploads[0].Pairs.Len() != 1 {
		t.Fatalf("admitted upload was masked")
	}
	// An already-empty non-admitted upload is masked without counting as
	// a folded slice (no mass moved).
	empty := []ClientUpload{{Weight: 1}}
	if stale, norm := FoldStale(empty, []bool{false}); stale != 0 || norm != 0 {
		t.Fatalf("empty upload counted as stale: %d/%v", stale, norm)
	}
}

// sameEdge reports whether got is want bit for bit, or both are NaN (a
// NaN's payload is the hardware's choice, not the code's).
func sameEdge(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// TestFoldStaleEdgeValues pins what a folded upload of non-finite, −0 and
// subnormal values reports, so a later clip policy shows up as a diff:
// NaN and ±Inf reach the residual norm unclipped, and the squares of
// subnormals underflow, so their folded mass reads as 0.
func TestFoldStaleEdgeValues(t *testing.T) {
	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	for _, tc := range []struct {
		name string
		vals []float64 // the folded upload's values
		norm float64
	}{
		{"NaN", []float64{1, math.NaN()}, math.NaN()},
		{"+Inf", []float64{math.Inf(1), 2}, math.Inf(1)},
		{"-Inf", []float64{-3, math.Inf(-1)}, math.Inf(1)},
		{"+Inf and -Inf", []float64{math.Inf(1), math.Inf(-1)}, math.Inf(1)},
		{"NaN beside Inf", []float64{math.Inf(1), math.NaN()}, math.NaN()},
		{"-0", []float64{negZero}, 0},
		{"subnormals", []float64{tiny, -1e-310}, 0},
		{"subnormal beside normals", []float64{1e-310, 3, -4}, 5},
		{"the smallest normal", []float64{0x1p-1022}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx := make([]int, len(tc.vals))
			for i := range idx {
				idx[i] = 1 + i
			}
			uploads := []ClientUpload{
				{Pairs: sparse.Vec{Idx: []int{0}, Val: []float64{negZero}}, Weight: 1},
				{Pairs: sparse.Vec{Idx: idx, Val: tc.vals}, Weight: 2},
			}
			stale, norm := FoldStale(uploads, []bool{true, false})
			if stale != 1 || !sameEdge(norm, tc.norm) {
				t.Fatalf("folded %d with norm %v (%#x), want 1 with %v", stale, norm, math.Float64bits(norm), tc.norm)
			}
			if uploads[0].Pairs.Len() != 1 || uploads[1].Pairs.Len() != 0 || uploads[1].Weight != 2 {
				t.Fatalf("uploads after the fold: %+v", uploads)
			}
		})
	}
}

// BenchmarkFoldStale gates the fold-in's zero-allocation discipline:
// the bounded-staleness seal runs it every round on the hot path.
func BenchmarkFoldStale(b *testing.B) {
	const n, k = 100, 64
	uploads := make([]ClientUpload, n)
	idx := make([][]int, n)
	val := make([][]float64, n)
	admitted := make([]bool, n)
	for ci := range uploads {
		idx[ci] = make([]int, k)
		val[ci] = make([]float64, k)
		for i := range idx[ci] {
			idx[ci][i] = ci*k + i
			val[ci][i] = float64(i) - 31.5
		}
		admitted[ci] = ci%4 != 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := range uploads {
			uploads[ci].Pairs = sparse.Vec{Idx: idx[ci], Val: val[ci]}
			uploads[ci].Weight = 1
		}
		FoldStale(uploads, admitted)
	}
}
