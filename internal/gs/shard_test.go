package gs

import (
	"math"
	"math/rand"
	"testing"

	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// TestShardedDifferentialAllStrategies pins the shard tier's tentpole
// guarantee on the routed plane's data flow (rangedDriver): S range
// reductions merged and selected by the coordinator are bit-identical to
// AggregateInto on a single scratch for every strategy, shard count,
// worker count, and probe setting.
func TestShardedDifferentialAllStrategies(t *testing.T) {
	for _, workers := range []int{0, 4} {
		rng := rand.New(rand.NewSource(31 + int64(workers)))
		single := NewAggScratch(0)
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(10)
			d := 20 + rng.Intn(300)
			k := 1 + rng.Intn(60)
			probeK := rng.Intn(k) // 0 disables the probe
			ups := randomUploads(rng, n, d, k)
			for _, shards := range []int{1, 2, 4, 7} {
				ss := newRangedDriver(shards, workers, d, false)
				for _, s := range scratchStrategies() {
					wantMain, wantProbe := s.AggregateInto(single, ups, k, probeK)
					gotMain, gotProbe, err := ss.aggregate(s, ups, k, probeK)
					if err != nil {
						t.Fatalf("trial %d: %s: %v", trial, s.Name(), err)
					}
					requireSameAggregate(t, trial, wantMain, gotMain)
					if probeK > 0 {
						requireSameAggregate(t, trial, wantProbe, gotProbe)
					} else if gotProbe.Indices != nil || gotProbe.Values != nil || gotProbe.PerClientUsed != nil {
						t.Fatalf("trial %d: %s: probeK=0 returned non-zero probe", trial, s.Name())
					}
					// Compare against the single-scratch result BEFORE the
					// next strategy reuses `single` (both alias scratches).
				}
			}
		}
	}
}

// TestShardedDifferentialTieHeavy repeats the cross-check on quantized
// values, where FAB's κ fill and FUB's ranking are decided almost
// entirely by tie-breaking — the merged selection must replicate the
// reference comparators exactly.
func TestShardedDifferentialTieHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	single := NewAggScratch(0)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		d := 30 + rng.Intn(120)
		k := 1 + rng.Intn(40)
		probeK := rng.Intn(k)
		ups := tieUploads(rng, n, d, k)
		for _, shards := range []int{2, 3, 5} {
			ss := newRangedDriver(shards, 0, d, false)
			for _, s := range scratchStrategies() {
				wantMain, wantProbe := s.AggregateInto(single, ups, k, probeK)
				gotMain, gotProbe, err := ss.aggregate(s, ups, k, probeK)
				if err != nil {
					t.Fatalf("trial %d: %s: %v", trial, s.Name(), err)
				}
				requireSameAggregate(t, trial, wantMain, gotMain)
				if probeK > 0 {
					requireSameAggregate(t, trial, wantProbe, gotProbe)
				}
			}
		}
	}
}

// routeUploads slices the uploads into per-shard range views with their
// original ranks — the exact transformation the transport coordinator
// applies before forwarding to shard processes.
func routeUploads(ups []ClientUpload, d, shards, shard int) (ranged []ClientUpload, ranks [][]int, lo, hi int) {
	lo, hi = tensor.ChunkBounds(d, shards, shard)
	ranged = make([]ClientUpload, len(ups))
	ranks = make([][]int, len(ups))
	for ci, u := range ups {
		var idx []int
		var val []float64
		var rk []int
		for pi, j := range u.Pairs.Idx {
			if j >= lo && j < hi {
				idx = append(idx, j)
				val = append(val, u.Pairs.Val[pi])
				rk = append(rk, pi)
			}
		}
		ranged[ci] = ClientUpload{Pairs: sparse.Vec{Idx: idx, Val: val}, Weight: u.Weight}
		ranks[ci] = rk
	}
	return ranged, ranks, lo, hi
}

// TestRangeReduceRankedMatchesDirect pins the wire-shaped path: reducing
// pre-routed range slices with explicit ranks produces exactly the
// reduction of the original uploads over the same range — sums bitwise,
// min-ranks included.
func TestRangeReduceRankedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(8)
		d := 25 + rng.Intn(200)
		k := 1 + rng.Intn(30)
		ups := randomUploads(rng, n, d, k)
		for _, shards := range []int{1, 2, 4} {
			for shard := 0; shard < shards; shard++ {
				direct := NewAggScratch(0)
				routed := NewAggScratch(0)
				lo, hi := tensor.ChunkBounds(d, shards, shard)
				want := RangeReduceInto(direct, ups, nil, lo, hi)
				ranged, ranks, rlo, rhi := routeUploads(ups, d, shards, shard)
				if rlo != lo || rhi != hi {
					t.Fatalf("bounds mismatch: [%d,%d) vs [%d,%d)", rlo, rhi, lo, hi)
				}
				got := RangeReduceInto(routed, ranged, ranks, lo, hi)
				if len(want.Idx) != len(got.Idx) {
					t.Fatalf("trial %d shard %d/%d: %d vs %d coords", trial, shard, shards, len(want.Idx), len(got.Idx))
				}
				for i := range want.Idx {
					if want.Idx[i] != got.Idx[i] || want.Sum[i] != got.Sum[i] || want.MinRank[i] != got.MinRank[i] {
						t.Fatalf("trial %d shard %d/%d entry %d: (%d,%v,%d) vs (%d,%v,%d)",
							trial, shard, shards, i,
							want.Idx[i], want.Sum[i], want.MinRank[i],
							got.Idx[i], got.Sum[i], got.MinRank[i])
					}
				}
			}
		}
	}
}

// sameEdge reports whether got is want bit for bit, or both are NaN (a
// NaN's payload is the hardware's choice, not the code's).
func sameEdge(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// TestRangeReduceEdgeValues pins the range reduction on non-finite, −0
// and subnormal values, two clients of weights 1 and 3 (w = ¼ and ¾,
// both exact): every sum is bit for bit the map reference's, and the
// literal column holds today's output, so a later clip policy shows up
// as a diff. A −0 sum comes out +0, because the chain starts at +0.
func TestRangeReduceEdgeValues(t *testing.T) {
	negZero, tiny, nan, inf := math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		a, b []float64 // each client's values at coordinates 0, 1, …
		want []float64
	}{
		{"-0 from both", []float64{negZero}, []float64{negZero}, []float64{0}},
		{"-0 from one", []float64{negZero, 1}, []float64{2}, []float64{1.5, 0.25}},
		{"the smallest subnormal", []float64{tiny}, []float64{tiny}, []float64{tiny}},
		{"subnormals", []float64{0x1p-1060}, []float64{-0x1p-1062}, []float64{0x1p-1064}},
		{"subnormal beside normals", []float64{0x1p-1030, 4}, []float64{-0x1p-1030, 8}, []float64{-0x1p-1031, 7}},
		{"NaN", []float64{nan, 1}, []float64{1, 1}, []float64{nan, 1}},
		{"+Inf", []float64{inf}, []float64{1}, []float64{inf}},
		{"-Inf", []float64{1}, []float64{-inf}, []float64{-inf}},
		{"+Inf and -Inf", []float64{inf}, []float64{-inf}, []float64{nan}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			upload := func(vals []float64, w float64) ClientUpload {
				idx := make([]int, len(vals))
				for i := range idx {
					idx[i] = i
				}
				return ClientUpload{Pairs: sparse.Vec{Idx: idx, Val: vals}, Weight: w}
			}
			ups := []ClientUpload{upload(tc.a, 1), upload(tc.b, 3)}
			red := RangeReduceInto(NewAggScratch(0), ups, nil, 0, len(tc.want))
			ref := referenceUnion(ups)
			if len(red.Idx) != len(tc.want) || len(ref.Values) != len(tc.want) {
				t.Fatalf("reduced %v, reference %v, want %d coordinates", red.Idx, ref.Indices, len(tc.want))
			}
			for i, want := range tc.want {
				got := red.Sum[i]
				if math.Float64bits(got) != math.Float64bits(ref.Values[i]) {
					t.Fatalf("b_%d = %v (%#x), reference %v (%#x)", i, got, math.Float64bits(got), ref.Values[i], math.Float64bits(ref.Values[i]))
				}
				if !sameEdge(got, want) || red.MinRank[i] != i {
					t.Fatalf("b_%d = %v (%#x) at rank %d, want %v at rank %d", i, got, math.Float64bits(got), red.MinRank[i], want, i)
				}
			}
		})
	}
}

// TestShardedDegenerate covers the edges: no uploads, empty pairs, more
// shards than coordinates, k beyond every upload.
func TestShardedDegenerate(t *testing.T) {
	dense := []float64{3, -2, 1, 0.5, -0.25}
	cases := []struct {
		name string
		ups  []ClientUpload
		d, k int
	}{
		{"no uploads", nil, 5, 5},
		{"empty pairs", []ClientUpload{{Pairs: sparse.Vec{}, Weight: 1}}, 5, 3},
		{"more shards than dims", []ClientUpload{{Pairs: sparse.TopK(dense, 3), Weight: 1}}, 5, 2},
		{"k beyond uploads", []ClientUpload{{Pairs: sparse.TopK(dense, 2), Weight: 1}}, 5, 50},
	}
	single := NewAggScratch(0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ss := newRangedDriver(8, 0, tc.d, false) // 8 shards over d=5: some ranges empty
			for _, s := range scratchStrategies() {
				wantMain, _ := s.AggregateInto(single, tc.ups, tc.k, 0)
				gotMain, _, err := ss.aggregate(s, tc.ups, tc.k, 0)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				requireSameAggregate(t, 0, wantMain, gotMain)
			}
		})
	}
}

// TestShardedAllocsWarm extends the allocation-regression gate to the
// kernels the shard tier runs: a warm scratch reduces a range, and a warm
// selection scratch selects over the reduction, with zero allocations for
// every strategy, probe included.
func TestShardedAllocsWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const n, d, k = 8, 2000, 120
	ups := randomUploads(rng, n, d, k)
	shard, sel := NewAggScratch(0), NewAggScratch(0)
	shard.Reserve(d)
	sel.Reserve(d)
	var cands []FillCand
	meta := DirectMeta{NumClients: n, MaxLen: k, Fill: func(kappa int) ([]FillCand, error) {
		cands = AppendFillCands(cands[:0], ups, nil, kappa)
		return cands, nil
	}}
	for _, s := range scratchStrategies() {
		round := func() {
			red := RangeReduceInto(shard, ups, nil, 0, d)
			if _, _, err := s.SelectDirect(sel, red, meta, k, 40); err != nil {
				t.Fatal(err)
			}
			sel.CountUsed(ups, true)
		}
		round() // warm the buffers
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Fatalf("%s: %v allocs/op on warm reduce + select, want 0", s.Name(), allocs)
		}
	}
}
