package gs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fedsparse/internal/sparse"
)

// TestDirectScratchMatchesSharded is the direct plane's differential
// guarantee at the aggregation level: for every strategy, shard count,
// worker count, and (k, probeK), the client-direct data flow (rangedDriver:
// client-side range splitting, explicit-rank shard reductions, selection
// with shard-served fill candidates, shard-served downlink) produces
// Aggregates bit-identical to the routed data flow and to the
// single-scratch AggregateInto.
func TestDirectScratchMatchesSharded(t *testing.T) {
	const n, d, k, rounds = 9, 600, 40, 5
	for _, nShards := range []int{1, 2, 4} {
		for _, workers := range []int{0, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", nShards, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(77 + int64(nShards)*10 + int64(workers)))
				for _, strat := range scratchStrategies() {
					direct := newRangedDriver(nShards, workers, d, true)
					routed := newRangedDriver(nShards, workers, d, false)
					single := NewAggScratch(workers)
					for m := 0; m < rounds; m++ {
						ups := testRankedUploads(rng, n, d, k)
						probeK := 0
						if m%2 == 1 {
							probeK = k / 2
						}
						gotMain, gotProbe, err := direct.aggregate(strat, ups, k, probeK)
						if err != nil {
							t.Fatalf("%s: %v", strat.Name(), err)
						}
						wantMain, wantProbe, err := routed.aggregate(strat, ups, k, probeK)
						if err != nil {
							t.Fatalf("%s: %v", strat.Name(), err)
						}
						requireAggEqual(t, strat.Name()+"/vs-routed", wantMain, gotMain)
						singleMain, singleProbe := strat.AggregateInto(single, ups, k, probeK)
						requireAggEqual(t, strat.Name()+"/vs-single", singleMain, gotMain)
						if probeK > 0 {
							requireAggEqual(t, strat.Name()+"/probe-vs-routed", wantProbe, gotProbe)
							requireAggEqual(t, strat.Name()+"/probe-vs-single", singleProbe, gotProbe)
						}
					}
				}
			})
		}
	}
}

// testRankedUploads builds n rank-ordered top-k uploads over dimension d,
// with occasional shorter stragglers (the producer contract of the
// uplink).
func testRankedUploads(rng *rand.Rand, n, d, k int) []ClientUpload {
	ups := make([]ClientUpload, n)
	for i := range ups {
		dense := make([]float64, d)
		for j := range dense {
			dense[j] = rng.NormFloat64()
		}
		ki := k
		if rng.Intn(3) == 0 {
			ki = 1 + rng.Intn(k)
		}
		ups[i] = ClientUpload{Pairs: sparse.TopK(dense, ki), Weight: 1 + rng.Float64()*9}
	}
	return ups
}

func requireAggEqual(t *testing.T, label string, want, got Aggregate) {
	t.Helper()
	if len(want.Indices) != len(got.Indices) {
		t.Fatalf("%s: |J| %d vs %d", label, len(want.Indices), len(got.Indices))
	}
	for i := range want.Indices {
		if want.Indices[i] != got.Indices[i] || want.Values[i] != got.Values[i] {
			t.Fatalf("%s: entry %d: (%d, %v) vs (%d, %v)", label, i,
				want.Indices[i], want.Values[i], got.Indices[i], got.Values[i])
		}
	}
	if len(want.PerClientUsed) != len(got.PerClientUsed) {
		t.Fatalf("%s: PerClientUsed %d vs %d", label, len(want.PerClientUsed), len(got.PerClientUsed))
	}
	for ci := range want.PerClientUsed {
		if want.PerClientUsed[ci] != got.PerClientUsed[ci] {
			t.Fatalf("%s: client %d used %d vs %d", label, ci, want.PerClientUsed[ci], got.PerClientUsed[ci])
		}
	}
}

// TestValidateRangeSlice pins the shared slice validation both shard
// topologies trust before reducing.
func TestValidateRangeSlice(t *testing.T) {
	seen := make([]int, 10)
	gen := 0
	check := func(idx []int, val []float64, rank []int) error {
		gen++
		return ValidateRangeSlice(idx, val, rank, 2, 7, seen, gen)
	}
	if err := check([]int{2, 6, 3}, []float64{1, 2, 3}, []int{0, 4, 9}); err != nil {
		t.Fatalf("valid slice rejected: %v", err)
	}
	if err := check(nil, nil, nil); err != nil {
		t.Fatalf("empty slice rejected: %v", err)
	}
	cases := []struct {
		name string
		idx  []int
		val  []float64
		rank []int
		want string
	}{
		{"below range", []int{1}, []float64{1}, []int{0}, "outside range"},
		{"above range", []int{7}, []float64{1}, []int{0}, "outside range"},
		{"duplicate", []int{3, 3}, []float64{1, 2}, []int{0, 1}, "duplicate"},
		{"ragged", []int{3, 4}, []float64{1}, []int{0, 1}, "inconsistent"},
		{"rank order", []int{3, 4}, []float64{1, 2}, []int{5, 2}, "ranks not ascending"},
		{"negative rank", []int{3}, []float64{1}, []int{-1}, "ranks not ascending"},
		{"equal ranks", []int{3, 4}, []float64{1, 2}, []int{2, 2}, "ranks not ascending"},
		{"rank at D", []int{3, 4}, []float64{1, 2}, []int{0, 10}, "rank 10 outside [0, 10)"},
		{"NaN", []int{3, 4}, []float64{1, math.NaN()}, []int{0, 1}, "non-finite value NaN at index 4"},
		{"+Inf", []int{3}, []float64{math.Inf(1)}, []int{0}, "non-finite value +Inf at index 3"},
		{"-Inf", []int{5, 3}, []float64{math.Inf(-1), 1}, []int{0, 1}, "non-finite value -Inf at index 5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := check(tc.idx, tc.val, tc.rank)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
	// Finite oddities are values like any other: both zeros, the smallest
	// denormal, the largest finite magnitude.
	if err := check([]int{2, 3, 4, 5, 6}, []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, -math.MaxFloat64},
		[]int{0, 1, 2, 3, 4}); err != nil {
		t.Fatalf("finite edge values rejected: %v", err)
	}
	// The epoch slab carries no state across generations: a coordinate
	// used in one slice is fine in the next.
	if err := check([]int{3}, []float64{1}, []int{0}); err != nil {
		t.Fatalf("cross-generation reuse rejected: %v", err)
	}
}

// TestAppendFillCands pins the shard-side rank-κ candidate extraction.
func TestAppendFillCands(t *testing.T) {
	slices := []ClientUpload{
		{Pairs: sparse.Vec{Idx: []int{5, 9}, Val: []float64{-3, 1}}},   // ranks 1, 4
		{Pairs: sparse.Vec{Idx: []int{2}, Val: []float64{7}}},          // rank 0
		{Pairs: sparse.Vec{Idx: []int{8, 4}, Val: []float64{-2, 0.5}}}, // ranks 1, 2
	}
	ranks := [][]int{{1, 4}, {0}, {1, 2}}
	cands := AppendFillCands(nil, slices, ranks, 1)
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2: %+v", len(cands), cands)
	}
	if cands[0] != (FillCand{Idx: 5, AbsVal: 3, Client: 0}) || cands[1] != (FillCand{Idx: 8, AbsVal: 2, Client: 2}) {
		t.Fatalf("candidates %+v", cands)
	}
	if got := AppendFillCands(nil, slices, ranks, 7); len(got) != 0 {
		t.Fatalf("rank beyond every slice returned %+v", got)
	}
	// Un-sliced uploads (nil ranks): the pair position is the rank.
	raw := AppendFillCands(nil, slices, nil, 1)
	if len(raw) != 2 || raw[0] != (FillCand{Idx: 9, AbsVal: 1, Client: 0}) || raw[1] != (FillCand{Idx: 4, AbsVal: 0.5, Client: 2}) {
		t.Fatalf("position-ranked candidates %+v", raw)
	}
	// Sorting uses the reference comparator: |value| desc, idx, client.
	c := []FillCand{{Idx: 9, AbsVal: 1, Client: 0}, {Idx: 2, AbsVal: 7, Client: 1}, {Idx: 1, AbsVal: 7, Client: 2}}
	sortFillCands(c)
	if c[0].Idx != 1 || c[1].Idx != 2 || c[2].Idx != 9 {
		t.Fatalf("sorted order %+v", c)
	}
}

// TestMemberSpans pins the coordinator-side downlink split: spans alias
// the member list, cover it exactly in shard order, and land every
// member in the shard whose range owns it — including empty spans.
func TestMemberSpans(t *testing.T) {
	bounds := []int{0, 5, 10, 15}
	members := []int{1, 4, 6, 7, 9}
	spans := MemberSpans(members, bounds, nil)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	want := [][]int{{1, 4}, {6, 7, 9}, {}}
	for s, sp := range spans {
		if len(sp) != len(want[s]) {
			t.Fatalf("span %d is %v, want %v", s, sp, want[s])
		}
		for i := range sp {
			if sp[i] != want[s][i] {
				t.Fatalf("span %d is %v, want %v", s, sp, want[s])
			}
		}
	}
	// The spans alias members: concatenation is the original storage.
	if len(spans[0]) > 0 && &spans[0][0] != &members[0] {
		t.Fatal("spans do not alias the member list")
	}
	if got := MemberSpans(nil, bounds, spans); len(got) != 3 || len(got[0])+len(got[1])+len(got[2]) != 0 {
		t.Fatalf("empty member list produced %v", got)
	}
}

// TestBuildDownlinkSlice pins the shard-side downlink reconstruction
// and its trust boundary: values come from the shard's own reduction,
// and a corrupted seal — out-of-range, unsorted, or never-uploaded
// members — fails instead of serving a wrong slice.
func TestBuildDownlinkSlice(t *testing.T) {
	red := RangeAgg{Idx: []int{2, 3, 4}, Sum: []float64{0.5, -1.5, 2}, MinRank: []int{0, 1, 0}}
	idx, val, err := BuildDownlinkSlice(nil, nil, []int{2, 4}, red, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != 2 || idx[1] != 4 || val[0] != 0.5 || val[1] != 2 {
		t.Fatalf("served slice (%v, %v)", idx, val)
	}
	if _, _, err := BuildDownlinkSlice(nil, nil, nil, red, 0, 5); err != nil {
		t.Fatalf("empty seal rejected: %v", err)
	}
	cases := []struct {
		name    string
		members []int
		want    string
	}{
		{"outside the range", []int{7}, "out of order or outside"},
		{"out of order", []int{4, 2}, "out of order"},
		{"never uploaded", []int{1}, "never uploaded"},
		{"duplicate member", []int{2, 2}, "out of order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := BuildDownlinkSlice(nil, nil, tc.members, red, 0, 5)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSealSlice pins the histogram seal's one pass over a shard's
// reduction: the rank-κ union and the fill span, with the shard's own
// sums, and its refusals — a negative cutoff, and a fill member outside
// the range, out of order, never reduced or already in the union.
func TestSealSlice(t *testing.T) {
	red := RangeAgg{Idx: []int{2, 3, 4, 6}, Sum: []float64{0.5, -1.5, 2, 4}, MinRank: []int{0, 2, 1, 3}}
	idx, val, err := SealSlice(nil, nil, 2, []int{3}, red, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(idx, []int{2, 3, 4}) || !slices.Equal(val, []float64{0.5, -1.5, 2}) {
		t.Fatalf("served slice (%v, %v)", idx, val)
	}
	if idx, _, err := SealSlice(nil, nil, 9, nil, red, 0, 8); err != nil || len(idx) != 4 {
		t.Fatalf("cutoff past every rank: %v, %v", idx, err)
	}
	cases := []struct {
		name  string
		kappa int
		fill  []int
		want  string
	}{
		{"negative cutoff", -1, nil, "gs: seal cutoff -1 is negative"},
		{"fill outside the range", 2, []int{9}, "gs: sealed member 9 out of order or outside range [0, 8)"},
		{"fill not ascending", 2, []int{6, 3}, "gs: sealed member 3 out of order"},
		{"fill never reduced", 2, []int{5}, "gs: sealed member 5 was never uploaded to this shard"},
		{"fill past the last reduced coordinate", 2, []int{7}, "gs: sealed member 7 was never uploaded"},
		{"fill already in the union", 2, []int{4}, "gs: sealed fill member 4 is already in the rank-2 union"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := SealSlice(nil, nil, tc.kappa, tc.fill, red, 0, 8)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRankHistAndServeFill pins a shard's two histogram-plane answers:
// the min-rank histogram of its reduction, and its fill at κ — the
// rank-κ candidates outside its union with their b_j, and the union's
// largest |b_j|.
func TestRankHistAndServeFill(t *testing.T) {
	if h := RankHist(nil, RangeAgg{}); len(h) != 0 {
		t.Fatalf("empty reduction's histogram %v", h)
	}
	ups := []ClientUpload{
		{Pairs: sparse.Vec{Idx: []int{2, 5}, Val: []float64{4, -3}}, Weight: 1},
		{Pairs: sparse.Vec{Idx: []int{5, 6}, Val: []float64{-1, 2}}, Weight: 1},
	}
	ranks := [][]int{{0, 1}, {0, 3}}
	red := RangeReduceInto(NewAggScratch(0), ups, ranks, 0, 8)
	if h := RankHist([]int{7, 7, 7, 7, 7, 7}, red); !slices.Equal(h, []int{2, 0, 0, 1}) {
		t.Fatalf("histogram %v, want [2 0 0 1]", h)
	}
	// At κ = 1 client 0's rank-1 pair (5) is in the union: no candidate.
	cands, unionMax := ServeFill(nil, ups, ranks, red, 1)
	if len(cands) != 0 || unionMax != 2 {
		t.Fatalf("κ=1: candidates %+v, union max %v", cands, unionMax)
	}
	// At κ = 3 client 1's rank-3 pair (6) is outside it, b_6 = 1.
	cands, unionMax = ServeFill(nil, ups, ranks, red, 3)
	if len(cands) != 1 || cands[0] != (FillCand{Idx: 6, AbsVal: 2, Client: 1, Sum: 1}) || unionMax != 2 {
		t.Fatalf("κ=3: candidates %+v, union max %v", cands, unionMax)
	}
}
