package gs

import (
	"fmt"
	"math/rand"
	"testing"

	"fedsparse/internal/sparse"
)

// scratchStrategies is every built-in strategy through its scratch path.
func scratchStrategies() []Strategy {
	return []Strategy{
		&FABTopK{}, FUBTopK{}, UniTopK{}, PeriodicK{}, SendAll{},
	}
}

// tieUploads fabricates uploads with values from a tiny alphabet, so the
// selections are decided almost entirely by tie-breaking.
func tieUploads(rng *rand.Rand, n, d, k int) []ClientUpload {
	ups := make([]ClientUpload, n)
	for i := range ups {
		dense := make([]float64, d)
		for j := range dense {
			dense[j] = float64(rng.Intn(7)-3) * 0.25
		}
		ki := k
		if rng.Intn(3) == 0 {
			ki = 1 + rng.Intn(k) // stragglers with shorter top-k lists
		}
		ups[i] = ClientUpload{Pairs: sparse.TopK(dense, ki), Weight: 1 + rng.Float64()*9}
	}
	return ups
}

// TestScratchDifferentialAllStrategies pins the tentpole guarantee: for
// every strategy, AggregateInto on a warm reused scratch — main selection
// and one-pass probe selection alike — is bit-identical to the map-based
// reference implementation.
func TestScratchDifferentialAllStrategies(t *testing.T) {
	scratch := NewAggScratch(0)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 240; trial++ {
		n := 1 + rng.Intn(10)
		d := 20 + rng.Intn(300)
		k := 1 + rng.Intn(60)
		probeK := rng.Intn(k) // 0 disables the probe
		ups := randomUploads(rng, n, d, k)
		for _, s := range scratchStrategies() {
			main, probe := s.AggregateInto(scratch, ups, k, probeK)
			requireSameAggregate(t, trial, referenceAggregate(s, ups, k), main)
			if probeK > 0 {
				requireSameAggregate(t, trial, referenceAggregate(s, ups, probeK), probe)
			} else if probe.Indices != nil || probe.Values != nil || probe.PerClientUsed != nil {
				t.Fatalf("trial %d: %s: probeK=0 returned non-zero probe", trial, s.Name())
			}
		}
	}
}

// TestScratchDifferentialTieHeavy repeats the cross-check on quantized
// values so the κ fill and the FUB ranking must break exact-|value| ties
// identically to the reference comparators.
func TestScratchDifferentialTieHeavy(t *testing.T) {
	scratch := NewAggScratch(0)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(8)
		d := 30 + rng.Intn(120)
		k := 1 + rng.Intn(40)
		probeK := rng.Intn(k)
		ups := tieUploads(rng, n, d, k)
		for _, s := range scratchStrategies() {
			main, probe := s.AggregateInto(scratch, ups, k, probeK)
			requireSameAggregate(t, trial, referenceAggregate(s, ups, k), main)
			if probeK > 0 {
				requireSameAggregate(t, trial, referenceAggregate(s, ups, probeK), probe)
			}
		}
	}
}

// sameCoordUploads fabricates n clients that all upload exactly the given
// coordinates, in that rank order, with distinct values and weights.
func sameCoordUploads(rng *rand.Rand, n int, coords []int) []ClientUpload {
	ups := make([]ClientUpload, n)
	for i := range ups {
		val := make([]float64, len(coords))
		for p := range val {
			val[p] = rng.NormFloat64()
		}
		ups[i] = ClientUpload{Pairs: sparse.Vec{Idx: coords, Val: val}, Weight: 1 + rng.Float64()*3}
	}
	return ups
}

// TestScratchDifferentialParallelLarge runs large rounds through the
// shapes a reduction could get wrong, on one warm scratch so state a call
// failed to clear would surface in the next one. (Named for the parallel
// reduction the cases were collected against.)
func TestScratchDifferentialParallelLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, d, k = 16, 8000, 400
	withEmpty := randomUploads(rng, n, d, k)
	withEmpty[0].Pairs, withEmpty[7].Pairs = sparse.Vec{}, sparse.Vec{}
	clustered := randomUploads(rng, n, d, k)
	for _, u := range clustered { // every coordinate inside [d-500, d)
		for p := range u.Pairs.Idx {
			u.Pairs.Idx[p] = d - 1 - p
		}
	}
	cases := []struct {
		name      string
		ups       []ClientUpload
		k, probeK int
	}{
		{"random", randomUploads(rng, n, d, k), k, k / 3},
		{"probe = ∅", randomUploads(rng, n, d, k), k, 0},
		{"probe ⊄ main", randomUploads(rng, n, d, k), k / 4, k},
		{"tiny selection of a large union", randomUploads(rng, n, d, k), 3, 2},
		{"two coordinates, thousands of clients", sameCoordUploads(rng, 2100, []int{17, 5}), 2, 1},
		{"one coordinate, thousands of clients", sameCoordUploads(rng, 4200, []int{9}), 1, 1},
		{"selection confined to a narrow band", clustered, k, k / 2},
		{"empty uploads among full ones", withEmpty, k, k / 3},
		{"k = D", randomUploads(rng, 4, 1500, 1500), 1500, 1499},
	}
	scratch := NewAggScratch(0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for si, s := range scratchStrategies() {
				main, probe := s.AggregateInto(scratch, tc.ups, tc.k, tc.probeK)
				requireSameAggregate(t, si, referenceAggregate(s, tc.ups, tc.k), main)
				if tc.probeK > 0 {
					requireSameAggregate(t, si, referenceAggregate(s, tc.ups, tc.probeK), probe)
				}
			}
		})
	}
}

// TestScratchDegenerate pins the edge cases the scratch path must agree
// with the reference on: no uploads, empty pairs, k = 1, k beyond every
// upload, and a single client.
func TestScratchDegenerate(t *testing.T) {
	dense := []float64{3, -2, 1, 0.5, -0.25}
	cases := []struct {
		name string
		ups  []ClientUpload
		k    int
	}{
		{"no uploads", nil, 5},
		{"empty pairs", []ClientUpload{{Pairs: sparse.Vec{}, Weight: 1}}, 3},
		{"k=1", []ClientUpload{{Pairs: sparse.TopK(dense, 3), Weight: 1}, {Pairs: sparse.TopK(dense, 3), Weight: 2}}, 1},
		{"k beyond uploads", []ClientUpload{{Pairs: sparse.TopK(dense, 2), Weight: 1}}, 50},
		{"single client", []ClientUpload{{Pairs: sparse.TopK(dense, 4), Weight: 3}}, 2},
	}
	scratch := NewAggScratch(0)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, s := range scratchStrategies() {
				main, _ := s.AggregateInto(scratch, tc.ups, tc.k, 0)
				requireSameAggregate(t, i, referenceAggregate(s, tc.ups, tc.k), main)
			}
		})
	}
}

// TestAggregateAllocsWarmScratch is the allocation-regression gate: with a
// warm scratch and the sequential reduction, AggregateInto performs zero
// allocations for every strategy, probe included.
func TestAggregateAllocsWarmScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ups := randomUploads(rng, 8, 2000, 120)
	scratch := NewAggScratch(0)
	for _, s := range scratchStrategies() {
		sa := s
		sa.AggregateInto(scratch, ups, 120, 40) // warm the buffers
		allocs := testing.AllocsPerRun(20, func() {
			sa.AggregateInto(scratch, ups, 120, 40)
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocs/op on warm scratch, want 0", s.Name(), allocs)
		}
	}
}

// BenchmarkAggregate measures the map-based reference against the
// scratch-based path (BENCH_fl.json tracks the ratio). The scratch
// variant also computes the probe aggregate, so the comparison understates
// its advantage in engine rounds that probe.
//
// The engine/ rows are engine_adaptive's aggregation (FAB, N = 32,
// d = 1e5, probe at k/2) at both ends and the middle of the k range.
func BenchmarkAggregate(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	const n, d, k = 32, 20000, 500
	ups := randomUploads(rng, n, d, k)
	for _, s := range scratchStrategies() {
		b.Run(s.Name()+"/map", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				referenceAggregate(s, ups, k)
			}
		})
		b.Run(s.Name()+"/scratch", func(b *testing.B) {
			scratch := NewAggScratch(0)
			sa := s
			sa.AggregateInto(scratch, ups, k, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sa.AggregateInto(scratch, ups, k, 0)
			}
		})
	}
	const engineD = 100000
	for _, ek := range []int{engineD / 100, engineD / 10, engineD} {
		ups := randomUploads(rng, 32, engineD, ek)
		b.Run(fmt.Sprintf("engine/k=%d", ek), func(b *testing.B) {
			scratch := NewAggScratch(0)
			scratch.Reserve(engineD)
			fab := &FABTopK{}
			fab.AggregateInto(scratch, ups, ek, ek/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fab.AggregateInto(scratch, ups, ek, ek/2)
			}
		})
	}
}

// requireMapMatchesMembers holds the membership map to the two selections'
// member lists: each selection's bit is set exactly at its members, and
// no other bit anywhere — a stale mark from an earlier call would count a
// pair as consumed that this round never selected.
func requireMapMatchesMembers(t *testing.T, call string, s *AggScratch) {
	t.Helper()
	want := make([]byte, len(s.in))
	for _, j := range s.main.members {
		want[j] |= InB
	}
	for _, j := range s.probe.members {
		want[j] |= inProbe
	}
	for j := range want {
		if s.in[j] != want[j] {
			t.Fatalf("%s: coordinate %d holds %#x, want %#x", call, j, s.in[j], want[j])
		}
	}
}

// TestMembershipMapNeverStale drives one scratch through a run of calls
// that switch strategy, entry point (AggregateInto, SelectInto then Sum,
// SelectDirect, SelectHist), budget — k shrinking and growing, past D/16
// where begin clears the whole map and below it where it clears member
// by member — and the probe on, off and past k (so B′ leaves B), and
// after every call wants the map to hold exactly the selections' members
// and every result to match the map reference. A second run lets an
// un-reserved scratch's dimension grow and shrink, so the map is re-made
// mid-run.
func TestMembershipMapNeverStale(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	strategies := scratchStrategies()
	const d = 400
	rd := newRangedDriver(2, 0, d, true)
	for trial := 0; trial < 300; trial++ {
		strat := strategies[rng.Intn(len(strategies))]
		k := 1 + rng.Intn(12)
		if rng.Intn(3) == 0 {
			k = d/16 + rng.Intn(d) // budgets at and past the whole-map clear
		}
		probeK := 0
		switch rng.Intn(3) {
		case 0:
			probeK = rng.Intn(k)
		case 1:
			probeK = k + 1 + rng.Intn(12)
		}
		ups := randomUploads(rng, 1+rng.Intn(6), d, min(k, d))
		want := referenceAggregate(strat, ups, k)
		var main, probe Aggregate
		var call string
		switch entry := rng.Intn(4); {
		case entry == 0:
			call = "AggregateInto"
			main, probe = strat.AggregateInto(rd.sel, ups, k, probeK)
		case entry == 1:
			call = "SelectInto+Sum"
			strat.SelectInto(rd.sel, ups, k, probeK)
			requireMapMatchesMembers(t, fmt.Sprintf("trial %d %s %s between halves", trial, strat.Name(), call), rd.sel)
			main, probe = rd.sel.Sum(ups)
		case entry == 2:
			call = "SelectDirect"
			var err error
			if main, probe, err = rd.aggregate(strat, ups, k, probeK); err != nil {
				t.Fatal(err)
			}
		default:
			call, strat, probeK = "SelectHist", &FABTopK{}, 0
			want = referenceAggregate(strat, ups, k)
			b, _, err := rd.histogram(ups, k, rng.Intn(2) == 0)
			if err != nil {
				t.Fatal(err)
			}
			b.PerClientUsed = want.PerClientUsed // the plane tallies no fairness counts
			main = b
		}
		requireMapMatchesMembers(t, fmt.Sprintf("trial %d %s %s k=%d probeK=%d", trial, strat.Name(), call, k, probeK), rd.sel)
		requireSameAggregate(t, trial, want, main)
		if probeK > 0 {
			requireSameAggregate(t, trial, referenceAggregate(strat, ups, probeK), probe)
		}
	}

	s := NewAggScratch(0)
	for trial, dim := range []int{50, 300, 40, 1000, 1000, 120, 2000, 60} {
		for _, strat := range strategies {
			k := 1 + rng.Intn(dim/2)
			probeK := rng.Intn(2) * rng.Intn(k)
			ups := randomUploads(rng, 1+rng.Intn(5), dim, k)
			main, probe := strat.AggregateInto(s, ups, k, probeK)
			requireMapMatchesMembers(t, fmt.Sprintf("dim %d %s", dim, strat.Name()), s)
			requireSameAggregate(t, trial, referenceAggregate(strat, ups, k), main)
			if probeK > 0 {
				requireSameAggregate(t, trial, referenceAggregate(strat, ups, probeK), probe)
			}
		}
	}
}
