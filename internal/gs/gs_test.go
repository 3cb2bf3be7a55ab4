package gs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fedsparse/internal/sparse"
)

// uploadFrom builds a rank-ordered top-k upload from a dense accumulated
// gradient, as the FL engine does.
func uploadFrom(dense []float64, k int, weight float64) ClientUpload {
	return ClientUpload{Pairs: sparse.TopK(dense, k), Weight: weight}
}

// randomUploads fabricates N clients with random accumulated gradients.
func randomUploads(rng *rand.Rand, n, d, k int) []ClientUpload {
	ups := make([]ClientUpload, n)
	for i := range ups {
		dense := make([]float64, d)
		for j := range dense {
			dense[j] = rng.NormFloat64()
		}
		ups[i] = uploadFrom(dense, k, 1+rng.Float64()*3)
	}
	return ups
}

// aggregate is one main selection over a fresh scratch.
func aggregate(s Strategy, ups []ClientUpload, k int) Aggregate {
	main, _ := s.AggregateInto(NewAggScratch(0), ups, k, 0)
	return main
}

func indexSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, j := range idx {
		m[j] = true
	}
	return m
}

func TestFABSelectsExactlyK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := &FABTopK{}
	for trial := 0; trial < 30; trial++ {
		n, d := 2+rng.Intn(8), 40+rng.Intn(100)
		k := 1 + rng.Intn(30)
		ups := randomUploads(rng, n, d, k)
		agg := aggregate(s, ups, k)
		// Random gradients: ≥ k distinct indices are always available, so
		// exactly k must be selected.
		distinct := make(map[int]bool)
		for _, u := range ups {
			for _, j := range u.Pairs.Idx {
				distinct[j] = true
			}
		}
		want := k
		if len(distinct) < k {
			want = len(distinct)
		}
		if len(agg.Indices) != want {
			t.Fatalf("trial %d: |J| = %d, want %d", trial, len(agg.Indices), want)
		}
	}
}

func TestFABFairnessGuarantee(t *testing.T) {
	// Paper claim: every client contributes at least ⌊k/N⌋ elements,
	// because |∪J_i^κ| ≤ k always holds at κ = ⌊k/N⌋.
	rng := rand.New(rand.NewSource(2))
	s := &FABTopK{}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		d := 200
		k := n + rng.Intn(40)
		ups := randomUploads(rng, n, d, k)
		agg := aggregate(s, ups, k)
		guarantee := k / n
		for ci, used := range agg.PerClientUsed {
			if used < guarantee {
				t.Fatalf("trial %d: client %d contributed %d < ⌊k/N⌋ = %d (k=%d N=%d)",
					trial, ci, used, guarantee, k, n)
			}
		}
	}
}

// TestFABBinaryEqualsLinear holds the two map oracles against each other
// and the production rank-major walk against both, for the main budget and
// a probe budget found in the same walk.
func TestFABBinaryEqualsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scratch := NewAggScratch(0)
	for trial := 0; trial < 40; trial++ {
		n, d := 2+rng.Intn(6), 50+rng.Intn(80)
		k := 1 + rng.Intn(25)
		probeK := 1 + rng.Intn(40)
		ups := randomUploads(rng, n, d, k)
		scratch.prepare(ups)
		ranks := scratch.walk(ups, max(k, probeK))
		for _, budget := range []int{k, probeK} {
			bin, lin := selectKappaBinary(ups, budget), selectKappaLinear(ups, budget)
			kappa, size := scratch.cutoff(ranks, budget)
			if bin != lin || kappa != bin {
				t.Fatalf("trial %d budget %d: κ binary=%d linear=%d walk=%d", trial, budget, bin, lin, kappa)
			}
			if want := len(unionUpTo(ups, bin)); size != want {
				t.Fatalf("trial %d budget %d: walk's rank-κ union has %d coordinates, want %d", trial, budget, size, want)
			}
		}
	}
}

func TestFABKappaProperty(t *testing.T) {
	// κ is the largest rank with |∪J^κ| ≤ k.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n, d := 2+rng.Intn(6), 60
		k := 1 + rng.Intn(20)
		ups := randomUploads(rng, n, d, k)
		kappa := selectKappaBinary(ups, k)
		if got := len(unionUpTo(ups, kappa)); got > k {
			t.Fatalf("kappa=%d: union size %d > k=%d", kappa, got, k)
		}
		maxLen := 0
		for _, u := range ups {
			if u.Pairs.Len() > maxLen {
				maxLen = u.Pairs.Len()
			}
		}
		if kappa < maxLen {
			if got := len(unionUpTo(ups, kappa+1)); got <= k {
				t.Fatalf("kappa=%d not maximal: union at κ+1 = %d ≤ k=%d", kappa, got, k)
			}
		}
	}
}

func TestAggregationWeighting(t *testing.T) {
	// Two clients, both upload index 5; b_5 must be the C_i/C-weighted sum.
	d := make([]float64, 10)
	d[5] = 2
	upA := uploadFrom(d, 1, 3) // C_A = 3, a_5 = 2
	d2 := make([]float64, 10)
	d2[5] = -1
	upB := uploadFrom(d2, 1, 1) // C_B = 1, a_5 = −1
	agg := aggregate(&FABTopK{}, []ClientUpload{upA, upB}, 1)
	if len(agg.Indices) != 1 || agg.Indices[0] != 5 {
		t.Fatalf("J = %v, want [5]", agg.Indices)
	}
	want := (3.0*2 + 1.0*(-1)) / 4.0
	if math.Abs(agg.Values[0]-want) > 1e-12 {
		t.Fatalf("b_5 = %v, want %v", agg.Values[0], want)
	}
}

func TestAggregationExcludesNonUploaders(t *testing.T) {
	// Client B did not upload index 0, so its accumulated value there must
	// not leak into b_0 (the 1[j ∈ J_i] factor in line 10).
	dA := []float64{5, 0, 0, 0}
	dB := []float64{4, 9, 0, 0} // B's top-1 is index 1, so index 0 unreported
	upA := uploadFrom(dA, 1, 1)
	upB := uploadFrom(dB, 1, 1)
	agg := aggregate(&FABTopK{}, []ClientUpload{upA, upB}, 2)
	vals := make(map[int]float64)
	for i, j := range agg.Indices {
		vals[j] = agg.Values[i]
	}
	if math.Abs(vals[0]-2.5) > 1e-12 { // 5·(1/2): only A uploaded index 0
		t.Fatalf("b_0 = %v, want 2.5 (client B must be excluded)", vals[0])
	}
	if math.Abs(vals[1]-4.5) > 1e-12 { // 9·(1/2)
		t.Fatalf("b_1 = %v, want 4.5", vals[1])
	}
}

func TestFUBCanStarveClients(t *testing.T) {
	// One dominant client: FUB picks only its elements, the quiet client
	// contributes nothing — the unfairness FAB fixes.
	big := make([]float64, 50)
	small := make([]float64, 50)
	for i := 0; i < 25; i++ {
		big[i] = 100 + float64(i)
	}
	for i := 25; i < 50; i++ {
		small[i] = 0.01 * float64(i-24)
	}
	k := 8
	ups := []ClientUpload{uploadFrom(big, k, 1), uploadFrom(small, k, 1)}

	fub := aggregate(FUBTopK{}, ups, k)
	if fub.PerClientUsed[1] != 0 {
		t.Fatalf("FUB used %d elements of the quiet client; expected starvation", fub.PerClientUsed[1])
	}
	fab := aggregate(&FABTopK{}, ups, k)
	if fab.PerClientUsed[1] < k/2 {
		t.Fatalf("FAB used only %d elements of the quiet client, want ≥ ⌊k/N⌋ = %d",
			fab.PerClientUsed[1], k/2)
	}
}

func TestFUBSelectsTopAggregated(t *testing.T) {
	// FUB must pick the k largest |b_j| over the pooled uploads.
	dA := []float64{10, -3, 0, 0}
	dB := []float64{-9, -3, 2, 0}
	ups := []ClientUpload{uploadFrom(dA, 3, 1), uploadFrom(dB, 3, 1)}
	// Aggregated: b_0 = 0.5, b_1 = −3, b_2 = 1, b_3 = 0 (only 0,1,2 uploaded).
	agg := aggregate(FUBTopK{}, ups, 2)
	want := []int{1, 2}
	if len(agg.Indices) != 2 || agg.Indices[0] != want[0] || agg.Indices[1] != want[1] {
		t.Fatalf("FUB J = %v, want %v", agg.Indices, want)
	}
}

func TestUniTopKKeepsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ups := randomUploads(rng, 5, 100, 10)
	agg := aggregate(UniTopK{}, ups, 10)
	union := make(map[int]bool)
	for _, u := range ups {
		for _, j := range u.Pairs.Idx {
			union[j] = true
		}
	}
	if len(agg.Indices) != len(union) {
		t.Fatalf("|J| = %d, want union size %d", len(agg.Indices), len(union))
	}
	if len(agg.Indices) <= 10 {
		t.Fatalf("unidirectional |J| = %d should exceed k with 5 clients", len(agg.Indices))
	}
}

func TestPeriodicKMandatesDistinctSortedIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var ms MandateScratch
	for trial := 0; trial < 50; trial++ {
		d := 20 + rng.Intn(200)
		k := 1 + rng.Intn(d)
		idx := PeriodicK{}.MandatedIndicesInto(&ms, trial, d, k, rng)
		if len(idx) != k {
			t.Fatalf("mandated %d indices, want %d", len(idx), k)
		}
		if !sort.IntsAreSorted(idx) {
			t.Fatal("mandated indices not sorted")
		}
		seen := make(map[int]bool)
		for _, j := range idx {
			if j < 0 || j >= d {
				t.Fatalf("index %d out of range [0,%d)", j, d)
			}
			if seen[j] {
				t.Fatalf("duplicate mandated index %d", j)
			}
			seen[j] = true
		}
	}
}

func TestPeriodicKCoversAllCoordinatesOverTime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ms MandateScratch
	d, k := 60, 12
	covered := make(map[int]bool)
	for round := 0; round < 100; round++ {
		for _, j := range (PeriodicK{}).MandatedIndicesInto(&ms, round, d, k, rng) {
			covered[j] = true
		}
	}
	if len(covered) != d {
		t.Fatalf("periodic-k covered %d/%d coordinates after 100 rounds", len(covered), d)
	}
}

func TestSendAllMandatesEverything(t *testing.T) {
	var ms MandateScratch
	idx := SendAll{}.MandatedIndicesInto(&ms, 0, 7, 3, nil)
	if len(idx) != 7 {
		t.Fatalf("send-all mandated %d indices, want 7", len(idx))
	}
	for _, s := range []Strategy{&FABTopK{}, FUBTopK{}, UniTopK{}} {
		if idx := s.MandatedIndicesInto(&ms, 0, 7, 3, nil); idx != nil {
			t.Fatalf("%s mandated %v, want nil", s.Name(), idx)
		}
	}
	if !(SendAll{}).Dense() {
		t.Fatal("send-all must be dense")
	}
}

func TestAggregateIndicesSortedAndAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	strategies := []Strategy{&FABTopK{}, FUBTopK{}, UniTopK{}}
	ups := randomUploads(rng, 4, 80, 12)
	for _, s := range strategies {
		agg := aggregate(s, ups, 12)
		if !sort.IntsAreSorted(agg.Indices) {
			t.Fatalf("%s: indices not sorted", s.Name())
		}
		if len(agg.Indices) != len(agg.Values) {
			t.Fatalf("%s: indices/values length mismatch", s.Name())
		}
		if len(agg.PerClientUsed) != len(ups) {
			t.Fatalf("%s: PerClientUsed length %d, want %d", s.Name(), len(agg.PerClientUsed), len(ups))
		}
	}
}

// Property: FAB's downlink size never exceeds k, and per-client usage sums
// correctly against the J∩J_i definition.
func TestFABInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%6
		k := 1 + int(kRaw)%20
		ups := randomUploads(rng, n, 64, k)
		agg := aggregate(&FABTopK{}, ups, k)
		if len(agg.Indices) > k {
			return false
		}
		in := indexSet(agg.Indices)
		for ci, u := range ups {
			count := 0
			for _, j := range u.Pairs.Idx {
				if in[j] {
					count++
				}
			}
			if count != agg.PerClientUsed[ci] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleClientDegeneratesToTopK(t *testing.T) {
	// With N=1, FAB, FUB and unidirectional must all pick the client's own
	// top-k with b_j = a_j.
	dense := []float64{0.1, -7, 3, 0.5, -2, 6}
	up := []ClientUpload{uploadFrom(dense, 3, 5)}
	for _, s := range []Strategy{&FABTopK{}, FUBTopK{}, UniTopK{}} {
		agg := aggregate(s, up, 3)
		if len(agg.Indices) != 3 {
			t.Fatalf("%s: |J| = %d", s.Name(), len(agg.Indices))
		}
		wantIdx := []int{1, 2, 5} // sorted positions of top-3 by |value|
		for i, j := range agg.Indices {
			if j != wantIdx[i] {
				t.Fatalf("%s: J = %v, want %v", s.Name(), agg.Indices, wantIdx)
			}
			if agg.Values[i] != dense[j] {
				t.Fatalf("%s: b_%d = %v, want %v", s.Name(), j, agg.Values[i], dense[j])
			}
		}
	}
}
