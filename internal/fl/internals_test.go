package fl

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
)

func TestPickParticipantsFullCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cohort := range []int{0, 7, 9} {
		got := pickParticipantsInto(nil, cohort, 7, rng)
		if len(got) != 7 {
			t.Fatalf("cohort=%d: %d participants, want 7", cohort, len(got))
		}
		for i, ci := range got {
			if ci != i {
				t.Fatalf("cohort=%d: participants %v not identity", cohort, got)
			}
		}
	}
	if rng.Int63() != rand.New(rand.NewSource(1)).Int63() {
		t.Fatal("drawing everyone consumed rng")
	}
}

func TestPickParticipantsProperty(t *testing.T) {
	f := func(seed int64, cRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%19
		cohort := 1 + int(cRaw)%(n-1) // [1, n)
		got := pickParticipantsInto(nil, cohort, n, rng)
		if len(got) != cohort {
			return false
		}
		if !sort.IntsAreSorted(got) {
			return false
		}
		seen := make(map[int]bool)
		for _, ci := range got {
			if ci < 0 || ci >= n || seen[ci] {
				return false
			}
			seen[ci] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadUnits(t *testing.T) {
	// Sparse: k and |J| elements at the configured per-element cost.
	up, down := payloadUnits(&gs.FABTopK{}, 1000, 50, 40, 2)
	if up != 100 || down != 80 {
		t.Fatalf("sparse units = %v/%v, want 100/80", up, down)
	}
	// Quantized elements are cheaper.
	up, down = payloadUnits(&gs.FABTopK{}, 1000, 50, 40, 1.125)
	if up != 56.25 || down != 45 {
		t.Fatalf("quantized units = %v/%v", up, down)
	}
	// Dense strategies ship D both ways regardless.
	up, down = payloadUnits(gs.SendAll{}, 1000, 50, 1000, 2)
	if up != 1000 || down != 1000 {
		t.Fatalf("dense units = %v/%v, want 1000/1000", up, down)
	}
}

// TestResidualMassConservation verifies the error-feedback ledger of
// Algorithm 1 on a hand-driven round: for each client and coordinate,
// accumulated-gradient mass is either still in the residual a_i or was
// consumed by the server (j ∈ J ∩ J_i) — nothing is lost or duplicated.
func TestResidualMassConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d, n, k = 60, 4, 8
	accs := make([][]float64, n)
	uploads := make([]gs.ClientUpload, n)
	for i := range accs {
		accs[i] = make([]float64, d)
		for j := range accs[i] {
			accs[i][j] = rng.NormFloat64()
		}
		uploads[i] = gs.ClientUpload{Pairs: sparse.TopK(accs[i], k), Weight: 1 + float64(i)}
	}
	before := make([][]float64, n)
	for i := range accs {
		before[i] = append([]float64(nil), accs[i]...)
	}

	agg, _ := (&gs.FABTopK{}).AggregateInto(gs.NewAggScratch(0), uploads, k, 0)
	inJ := make(map[int]bool, len(agg.Indices))
	for _, j := range agg.Indices {
		inJ[j] = true
	}
	// The engine's residual update (lines 16–17, subtraction form).
	consumed := make([][]float64, n)
	for i := range accs {
		consumed[i] = make([]float64, d)
		pairs := uploads[i].Pairs
		for vi, j := range pairs.Idx {
			if inJ[j] {
				accs[i][j] -= pairs.Val[vi]
				consumed[i][j] = pairs.Val[vi]
			}
		}
	}
	// Ledger: before == residual + consumed, coordinate by coordinate.
	for i := range accs {
		for j := 0; j < d; j++ {
			if got := accs[i][j] + consumed[i][j]; got != before[i][j] {
				t.Fatalf("client %d coord %d: %v + %v != %v", i, j, accs[i][j], consumed[i][j], before[i][j])
			}
		}
	}
	// And the consumed mass is exactly what the aggregation used: b_j
	// reconstructed from the consumed entries matches agg.Values.
	var totalW float64
	for _, u := range uploads {
		totalW += u.Weight
	}
	for vi, j := range agg.Indices {
		var b float64
		for i := range consumed {
			b += uploads[i].Weight / totalW * consumed[i][j]
		}
		if math.Abs(b-agg.Values[vi]) > 1e-12 {
			t.Fatalf("coord %d: reconstructed b=%v, server b=%v", j, b, agg.Values[vi])
		}
	}
}

// TestProbeDoesNotPerturbTrajectory: a FixedK run (no probe) and an
// adaptive run share the first round's batches and weights; since probes
// are applied and exactly reverted, the first-round loss must agree.
func TestProbeDoesNotPerturbTrajectory(t *testing.T) {
	base := smallConfig()
	base.Rounds = 1

	fixed, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := smallConfig()
	adaptive.Rounds = 1
	d := adaptive.Model().D()
	adaptive.Controller = coreAdaptive(d)
	// Same k on round 1 (controller starts at kmax): align by forcing
	// FixedK to D too.
	base2 := smallConfig()
	base2.Rounds = 1
	base2.Controller = coreFixed(float64(d))
	fixed2, err := Run(base2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[0].Loss != fixed2.Stats[0].Loss {
		t.Fatalf("probe perturbed the training loss: %v != %v", res.Stats[0].Loss, fixed2.Stats[0].Loss)
	}
	_ = fixed
}
