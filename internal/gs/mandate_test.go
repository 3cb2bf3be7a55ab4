package gs

import (
	"math/rand"
	"testing"
)

// TestMandatedIntoSequenceCompat pins PeriodicK's scratch-backed draw
// against the map-based referenceMandate it replaced: identical output
// indices AND identical rng consumption for the same seed, so the draw
// cannot perturb any seeded trajectory.
func TestMandatedIntoSequenceCompat(t *testing.T) {
	cases := []struct{ d, k int }{
		{10, 1}, {10, 3}, {10, 9}, {10, 10}, {10, 25}, // k ≥ d: identity
		{100, 17}, {500, 499}, {1000, 100},
	}
	for seed := int64(1); seed <= 5; seed++ {
		var ms MandateScratch
		for _, tc := range cases {
			for round := 1; round <= 4; round++ {
				refRng := rand.New(rand.NewSource(seed))
				intoRng := rand.New(rand.NewSource(seed))
				want := referenceMandate(tc.d, tc.k, refRng)
				got := PeriodicK{}.MandatedIndicesInto(&ms, round, tc.d, tc.k, intoRng)
				if len(want) != len(got) {
					t.Fatalf("d=%d k=%d: %d vs %d indices", tc.d, tc.k, len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("d=%d k=%d seed=%d: index %d: %d vs %d", tc.d, tc.k, seed, i, want[i], got[i])
					}
				}
				if a, b := refRng.Int63(), intoRng.Int63(); a != b {
					t.Fatalf("d=%d k=%d seed=%d: rng streams diverged (%d vs %d)", tc.d, tc.k, seed, a, b)
				}
			}
		}
	}
}

// TestMandatedIntoRestoresIdentity checks the undo log: after any draw the
// scratch's permutation is the identity again, so consecutive rounds see
// exactly the same starting state the reference's fresh map represents.
func TestMandatedIntoRestoresIdentity(t *testing.T) {
	var ms MandateScratch
	rng := rand.New(rand.NewSource(9))
	const d = 200
	for round := 0; round < 50; round++ {
		k := 1 + rng.Intn(d-1)
		PeriodicK{}.MandatedIndicesInto(&ms, round, d, k, rng)
		for i, v := range ms.perm[:d] {
			if v != i {
				t.Fatalf("round %d (k=%d): perm[%d] = %d after undo, want identity", round, k, i, v)
			}
		}
	}
}

// TestMandatedIntoSendAll checks the dense strategy returns the identity
// index set without consuming randomness.
func TestMandatedIntoSendAll(t *testing.T) {
	var ms MandateScratch
	got := SendAll{}.MandatedIndicesInto(&ms, 1, 7, 3, nil)
	if len(got) != 7 {
		t.Fatalf("got %d indices, want 7", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("index %d = %d, want identity", i, v)
		}
	}
}

// TestMandatedIntoAllocs is the allocation gate: warm draws allocate
// nothing for either strategy.
func TestMandatedIntoAllocs(t *testing.T) {
	var ms MandateScratch
	rng := rand.New(rand.NewSource(10))
	const d, k = 5000, 200
	PeriodicK{}.MandatedIndicesInto(&ms, 1, d, k, rng) // warm
	allocs := testing.AllocsPerRun(20, func() {
		PeriodicK{}.MandatedIndicesInto(&ms, 1, d, k, rng)
	})
	if allocs != 0 {
		t.Fatalf("periodic-k: %v allocs/op on warm scratch, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		SendAll{}.MandatedIndicesInto(&ms, 1, d, 0, nil)
	})
	if allocs != 0 {
		t.Fatalf("send-all: %v allocs/op on warm scratch, want 0", allocs)
	}
}
