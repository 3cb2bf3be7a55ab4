package fl

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fedsparse/internal/tensor"
)

// pickParticipantsInto is the Cohort draw in its roster-free form:
// everyone when cohort is 0 or at least n, otherwise cohort clients
// uniformly without replacement (sorted). The round loop draws through
// popState.drawInto — the same two steps over the active population;
// this form is the one TestPickParticipantsSequenceCompat pins, output
// and rng consumption, against the legacy rng.Perm(n)[:count]: the
// anchor that keeps whole runs bit-identical to historical behavior.
func pickParticipantsInto(dst []int, cohort, n int, rng *rand.Rand) []int {
	count, shuffle := (&popState{cohort: cohort}).drawCount(n)
	return drawPositions(dst, count, shuffle, n, rng)
}

// TestDrawPositionsMatchesPerm pins the shuffle that keeps only what it
// returns against the full shuffle it replaced, rng.Perm(n)[:count]
// sorted, at the sizes where the two part ways — a count of one, most
// of n, and populations of 64Ki and 100k — for 20 seeds each: the same
// positions, and the same next Int63 from both rngs (the same n Intn
// draws in the same order).
func TestDrawPositionsMatchesPerm(t *testing.T) {
	var dst []int
	for _, tc := range []struct{ n, count int }{{5, 1}, {10, 3}, {1000, 999}, {65536, 17}, {100000, 64}} {
		for seed := int64(1); seed <= 20; seed++ {
			rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := rngA.Perm(tc.n)[:tc.count]
			sort.Ints(want)
			dst = drawPositions(dst, tc.count, true, tc.n, rngB)
			if !slices.Equal(dst, want) {
				t.Fatalf("n=%d count=%d seed %d: drew %v, want %v", tc.n, tc.count, seed, dst, want)
			}
			if a, b := rngA.Int63(), rngB.Int63(); a != b {
				t.Fatalf("n=%d count=%d seed %d: next Int63 %d, want %d", tc.n, tc.count, seed, b, a)
			}
		}
	}
}

// TestPickParticipantsSequenceCompat pins the allocation-free participant
// draw against the legacy implementation it replaced: rng.Perm(n)[:count]
// followed by a sort. Same seeds must give the same subset AND leave the
// rng in the same state (the draw consumes exactly rand.Perm's n Intn
// calls), so whole engine runs stay bit-identical to historical behavior.
func TestPickParticipantsSequenceCompat(t *testing.T) {
	legacy := func(cohort, n int, rng *rand.Rand) []int {
		if cohort <= 0 || cohort >= n {
			out := make([]int, n)
			for i := range out {
				out[i] = i
			}
			return out
		}
		perm := rng.Perm(n)[:cohort]
		sort.Ints(perm)
		return perm
	}
	for seed := int64(0); seed < 50; seed++ {
		metaRng := rand.New(rand.NewSource(seed + 100))
		n := 1 + metaRng.Intn(40)
		cohort := metaRng.Intn(n + 3) // sometimes 0 or ≥ n: the everyone path
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))
		var dst []int
		for round := 0; round < 5; round++ {
			want := legacy(cohort, n, rngA)
			dst = pickParticipantsInto(dst, cohort, n, rngB)
			if len(want) != len(dst) {
				t.Fatalf("seed %d round %d: %d participants, want %d", seed, round, len(dst), len(want))
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("seed %d round %d: participants %v, want %v", seed, round, dst, want)
				}
			}
			// Streams must stay aligned across rounds.
			if a, b := rngA.Int63(), rngB.Int63(); a != b {
				t.Fatalf("seed %d round %d: rng streams diverged (%d vs %d)", seed, round, a, b)
			}
		}
	}
}

// TestReduceWeightedMatchesSequential pins the fixed-order chunked
// reduction: at every worker count the result is bit-identical to the
// sequential Zero + in-order AXPY loop it parallelizes.
func TestReduceWeightedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tc := range []struct{ n, d int }{{1, 7}, {3, 100}, {10, 1000}, {17, 4097}} {
		vecs := make([][]float64, tc.n)
		weights := make([]float64, tc.n)
		for c := range vecs {
			weights[c] = rng.Float64()
			vecs[c] = make([]float64, tc.d)
			for j := range vecs[c] {
				vecs[c][j] = rng.NormFloat64()
			}
		}
		want := make([]float64, tc.d)
		tensor.Zero(want)
		for c := range vecs {
			tensor.AXPY(weights[c], vecs[c], want)
		}
		got := make([]float64, tc.d)
		for _, workers := range []int{0, 1, 2, 4, 8, 33} {
			for j := range got {
				got[j] = math.NaN() // ensure every coordinate is written
			}
			reduceWeighted(workers, got, weights, vecs)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d d=%d workers=%d: coord %d = %v, want %v",
						tc.n, tc.d, workers, j, got[j], want[j])
				}
			}
		}
	}
}
