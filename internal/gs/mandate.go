package gs

import (
	"math/rand"
	"sort"
)

// This file is the mandated-index draw of periodic-k and send-all
// (Strategy.MandatedIndicesInto). The round engine keeps one
// MandateScratch in its round arena, so the draw allocates nothing in the
// steady state.

// MandateScratch owns the reusable buffers of MandatedIndicesInto. The
// zero value is ready to use. Like the other scratch types it is
// single-goroutine state, and returned slices stay valid only until the
// next call (identity results additionally alias the internal permutation
// and must not be modified).
type MandateScratch struct {
	// perm is maintained as the identity permutation of [0, d) between
	// calls: the partial Fisher–Yates draw records its writes in the undo
	// log and reverts them before returning, so the next round starts
	// from identity again without an O(d) rebuild.
	perm  []int
	undoJ []int
	undoV []int
	out   []int
}

// identity grows (and returns) the maintained identity permutation to
// dimension d.
func (ms *MandateScratch) identity(d int) []int {
	if len(ms.perm) < d {
		perm := make([]int, d)
		copy(perm, ms.perm)
		for i := len(ms.perm); i < d; i++ {
			perm[i] = i
		}
		ms.perm = perm
	}
	return ms.perm[:d]
}

// MandatedIndicesInto is PeriodicK's draw: a partial Fisher–Yates for k
// distinct indices of [0, d), sorted, running over the maintained
// identity permutation with an undo log. Its rng stream and output are
// those of the map-based draw it replaced, which reference_test.go keeps
// as the oracle (TestMandatedIntoSequenceCompat pins both).
func (PeriodicK) MandatedIndicesInto(ms *MandateScratch, _, d, k int, rng *rand.Rand) []int {
	perm := ms.identity(d)
	if k >= d {
		return perm
	}
	if cap(ms.out) < k {
		ms.out = make([]int, k)
		ms.undoJ = make([]int, k)
		ms.undoV = make([]int, k)
	}
	out, undoJ, undoV := ms.out[:k], ms.undoJ[:k], ms.undoV[:k]
	for i := 0; i < k; i++ {
		j := i + rng.Intn(d-i)
		undoJ[i], undoV[i] = j, perm[j]
		out[i] = perm[j]
		perm[j] = perm[i]
	}
	// Restore identity in reverse write order (a slot overwritten twice
	// must get its older value back last).
	for i := k - 1; i >= 0; i-- {
		perm[undoJ[i]] = undoV[i]
	}
	sort.Ints(out)
	return out
}

// MandatedIndicesInto for SendAll is the identity index set itself.
func (SendAll) MandatedIndicesInto(ms *MandateScratch, _, d, _ int, _ *rand.Rand) []int {
	return ms.identity(d)
}
