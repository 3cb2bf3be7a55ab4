package gs

import (
	"math"
	"math/rand"
	"sort"
)

// This file keeps the original map-based aggregation paths as the
// reference implementation. The product (scratch.go) aggregates through
// epoch-stamped dense scratch arrays instead of hashing; the differential
// suite holds every entry point bit-identical to referenceAggregate on
// every strategy, and the property tests exercise the reference helpers
// directly. referenceAggregate is O(Σk_i) map operations per call and
// allocates its working set every time — measurably slower but obviously
// correct. referenceMandate is the map-based periodic-k draw, the oracle
// of MandatedIndicesInto's rng stream.

// aggregateOver computes b_j for every j in the index set `in`, using only
// clients whose upload contains j, and fills PerClientUsed.
func aggregateOver(uploads []ClientUpload, in map[int]bool) Aggregate {
	c := totalWeight(uploads)
	sums := make(map[int]float64, len(in))
	used := make([]int, len(uploads))
	for ci, u := range uploads {
		w := u.Weight / c
		for pi, j := range u.Pairs.Idx {
			if !in[j] {
				continue
			}
			sums[j] += w * u.Pairs.Val[pi]
			used[ci]++
		}
	}
	agg := Aggregate{
		Indices:       make([]int, 0, len(in)),
		PerClientUsed: used,
	}
	for j := range in {
		agg.Indices = append(agg.Indices, j)
	}
	sort.Ints(agg.Indices)
	agg.Values = make([]float64, len(agg.Indices))
	for i, j := range agg.Indices {
		agg.Values[i] = sums[j]
	}
	return agg
}

// unionUpTo returns ∪_i J_i^κ: the union of every client's top-κ indices.
func unionUpTo(uploads []ClientUpload, kappa int) map[int]bool {
	in := make(map[int]bool, kappa*len(uploads))
	for _, u := range uploads {
		n := kappa
		if n > u.Pairs.Len() {
			n = u.Pairs.Len()
		}
		for _, j := range u.Pairs.Idx[:n] {
			in[j] = true
		}
	}
	return in
}

// selectKappaBinary finds the largest κ with |∪_i J_i^κ| ≤ k by binary
// search, the paper's O(N·D·logD) procedure.
func selectKappaBinary(uploads []ClientUpload, k int) int {
	maxLen := 0
	for _, u := range uploads {
		if u.Pairs.Len() > maxLen {
			maxLen = u.Pairs.Len()
		}
	}
	lo, hi := 0, maxLen
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if len(unionUpTo(uploads, mid)) <= k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// selectKappaLinear finds the same κ by growing the union one rank at a
// time (O(N·D) total work) — the second, independent oracle the tests
// hold the production searches against.
func selectKappaLinear(uploads []ClientUpload, k int) int {
	maxLen := 0
	for _, u := range uploads {
		if u.Pairs.Len() > maxLen {
			maxLen = u.Pairs.Len()
		}
	}
	in := make(map[int]bool)
	for kappa := 1; kappa <= maxLen; kappa++ {
		// Grow the union with every client's rank-κ element (0-based κ−1).
		for _, u := range uploads {
			if kappa <= u.Pairs.Len() {
				in[u.Pairs.Idx[kappa-1]] = true
			}
		}
		if len(in) > k {
			return kappa - 1
		}
	}
	return maxLen
}

// referenceAggregate runs the original map-based Aggregate of the given
// strategy — the oracle the differential tests compare the scratch-based
// paths against.
func referenceAggregate(s Strategy, uploads []ClientUpload, k int) Aggregate {
	switch s.(type) {
	case *FABTopK:
		return referenceFAB(uploads, k)
	case FUBTopK:
		return referenceFUB(uploads, k)
	case UniTopK, PeriodicK, SendAll:
		return referenceUnion(uploads)
	default:
		panic("gs: referenceAggregate: unknown strategy " + s.Name())
	}
}

func referenceFAB(uploads []ClientUpload, k int) Aggregate {
	kappa := selectKappaBinary(uploads, k)
	in := unionUpTo(uploads, kappa)

	// Fill to k with the largest-|value| rank-(κ+1) candidates not already
	// selected (paper: elements of (∪J^{κ+1}) \ (∪J^κ)).
	if len(in) < k {
		type cand struct {
			idx    int
			absVal float64
			client int
		}
		var cands []cand
		for ci, u := range uploads {
			if kappa < u.Pairs.Len() {
				j := u.Pairs.Idx[kappa]
				if !in[j] {
					cands = append(cands, cand{j, math.Abs(u.Pairs.Val[kappa]), ci})
				}
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].absVal != cands[b].absVal {
				return cands[a].absVal > cands[b].absVal
			}
			if cands[a].idx != cands[b].idx {
				return cands[a].idx < cands[b].idx
			}
			return cands[a].client < cands[b].client
		})
		for _, cd := range cands {
			if len(in) >= k {
				break
			}
			in[cd.idx] = true // duplicates collapse naturally
		}
	}
	return aggregateOver(uploads, in)
}

func referenceFUB(uploads []ClientUpload, k int) Aggregate {
	c := totalWeight(uploads)
	sums := make(map[int]float64)
	for _, u := range uploads {
		w := u.Weight / c
		for pi, j := range u.Pairs.Idx {
			sums[j] += w * u.Pairs.Val[pi]
		}
	}
	type entry struct {
		idx int
		abs float64
	}
	entries := make([]entry, 0, len(sums))
	for j, v := range sums {
		entries = append(entries, entry{j, math.Abs(v)})
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].abs != entries[b].abs {
			return entries[a].abs > entries[b].abs
		}
		return entries[a].idx < entries[b].idx
	})
	if k > len(entries) {
		k = len(entries)
	}
	in := make(map[int]bool, k)
	for _, e := range entries[:k] {
		in[e.idx] = true
	}
	return aggregateOver(uploads, in)
}

func referenceUnion(uploads []ClientUpload) Aggregate {
	in := make(map[int]bool)
	for _, u := range uploads {
		for _, j := range u.Pairs.Idx {
			in[j] = true
		}
	}
	return aggregateOver(uploads, in)
}

// referenceRange is the map reference of RangeReduceInto over un-sliced
// uploads: the uploaded coordinates of [lo, hi) ascending, their b_j by
// aggregateOver's chain, and the smallest upload position at which each
// appears.
func referenceRange(uploads []ClientUpload, lo, hi int) (idx []int, sum []float64, minRank []int) {
	in := make(map[int]bool)
	rank := make(map[int]int)
	for _, u := range uploads {
		for pi, j := range u.Pairs.Idx {
			if j < lo || j >= hi {
				continue
			}
			if r, ok := rank[j]; !ok || pi < r {
				rank[j] = pi
			}
			in[j] = true
		}
	}
	agg := aggregateOver(uploads, in)
	minRank = make([]int, len(agg.Indices))
	for i, j := range agg.Indices {
		minRank[i] = rank[j]
	}
	return agg.Indices, agg.Values, minRank
}

// referenceMandate is PeriodicK's original draw: a partial Fisher–Yates
// over [0, d) for k distinct indices, with the displaced entries in a map,
// sorted. k ≥ d mandates every index and draws nothing.
func referenceMandate(d, k int, rng *rand.Rand) []int {
	if k >= d {
		out := make([]int, d)
		for i := range out {
			out[i] = i
		}
		return out
	}
	picked := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(d-i)
		vi, oki := picked[i]
		vj, okj := picked[j]
		if !oki {
			vi = i
		}
		if !okj {
			vj = j
		}
		out[i] = vj
		picked[j] = vi
	}
	sort.Ints(out)
	return out
}
