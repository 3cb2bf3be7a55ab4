package gs

import "fedsparse/internal/par"

// This file is the range reduction the shard processes of
// internal/transport run: the server-side reduction of scratch.go
// restricted to one contiguous slice of the coordinate space, producing
// the per-coordinate facts the coordinator's selection (direct.go) needs.
// The split is exact, not approximate:
//
//   - every coordinate lives in exactly one shard, so its weighted
//     addition chain b_j = Σ_i (C_i/C)·a_ij runs in ascending client
//     order inside that one shard — the same operation sequence as the
//     single-process paths;
//   - selection needs only per-coordinate facts (the exact b_j and the
//     minimal upload rank at which j appears), both of which a shard can
//     compute locally for its range; the coordinator's selection over the
//     merged facts is integer/comparator work with the reference's strict
//     total orders.
//
// Results are therefore bit-identical to AggregateInto at every shard
// count, which the differential suites in this package and in
// internal/transport pin.
//
// The reduction marks every coordinate it meets in the scratch's epoch
// slab, so the ascending coordinate list is read back off the slab's
// window [lo, hi) when the range is dense enough — the selections'
// emitter's rule (ascending in scratch.go) — and sorted otherwise. A
// direct-plane shard's range is dense: on the tcp_direct_s2 benchmark's
// shape about half its coordinates are uploaded each round, and sorting
// them costs about 15 % of that workload's CPU where the scan costs
// under 1 % (docs/ARCHITECTURE.md has the profile).

// RangeAgg is one reduction over a contiguous coordinate range: for every
// distinct uploaded coordinate j in the range, ascending, the exact
// weighted sum b_j over all clients and the minimal 0-based rank at which
// j appears in any client's upload (the κ-search input of FAB's
// selection). Slices returned by RangeReduceInto alias the scratch's
// buffers and stay valid only until its next call.
type RangeAgg struct {
	Idx     []int
	Sum     []float64
	MinRank []int
}

// RangeReduceInto computes the range-restricted reduction of the uploads
// over [lo, hi) into scratch s. Pairs outside the range are skipped.
//
// ranks supplies each pair's rank in the client's original upload:
// ranks[ci][pi] corresponds to uploads[ci].Pairs position pi. A nil ranks
// means the uploads are un-sliced originals and the pair position is the
// rank. Shards that received range slices (whose positions are no longer
// global ranks) must pass the ranks that came with them.
//
// Every coordinate's additions run in ascending client order, upload
// order within a client — the exact chain of the sequential reference —
// and the total weight C is taken over all uploads (clients with no pairs
// in range still contribute their C_i), so Sum is bit-identical to what
// any single-process path computes for that coordinate.
//
// The coordinates come out ascending: read in order off the epoch slab
// over [lo, min(hi, slab end)) when they number at least 1/16 of that
// width, sorted when sparser (ascending, scratch.go). Either way the set,
// the order, Sum and MinRank are the same.
func RangeReduceInto(s *AggScratch, uploads []ClientUpload, ranks [][]int, lo, hi int) RangeAgg {
	s.prepare(uploads)
	gen := par.BumpEpoch(&s.genTmp, s.markTmp)
	members := s.rangeIdx[:0]
	c := totalWeight(uploads)
	for ci, u := range uploads {
		w := u.Weight / c
		for pi, j := range u.Pairs.Idx {
			if j < lo || j >= hi {
				continue
			}
			r := pi
			if ranks != nil {
				r = ranks[ci][pi]
			}
			if s.markTmp[j] != gen {
				s.markTmp[j] = gen
				s.sums[j] = 0
				s.minRank[j] = r
				members = append(members, j)
			} else if r < s.minRank[j] {
				s.minRank[j] = r
			}
			s.sums[j] += w * u.Pairs.Val[pi]
		}
	}
	// An un-reserved scratch's slab ends at the largest uploaded
	// coordinate, which may lie before hi, or before lo.
	a := min(max(lo, 0), len(s.markTmp))
	ascending(members, s.markTmp[a:max(a, min(hi, len(s.markTmp)))], gen, a)
	s.rangeIdx = members
	s.rangeSum = growFloats(s.rangeSum, len(members))
	s.rangeRank = growInts(s.rangeRank, len(members))
	for i, j := range members {
		s.rangeSum[i] = s.sums[j]
		s.rangeRank[i] = s.minRank[j]
	}
	return RangeAgg{Idx: s.rangeIdx, Sum: s.rangeSum, MinRank: s.rangeRank}
}
