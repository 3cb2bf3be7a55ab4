package gs

import (
	"math"
	"slices"

	"fedsparse/internal/par"
	"fedsparse/internal/tensor"
)

// This file is the coordinate-sharded aggregation tier: the server-side
// selection and reduction of scratch.go split into S independent range
// reductions (one per shard, each owning a contiguous slice of the
// coordinate space) plus a coordinator-side selection over the merged
// shard results. The split is exact, not approximate:
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
// count, which the differential suites in this package, internal/fl, and
// internal/transport pin. ShardedScratch runs the tier in-process (the
// fl engine's Shards knob); internal/transport runs the same two entry
// points — RangeReduceInto on shard processes, SelectSharded on the
// coordinator — over real connections.

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
// rank — the in-process case. Shards that received routed range-slices
// (whose positions are no longer global ranks) must pass the routed
// ranks.
//
// Every coordinate's additions run in ascending client order, upload
// order within a client — the exact chain of the sequential reference —
// and the total weight C is taken over all uploads (clients with no pairs
// in range still contribute their C_i), so Sum is bit-identical to what
// any single-process path computes for that coordinate.
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
	slices.Sort(members)
	s.rangeIdx = members
	s.rangeSum = growFloats(s.rangeSum, len(members))
	s.rangeRank = growInts(s.rangeRank, len(members))
	for i, j := range members {
		s.rangeSum[i] = s.sums[j]
		s.rangeRank[i] = s.minRank[j]
	}
	return RangeAgg{Idx: s.rangeIdx, Sum: s.rangeSum, MinRank: s.rangeRank}
}

// ShardSelector is the coordinator side of the sharded aggregation tier,
// implemented by every built-in strategy: given the merged shard
// reductions (red.Idx globally ascending — shard ranges are contiguous
// and disjoint, so concatenating per-shard results in shard order yields
// this) and the original uploads, it produces the main and probe
// Aggregates bit-identical to AggregateInto. The uploads are needed for
// the selection metadata a reduction does not carry (FAB's rank-(κ+1)
// fill candidates, the per-client fairness counts); their floating-point
// values are never re-accumulated — Values come from red.Sum alone.
type ShardSelector interface {
	SelectSharded(s *AggScratch, red RangeAgg, uploads []ClientUpload, k, probeK int) (main, probe Aggregate)
}

// loadRangedSums installs the merged reduction's exact b_j into the sums
// slab so finish(…, sumsValid=true) can emit them without re-accumulating.
func (s *AggScratch) loadRangedSums(red RangeAgg) {
	for i, j := range red.Idx {
		s.sums[j] = red.Sum[i]
	}
}

// fabSelectRanged is fabSelect over a merged reduction: the κ search runs
// on a histogram of minimal ranks — |∪_i J_i^κ| = #{j : MinRank(j) < κ},
// since a coordinate is in the rank-κ union iff some client ranks it
// before κ — and the rank-(κ+1) fill replicates the reference comparator
// over candidates drawn from the original uploads.
func (s *AggScratch) fabSelectRanged(red RangeAgg, uploads []ClientUpload, k int,
	mark []int32, gen int32, members []int) []int {

	maxLen := 0
	for _, u := range uploads {
		maxLen = max(maxLen, u.Pairs.Len())
	}
	kappa := s.kappaRanged(red, maxLen, k)
	for i, j := range red.Idx {
		if red.MinRank[i] < kappa {
			if mark[j] != gen {
				mark[j] = gen
				members = append(members, j)
			}
		}
	}
	if len(members) < k {
		s.cands = s.cands[:0]
		for ci, u := range uploads {
			if kappa < u.Pairs.Len() {
				j := u.Pairs.Idx[kappa]
				if mark[j] != gen {
					s.cands = append(s.cands, fabCand{j, math.Abs(u.Pairs.Val[kappa]), ci})
				}
			}
		}
		slices.SortFunc(s.cands, compareFABCands)
		for _, cd := range s.cands {
			if len(members) >= k {
				break
			}
			if mark[cd.idx] != gen {
				mark[cd.idx] = gen
				members = append(members, cd.idx)
			}
		}
	}
	return members
}

func (st *FABTopK) SelectSharded(s *AggScratch, red RangeAgg, uploads []ClientUpload, k, probeK int) (Aggregate, Aggregate) {
	s.prepare(uploads)
	s.loadRangedSums(red)
	s.beginMain()
	s.membersMain = s.fabSelectRanged(red, uploads, k, s.markMain, s.genMain, s.membersMain)
	hasProbe := probeK > 0
	if hasProbe {
		s.beginProbe()
		s.membersProbe = s.fabSelectRanged(red, uploads, probeK, s.markProbe, s.genProbe, s.membersProbe)
	}
	return s.finish(uploads, hasProbe, true)
}

func (FUBTopK) SelectSharded(s *AggScratch, red RangeAgg, uploads []ClientUpload, k, probeK int) (Aggregate, Aggregate) {
	s.prepare(uploads)
	s.loadRangedSums(red)
	// The merged reduction already holds every uploaded coordinate's exact
	// b_j, so FUB's ranking needs no accumulation pass of its own.
	s.entries = s.entries[:0]
	for i, j := range red.Idx {
		s.entries = append(s.entries, fubEntry{j, math.Abs(red.Sum[i])})
	}
	slices.SortFunc(s.entries, compareFUBEntries)
	s.beginMain()
	for _, e := range s.entries[:min(k, len(s.entries))] {
		s.addMain(e.idx)
	}
	hasProbe := probeK > 0
	if hasProbe {
		s.beginProbe()
		for _, e := range s.entries[:min(probeK, len(s.entries))] {
			s.addProbe(e.idx)
		}
	}
	return s.finish(uploads, hasProbe, true)
}

// unionSelectSharded serves the strategies whose selection is the whole
// upload union: every merged coordinate is a member, and the probe
// selection is the same set.
func unionSelectSharded(s *AggScratch, red RangeAgg, uploads []ClientUpload, probeK int) (Aggregate, Aggregate) {
	s.prepare(uploads)
	s.loadRangedSums(red)
	s.beginMain()
	for _, j := range red.Idx {
		s.addMain(j)
	}
	hasProbe := probeK > 0
	if hasProbe {
		s.beginProbe()
		for _, j := range red.Idx {
			s.addProbe(j)
		}
	}
	return s.finish(uploads, hasProbe, true)
}

func (UniTopK) SelectSharded(s *AggScratch, red RangeAgg, uploads []ClientUpload, _, probeK int) (Aggregate, Aggregate) {
	return unionSelectSharded(s, red, uploads, probeK)
}

func (PeriodicK) SelectSharded(s *AggScratch, red RangeAgg, uploads []ClientUpload, _, probeK int) (Aggregate, Aggregate) {
	return unionSelectSharded(s, red, uploads, probeK)
}

func (SendAll) SelectSharded(s *AggScratch, red RangeAgg, uploads []ClientUpload, _, probeK int) (Aggregate, Aggregate) {
	return unionSelectSharded(s, red, uploads, probeK)
}

var (
	_ ShardSelector = (*FABTopK)(nil)
	_ ShardSelector = FUBTopK{}
	_ ShardSelector = UniTopK{}
	_ ShardSelector = PeriodicK{}
	_ ShardSelector = SendAll{}
)

// ShardedScratch runs the whole sharded tier in one process: S range
// reductions over ChunkBounds coordinate slices (fanned out over the
// worker pool — each shard owns its scratch, so the fan-out is safe),
// merged in shard order, selected by the coordinator scratch. It backs
// the fl engine's Config.Shards knob and is the in-process oracle the
// transport tier is differential-tested against. Like AggScratch it is
// single-goroutine state whose returned Aggregates stay valid until the
// next Aggregate call. Memory is O(shards · dim) for the per-shard slabs.
type ShardedScratch struct {
	dim     int
	workers int
	sel     *AggScratch
	shards  []*AggScratch
	reds    []RangeAgg

	mergedIdx  []int
	mergedSum  []float64
	mergedRank []int
}

// NewShardedScratch builds a sharded aggregation scratch for
// dimension-dim models split over the given shard count; workers bounds
// the shard-reduction fan-out (<= 1 keeps everything sequential).
func NewShardedScratch(shards, workers, dim int) *ShardedScratch {
	if shards < 1 {
		panic("gs: NewShardedScratch needs at least 1 shard")
	}
	ss := &ShardedScratch{
		dim:     dim,
		workers: workers,
		sel:     NewAggScratch(0),
		reds:    make([]RangeAgg, shards),
	}
	ss.sel.Reserve(dim)
	for i := 0; i < shards; i++ {
		sc := NewAggScratch(0)
		sc.Reserve(dim)
		ss.shards = append(ss.shards, sc)
	}
	return ss
}

// Aggregate computes the main and probe Aggregates through the sharded
// tier — bit-identical to strat.AggregateInto on a single scratch for
// every shard count and worker count.
func (ss *ShardedScratch) Aggregate(strat ShardSelector, uploads []ClientUpload, k, probeK int) (Aggregate, Aggregate) {
	nShards := len(ss.shards)
	// The sequential path loops inline — a par.For closure would cost the
	// warm scratch its zero-alloc guarantee (same trade as gs.countUsed).
	if ss.workers > 1 {
		par.For(ss.workers, nShards, func(i, _ int) {
			ss.reduceShard(i, uploads)
		})
	} else {
		for i := 0; i < nShards; i++ {
			ss.reduceShard(i, uploads)
		}
	}
	total := 0
	for _, r := range ss.reds {
		total += len(r.Idx)
	}
	ss.mergedIdx = growInts(ss.mergedIdx, total)
	ss.mergedSum = growFloats(ss.mergedSum, total)
	ss.mergedRank = growInts(ss.mergedRank, total)
	off := 0
	for _, r := range ss.reds {
		copy(ss.mergedIdx[off:], r.Idx)
		copy(ss.mergedSum[off:], r.Sum)
		copy(ss.mergedRank[off:], r.MinRank)
		off += len(r.Idx)
	}
	merged := RangeAgg{Idx: ss.mergedIdx[:total], Sum: ss.mergedSum[:total], MinRank: ss.mergedRank[:total]}
	return strat.SelectSharded(ss.sel, merged, uploads, k, probeK)
}

// reduceShard runs shard i's range reduction into its own scratch.
func (ss *ShardedScratch) reduceShard(i int, uploads []ClientUpload) {
	lo, hi := tensor.ChunkBounds(ss.dim, len(ss.shards), i)
	ss.reds[i] = RangeReduceInto(ss.shards[i], uploads, nil, lo, hi)
}
