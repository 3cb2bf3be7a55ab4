package gs

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"fedsparse/internal/par"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// This file is the client-direct aggregation tier: the selection side of
// the sharded tier (shard.go) reworked for the topology where clients
// split their top-k upload by coordinate range and send each slice
// straight to the owning shard, so the coordinator never sees a raw
// upload. What the coordinator has instead:
//
//   - the merged per-shard range reductions (RangeAgg: exact b_j sums and
//     minimal upload ranks — what shards compute from the slices);
//   - control-plane metadata: the per-round client upload lengths
//     (integers the clients report alongside their batch loss);
//   - shard-served oracles for the two pieces of per-upload selection
//     metadata a reduction does not carry: FAB's rank-κ fill candidates
//     (each client's rank-κ pair lives in exactly one shard's slice set)
//     and the per-client fairness counts (each uploaded pair is counted
//     by exactly one shard, so shard-local counts sum to |J ∩ J_i|).
//
// DirectSelector is the uploads-free counterpart of ShardSelector built
// from those parts. Its selections are bit-identical to ShardSelector's
// (and therefore to the single-scratch and reference paths): the κ search
// runs on the same min-rank histogram, the fill candidates sort with the
// same strict-total-order comparator (a shard-served candidate set is a
// superset of the routed path's not-yet-member candidates, and the
// apply step's membership check collapses the difference), and the
// output values come from the merged reduction's exact sums. The
// differential suites in this package, internal/fl, and
// internal/transport pin all of it.

// FillCand is one rank-κ fill candidate of FAB's direct-mode selection:
// client `Client`'s rank-Kappa pair is coordinate Idx with |value|
// AbsVal. Shards produce them from their slice sets (AppendFillCands);
// the coordinator merges and sorts them with the reference comparator.
type FillCand struct {
	Idx    int
	AbsVal float64
	Client int
}

// SortFillCands sorts fill candidates with the reference FAB comparator
// (|value| descending, then coordinate, then client) — a strict total
// order, so any merge order of per-shard candidate lists sorts to the
// same sequence.
func SortFillCands(cands []FillCand) {
	slices.SortFunc(cands, func(a, b FillCand) int {
		return compareFABCands(fabCand{a.Idx, a.AbsVal, a.Client}, fabCand{b.Idx, b.AbsVal, b.Client})
	})
}

// AppendFillCands appends, for every client (ascending) whose slice
// contains the pair with rank kappa, that pair as a fill candidate.
// slices[ci]/ranks[ci] are client ci's range slice and its explicit
// local ranks (ascending — the producer contract ValidateRangeSlice
// enforces), so the rank lookup is a binary search.
func AppendFillCands(dst []FillCand, slices []ClientUpload, ranks [][]int, kappa int) []FillCand {
	for ci, u := range slices {
		r := ranks[ci]
		pi := sort.SearchInts(r, kappa)
		if pi < len(r) && r[pi] == kappa {
			dst = append(dst, FillCand{Idx: u.Pairs.Idx[pi], AbsVal: math.Abs(u.Pairs.Val[pi]), Client: ci})
		}
	}
	return dst
}

// ValidateRangeSlice checks one client's range slice — routed by the
// coordinator (RunShard) or uploaded directly by the client — against the
// shard's coordinate range: parallel index/value/rank lengths,
// coordinates inside [lo, hi), no coordinate repeated, finite values (a
// NaN or ±Inf summed into the model stays there, and error feedback keeps
// re-sending it), and strictly ascending non-negative ranks. seen is an
// epoch slab over the coordinate space (seen[j] == gen marks j used); the
// caller bumps gen once per slice. Both shard paths share this helper, so
// the validation the aggregation trusts cannot drift between topologies.
func ValidateRangeSlice(idx []int, val []float64, rank []int, lo, hi int, seen []int, gen int) error {
	if len(idx) != len(val) || len(idx) != len(rank) {
		return fmt.Errorf("gs: inconsistent slice shape (%d/%d/%d entries)", len(idx), len(val), len(rank))
	}
	for pi, j := range idx {
		if j < lo || j >= hi {
			return fmt.Errorf("gs: index %d outside range [%d, %d)", j, lo, hi)
		}
		if seen[j] == gen {
			return fmt.Errorf("gs: duplicate index %d", j)
		}
		seen[j] = gen
		if v := val[pi]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("gs: non-finite value %v at index %d", v, j)
		}
		if rank[pi] < 0 || (pi > 0 && rank[pi] <= rank[pi-1]) {
			return fmt.Errorf("gs: ranks not ascending at entry %d", pi)
		}
	}
	return nil
}

// MemberSpans splits an ascending member list by the partition bounds:
// spans[s] is the subslice of members owned by shard s (aliasing
// members; bounds are the len(shards)+1 chunk boundaries). This is the
// coordinator side of the shard-served downlink fan-out: after
// selection, each shard is sealed with only its span of the member set
// — it reconstructs the values from its own merged sums — and
// concatenating the spans in shard order reproduces the full selection,
// so the clients' reassembled B is the coordinator's bit for bit.
func MemberSpans(members []int, bounds []int, spans [][]int) [][]int {
	spans = spans[:0]
	start := 0
	for s := 0; s+1 < len(bounds); s++ {
		end := start
		for end < len(members) && members[end] < bounds[s+1] {
			end++
		}
		spans = append(spans, members[start:end])
		start = end
	}
	return spans
}

// BuildDownlinkSlice validates one shard's sealed member set against its
// round reduction and appends the broadcast slice the shard serves to
// its clients: members must be strictly ascending and inside [lo, hi),
// and every member must be a reduced coordinate (every selected
// coordinate was uploaded by some client, so a miss means a corrupted
// seal, not a legitimate selection); the values are the shard's own
// exact sums. Shared by the wire shard (transport.RunDirectShard) and
// the in-process model (DirectScratch), so the downlink the clients
// reassemble cannot drift between topologies.
func BuildDownlinkSlice(dstIdx []int, dstVal []float64, members []int, red RangeAgg, lo, hi int) ([]int, []float64, error) {
	p := 0
	for i, j := range members {
		if j < lo || j >= hi || (i > 0 && j <= members[i-1]) {
			return dstIdx, dstVal, fmt.Errorf("gs: sealed member %d out of order or outside range [%d, %d)", j, lo, hi)
		}
		for p < len(red.Idx) && red.Idx[p] < j {
			p++
		}
		if p == len(red.Idx) || red.Idx[p] != j {
			return dstIdx, dstVal, fmt.Errorf("gs: sealed member %d was never uploaded to this shard", j)
		}
		dstIdx = append(dstIdx, j)
		dstVal = append(dstVal, red.Sum[p])
	}
	return dstIdx, dstVal, nil
}

// DirectMeta is the control-plane metadata the direct coordinator has in
// place of the raw uploads.
type DirectMeta struct {
	// NumClients is the round's upload count (sizes the fairness-count
	// outputs).
	NumClients int
	// MaxLen is the longest client upload this round (the κ-search upper
	// bound; clients report their lengths on the control plane).
	MaxLen int
	// Fill serves FAB's rank-kappa candidates from the shards' slice
	// sets. Candidates may include coordinates already selected (the
	// apply step skips them); each client appears at most once. The
	// selection may reorder the returned slice. Only FAB calls it, and
	// only when the rank-κ union leaves the selection short.
	Fill func(kappa int) ([]FillCand, error)
}

// DirectSelector is the coordinator-side selection of the client-direct
// aggregation tier, implemented by every built-in strategy: like
// ShardSelector it selects over merged shard reductions, but without
// ever touching the raw uploads — per-upload metadata comes from
// DirectMeta. The scratch must have been Reserved for the model
// dimension. PerClientUsed on the returned Aggregates is zeroed, not
// tallied: the caller adds the shard-side slice counts (DirectScratch
// does; the wire coordinator's records do not carry fairness counts).
type DirectSelector interface {
	SelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, k, probeK int) (main, probe Aggregate, err error)
}

// kappaRanged finds FAB's rank cutoff from a merged reduction: the
// largest κ in [0, maxLen] whose rank-κ union has at most k coordinates,
// read off a histogram of minimal ranks (|∪_i J_i^κ| = #{j : MinRank(j)
// < κ}). The reference's binary and linear upload searches find the same
// value; the routed and direct sharded selections both use this one.
func (s *AggScratch) kappaRanged(red RangeAgg, maxLen, k int) int {
	s.rankHist = resetInts(s.rankHist, maxLen+1)
	for _, r := range red.MinRank {
		s.rankHist[r]++
	}
	kappa, size := 0, 0
	for kappa < maxLen && size+s.rankHist[kappa] <= k {
		size += s.rankHist[kappa]
		kappa++
	}
	return kappa
}

// fabDirect runs one FAB selection (main or probe) of the direct tier
// into the given membership slab: κ from the min-rank histogram, the
// rank-κ union from the merged reduction, and — when the union leaves
// the selection short — the shard-served fill candidates applied in
// reference-comparator order.
func (s *AggScratch) fabDirect(red RangeAgg, meta DirectMeta, k int,
	mark []int32, gen int32, members []int) ([]int, error) {

	kappa := s.kappaRanged(red, meta.MaxLen, k)
	for i, j := range red.Idx {
		if red.MinRank[i] < kappa {
			if mark[j] != gen {
				mark[j] = gen
				members = append(members, j)
			}
		}
	}
	if len(members) < k {
		cands, err := meta.Fill(kappa)
		if err != nil {
			return members, err
		}
		SortFillCands(cands)
		for _, cd := range cands {
			if len(members) >= k {
				break
			}
			if mark[cd.Idx] != gen {
				mark[cd.Idx] = gen
				members = append(members, cd.Idx)
			}
		}
	}
	return members, nil
}

// finishRanged emits the marked selections of an uploads-free direct
// selection: exact b_j values from the merged reduction, members sorted
// ascending, fairness counts zeroed at the round's client count (see
// DirectSelector).
func (s *AggScratch) finishRanged(red RangeAgg, nClients int, hasProbe bool) (Aggregate, Aggregate) {
	s.loadRangedSums(red)
	slices.Sort(s.membersMain)
	if hasProbe {
		slices.Sort(s.membersProbe)
	}
	s.outUsedMain = resetInts(s.outUsedMain, nClients)
	if hasProbe {
		s.outUsedProbe = resetInts(s.outUsedProbe, nClients)
	}

	s.outIdxMain = growInts(s.outIdxMain, len(s.membersMain))
	s.outValMain = growFloats(s.outValMain, len(s.membersMain))
	copy(s.outIdxMain, s.membersMain)
	for i, j := range s.membersMain {
		s.outValMain[i] = s.sums[j]
	}
	main := Aggregate{Indices: s.outIdxMain, Values: s.outValMain, PerClientUsed: s.outUsedMain}

	var probe Aggregate
	if hasProbe {
		s.outIdxProbe = growInts(s.outIdxProbe, len(s.membersProbe))
		s.outValProbe = growFloats(s.outValProbe, len(s.membersProbe))
		copy(s.outIdxProbe, s.membersProbe)
		for i, j := range s.membersProbe {
			s.outValProbe[i] = s.sums[j]
		}
		probe = Aggregate{Indices: s.outIdxProbe, Values: s.outValProbe, PerClientUsed: s.outUsedProbe}
	}
	return main, probe
}

func (st *FABTopK) SelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, k, probeK int) (Aggregate, Aggregate, error) {
	s.beginMain()
	var err error
	s.membersMain, err = s.fabDirect(red, meta, k, s.markMain, s.genMain, s.membersMain)
	if err != nil {
		return Aggregate{}, Aggregate{}, err
	}
	hasProbe := probeK > 0
	if hasProbe {
		s.beginProbe()
		s.membersProbe, err = s.fabDirect(red, meta, probeK, s.markProbe, s.genProbe, s.membersProbe)
		if err != nil {
			return Aggregate{}, Aggregate{}, err
		}
	}
	main, probe := s.finishRanged(red, meta.NumClients, hasProbe)
	return main, probe, nil
}

func (FUBTopK) SelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, k, probeK int) (Aggregate, Aggregate, error) {
	// The merged reduction holds every uploaded coordinate's exact b_j,
	// so FUB's ranking — like its SelectSharded twin — needs no
	// per-upload metadata at all.
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
	main, probe := s.finishRanged(red, meta.NumClients, hasProbe)
	return main, probe, nil
}

// unionSelectDirect serves the strategies whose selection is the whole
// upload union: every merged coordinate is a member.
func unionSelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, probeK int) (Aggregate, Aggregate, error) {
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
	main, probe := s.finishRanged(red, meta.NumClients, hasProbe)
	return main, probe, nil
}

func (UniTopK) SelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, _, probeK int) (Aggregate, Aggregate, error) {
	return unionSelectDirect(s, red, meta, probeK)
}

func (PeriodicK) SelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, _, probeK int) (Aggregate, Aggregate, error) {
	return unionSelectDirect(s, red, meta, probeK)
}

func (SendAll) SelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, _, probeK int) (Aggregate, Aggregate, error) {
	return unionSelectDirect(s, red, meta, probeK)
}

var (
	_ DirectSelector = (*FABTopK)(nil)
	_ DirectSelector = FUBTopK{}
	_ DirectSelector = UniTopK{}
	_ DirectSelector = PeriodicK{}
	_ DirectSelector = SendAll{}
)

// DirectScratch runs the whole client-direct tier in one process — the
// in-process model behind the fl engine's Config.Direct knob and the
// oracle the transport tier's direct deployment is differential-tested
// against. Per round it performs exactly the direct topology's data
// flow: split every upload into per-shard range slices tagged with
// explicit local ranks (what clients send), reduce each shard's slice
// set with the explicit-rank range reduction (what shards run), select
// over the merged results with shard-served metadata oracles (what the
// coordinator does), tally the fairness counts from the shards' slice
// sets, and run the main selection through the shard-served downlink:
// split the members into per-shard spans (MemberSpans — what the
// coordinator seals each shard with), reconstruct each span's values
// from that shard's own reduction (BuildDownlinkSlice — what a shard
// serves its clients), and reassemble B by concatenation (what a client
// does). Results are bit-identical to ShardedScratch — and therefore to
// the single-process engine — at every shard and worker count.
// Single-goroutine state; returned Aggregates stay valid until the next
// Aggregate call.
type DirectScratch struct {
	dim     int
	workers int
	sel     *AggScratch
	shards  []*AggScratch
	reds    []RangeAgg
	bounds  []int // len(shards)+1 chunk boundaries over [0, dim)

	// Flat per-shard slice storage plus the per-client views over it
	// (rebuilt each round; the views alias the flat buffers).
	offs   [][]int
	idxs   [][]int
	vals   [][]float64
	rnks   [][]int
	ups    [][]ClientUpload
	rks    [][][]int
	maxLen int

	mergedIdx  []int
	mergedSum  []float64
	mergedRank []int
	cands      []FillCand

	// Downlink fan-out model: per-shard member spans and the reassembled
	// broadcast (aliased by the returned main Aggregate).
	spans  [][]int
	outIdx []int
	outVal []float64
}

// NewDirectScratch builds a client-direct aggregation scratch for
// dimension-dim models split over the given shard count; workers bounds
// the shard-reduction fan-out (<= 1 keeps everything sequential).
func NewDirectScratch(shards, workers, dim int) *DirectScratch {
	if shards < 1 {
		panic("gs: NewDirectScratch needs at least 1 shard")
	}
	ds := &DirectScratch{
		dim:     dim,
		workers: workers,
		sel:     NewAggScratch(0),
		reds:    make([]RangeAgg, shards),
		bounds:  make([]int, shards+1),
		offs:    make([][]int, shards),
		idxs:    make([][]int, shards),
		vals:    make([][]float64, shards),
		rnks:    make([][]int, shards),
		ups:     make([][]ClientUpload, shards),
		rks:     make([][][]int, shards),
	}
	ds.sel.Reserve(dim)
	for s := 0; s < shards; s++ {
		sc := NewAggScratch(0)
		sc.Reserve(dim)
		ds.shards = append(ds.shards, sc)
		lo, hi := tensor.ChunkBounds(dim, shards, s)
		ds.bounds[s], ds.bounds[s+1] = lo, hi
	}
	return ds
}

// shardOf returns the shard owning coordinate j.
func (ds *DirectScratch) shardOf(j int) int {
	return sort.SearchInts(ds.bounds, j+1) - 1
}

// split routes every upload's pairs into per-shard slices with explicit
// local ranks — the client-side splitting of the direct topology, with
// one slice per (shard, client) even when empty (the barrier every real
// shard runs).
func (ds *DirectScratch) split(uploads []ClientUpload) {
	n := len(uploads)
	for s := range ds.shards {
		if cap(ds.offs[s]) < n+1 {
			ds.offs[s] = make([]int, n+1)
		}
		ds.offs[s] = ds.offs[s][:n+1]
		ds.offs[s][0] = 0
		ds.idxs[s] = ds.idxs[s][:0]
		ds.vals[s] = ds.vals[s][:0]
		ds.rnks[s] = ds.rnks[s][:0]
		ds.ups[s] = growUploads(ds.ups[s], n)
		if cap(ds.rks[s]) < n {
			ds.rks[s] = make([][]int, n)
		}
		ds.rks[s] = ds.rks[s][:n]
	}
	ds.maxLen = 0
	for ci, u := range uploads {
		ds.maxLen = max(ds.maxLen, u.Pairs.Len())
		for pi, j := range u.Pairs.Idx {
			s := ds.shardOf(j)
			ds.idxs[s] = append(ds.idxs[s], j)
			ds.vals[s] = append(ds.vals[s], u.Pairs.Val[pi])
			ds.rnks[s] = append(ds.rnks[s], pi)
		}
		for s := range ds.shards {
			ds.offs[s][ci+1] = len(ds.idxs[s])
		}
	}
	for s := range ds.shards {
		for ci := 0; ci < n; ci++ {
			a, b := ds.offs[s][ci], ds.offs[s][ci+1]
			ds.ups[s][ci] = ClientUpload{
				Pairs:  sparse.Vec{Idx: ds.idxs[s][a:b], Val: ds.vals[s][a:b]},
				Weight: uploads[ci].Weight,
			}
			ds.rks[s][ci] = ds.rnks[s][a:b]
		}
	}
}

// Aggregate computes the main and probe Aggregates through the direct
// tier — bit-identical to ShardedScratch.Aggregate (and to
// strat.AggregateInto on a single scratch) at every shard and worker
// count. The error return exists for the DirectSelector contract; the
// in-process oracles never fail.
func (ds *DirectScratch) Aggregate(strat DirectSelector, uploads []ClientUpload, k, probeK int) (Aggregate, Aggregate, error) {
	nShards := len(ds.shards)
	ds.split(uploads)
	if ds.workers > 1 {
		par.For(ds.workers, nShards, func(s, _ int) {
			ds.reduceShard(s)
		})
	} else {
		for s := 0; s < nShards; s++ {
			ds.reduceShard(s)
		}
	}
	total := 0
	for _, r := range ds.reds {
		total += len(r.Idx)
	}
	ds.mergedIdx = growInts(ds.mergedIdx, total)
	ds.mergedSum = growFloats(ds.mergedSum, total)
	ds.mergedRank = growInts(ds.mergedRank, total)
	off := 0
	for _, r := range ds.reds {
		copy(ds.mergedIdx[off:], r.Idx)
		copy(ds.mergedSum[off:], r.Sum)
		copy(ds.mergedRank[off:], r.MinRank)
		off += len(r.Idx)
	}
	merged := RangeAgg{Idx: ds.mergedIdx[:total], Sum: ds.mergedSum[:total], MinRank: ds.mergedRank[:total]}

	meta := DirectMeta{
		NumClients: len(uploads),
		MaxLen:     ds.maxLen,
		Fill: func(kappa int) ([]FillCand, error) {
			ds.cands = ds.cands[:0]
			for s := range ds.shards {
				ds.cands = AppendFillCands(ds.cands, ds.ups[s], ds.rks[s], kappa)
			}
			return ds.cands, nil
		},
	}
	main, probe, err := strat.SelectDirect(ds.sel, merged, meta, k, probeK)
	if err != nil {
		return Aggregate{}, Aggregate{}, err
	}
	ds.countUsedFromSlices(probeK > 0)
	// The shard-served downlink: seal each shard with its span of the
	// member set, reconstruct the span's values from the shard's own
	// reduction, and reassemble B by concatenation in shard order. The
	// sums are the merged reduction's, so the reassembled broadcast is
	// the selection's output bit for bit — but it flows through exactly
	// the path the wire deployment serves it on.
	ds.spans = MemberSpans(main.Indices, ds.bounds, ds.spans)
	ds.outIdx = ds.outIdx[:0]
	ds.outVal = ds.outVal[:0]
	for s := range ds.shards {
		ds.outIdx, ds.outVal, err = BuildDownlinkSlice(ds.outIdx, ds.outVal, ds.spans[s], ds.reds[s], ds.bounds[s], ds.bounds[s+1])
		if err != nil {
			return Aggregate{}, Aggregate{}, err
		}
	}
	main.Indices = ds.outIdx
	main.Values = ds.outVal
	return main, probe, nil
}

// reduceShard runs shard s's explicit-rank range reduction over its
// slice set into its own scratch.
func (ds *DirectScratch) reduceShard(s int) {
	ds.reds[s] = RangeReduceInto(ds.shards[s], ds.ups[s], ds.rks[s], ds.bounds[s], ds.bounds[s+1])
}

// countUsedFromSlices tallies the fairness counts the shard-side way:
// each shard counts, per client, the slice pairs that landed in the
// selections, and the per-shard counts sum — every uploaded pair lives
// in exactly one shard, so the totals equal the single-scratch
// countUsed's |J ∩ J_i| exactly. Writes land in the output slices the
// returned Aggregates alias.
func (ds *DirectScratch) countUsedFromSlices(hasProbe bool) {
	sel := ds.sel
	for s := range ds.shards {
		for ci, u := range ds.ups[s] {
			for _, j := range u.Pairs.Idx {
				if sel.markMain[j] == sel.genMain {
					sel.outUsedMain[ci]++
				}
				if hasProbe && sel.markProbe[j] == sel.genProbe {
					sel.outUsedProbe[ci]++
				}
			}
		}
	}
}

// growUploads returns s resized to n without zeroing.
func growUploads(s []ClientUpload, n int) []ClientUpload {
	if cap(s) < n {
		return make([]ClientUpload, n)
	}
	return s[:n]
}
