package gs

import (
	"math"
	"slices"

	"fedsparse/internal/par"
)

// This file is the production aggregation path: epoch-stamped dense
// scratch arrays instead of the map-based reference in reference.go. An
// AggScratch owns every buffer a round of server-side selection needs, so
// a warm scratch aggregates with zero allocations; the engine keeps one
// per run and calls AggregateInto once per round, computing the k-element
// aggregate and the k′-probe aggregate in a single pass over the uploads.
//
// Determinism contract: for every strategy and every (k, probeK),
// AggregateInto returns results bit-identical to the reference Aggregate —
// same indices, same float64 values, same fairness counts. Selection is
// integer work with strict total tie-breaks, so it is trivially
// deterministic; the floating-point sums are deterministic because each
// coordinate's additions always run in ascending client order. The
// differential suite pins all of this.
//
// The reduction is one goroutine's work on purpose: the selection's κ
// search dominates a round's aggregate, and what a coordinate-chunked
// fan-out needs first — every uploaded pair copied into per-chunk buckets —
// costs what the fan-out saves (measured at the engine's shape on two
// cores; ROADMAP item 4 has the runs).

// AggScratch holds the reusable state of the scratch-based aggregation
// paths. The zero value is NOT ready to use; call NewAggScratch. A scratch
// may be reused across rounds and runs of any strategies and dimensions —
// buffers grow to the largest dimension seen — but is single-goroutine
// state. Aggregates returned by AggregateInto alias the scratch's output
// buffers and stay valid only until its next call.
type AggScratch struct {
	// reserved means Reserve fixed the slab dimension: skip the per-call
	// maxDim scan and trust coordinates to be in range.
	reserved bool

	// Epoch-stamped membership slabs over the coordinate space: mark*[j]
	// == gen* means coordinate j is in the corresponding set for the
	// current call. Bumping a generation empties its set in O(1). markTmp
	// backs transient sets (κ-search unions, FUB's seen-set).
	markMain  []int32
	markProbe []int32
	markTmp   []int32
	genMain   int32
	genProbe  int32
	genTmp    int32

	// sums[j] accumulates b_j for the current call's main ∪ probe members;
	// only member coordinates are zeroed and read, never the whole array.
	sums []float64

	// minRank[j] tracks the smallest upload rank at which coordinate j
	// appears during a range reduction (shard.go); valid only for markTmp
	// members of the current call, like sums.
	minRank []int

	membersMain  []int
	membersProbe []int
	allUploaded  []int // FUB ranking: every uploaded index, insertion order
	entries      []fubEntry
	cands        []fabCand

	// Sharded-aggregation buffers (shard.go): the range reduction's
	// outputs and the coordinator-side selection's min-rank histogram.
	rangeIdx  []int
	rangeSum  []float64
	rangeRank []int
	rankHist  []int

	// Output buffers: one set per selection so the main and probe
	// aggregates stay valid together.
	outIdxMain   []int
	outValMain   []float64
	outUsedMain  []int
	outIdxProbe  []int
	outValProbe  []float64
	outUsedProbe []int
}

// fubEntry is one aggregated coordinate in FUB's |b_j| ranking.
type fubEntry struct {
	idx int
	abs float64
}

// fabCand is one rank-(κ+1) fill candidate in FAB's selection.
type fabCand struct {
	idx    int
	absVal float64
	client int
}

// NewAggScratch returns an empty scratch. The argument is ignored: the
// signature is held by the facade's NewAggScratch and by bench/ (frozen by
// BENCHMARK.json).
func NewAggScratch(int) *AggScratch {
	return &AggScratch{}
}

// ScratchAggregator is implemented by every built-in strategy: the
// allocation-free aggregation path computing the main k-element selection
// and (when probeK > 0) the k′-probe selection in one pass over the
// uploads. Both returned Aggregates alias the scratch's buffers — valid
// until its next use. With probeK <= 0 the probe Aggregate is zero.
//
// Uploads must not repeat a coordinate within one client's pairs; every
// real producer (TopK selection, Quantize, the mandated-index strategies)
// guarantees it, and no differential suite covers the degenerate input.
type ScratchAggregator interface {
	AggregateInto(s *AggScratch, uploads []ClientUpload, k, probeK int) (main, probe Aggregate)
}

// Reserve pre-sizes the coordinate-indexed slabs for dimension-dim models
// and promises every subsequently uploaded coordinate is < dim, letting
// AggregateInto skip its per-call scan for the largest uploaded coordinate
// (an O(total pairs) pass that is pure overhead when the caller already
// knows D, as the round engines do). Violating the promise panics with an
// index error. Un-reserved scratches keep sizing themselves per call.
func (s *AggScratch) Reserve(dim int) {
	s.ensureDim(dim)
	s.reserved = true
}

// prepare sizes the slabs for this call's uploads unless Reserve already
// fixed the dimension.
func (s *AggScratch) prepare(uploads []ClientUpload) {
	if !s.reserved {
		s.ensureDim(maxDim(uploads))
	}
}

// ensureDim grows the reduction slabs (transient marks, sums, min
// ranks) to at least dim. The selection slabs (markMain/markProbe) grow
// lazily in beginMain/beginProbe instead, so reduction-only scratches —
// the per-shard workers of the sharded tier, which only ever run
// RangeReduceInto — never allocate them at all.
func (s *AggScratch) ensureDim(dim int) {
	if len(s.markTmp) >= dim {
		return
	}
	s.markTmp = growInt32s(s.markTmp, dim)
	sums := make([]float64, dim)
	copy(sums, s.sums)
	s.sums = sums
	ranks := make([]int, dim)
	copy(ranks, s.minRank)
	s.minRank = ranks
}

// maxDim returns 1 + the largest uploaded coordinate (0 when empty).
func maxDim(uploads []ClientUpload) int {
	d := 0
	for _, u := range uploads {
		for _, j := range u.Pairs.Idx {
			if j >= d {
				d = j + 1
			}
		}
	}
	return d
}

// countUnionUpTo returns |∪_i J_i^κ| using the transient slab.
func (s *AggScratch) countUnionUpTo(uploads []ClientUpload, kappa int) int {
	gen := par.BumpEpoch(&s.genTmp, s.markTmp)
	count := 0
	for _, u := range uploads {
		n := min(kappa, u.Pairs.Len())
		for _, j := range u.Pairs.Idx[:n] {
			if s.markTmp[j] != gen {
				s.markTmp[j] = gen
				count++
			}
		}
	}
	return count
}

// kappaBinary is selectKappaBinary on the scratch slabs.
func (s *AggScratch) kappaBinary(uploads []ClientUpload, k int) int {
	maxLen := 0
	for _, u := range uploads {
		maxLen = max(maxLen, u.Pairs.Len())
	}
	lo, hi := 0, maxLen
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.countUnionUpTo(uploads, mid) <= k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// kappaLinear is selectKappaLinear on the scratch slabs: one transient
// generation, growing the union a rank at a time.
func (s *AggScratch) kappaLinear(uploads []ClientUpload, k int) int {
	maxLen := 0
	for _, u := range uploads {
		maxLen = max(maxLen, u.Pairs.Len())
	}
	gen := par.BumpEpoch(&s.genTmp, s.markTmp)
	count := 0
	for kappa := 1; kappa <= maxLen; kappa++ {
		for _, u := range uploads {
			if kappa <= u.Pairs.Len() {
				if j := u.Pairs.Idx[kappa-1]; s.markTmp[j] != gen {
					s.markTmp[j] = gen
					count++
				}
			}
		}
		if count > k {
			return kappa - 1
		}
	}
	return maxLen
}

// fabSelect runs FAB's selection (κ search, union, rank-(κ+1) fill) into
// the given membership slab, returning the appended member list. The
// candidate ordering replicates the reference comparator exactly, so the
// selected set — and the order duplicates collapse in — is identical.
func (s *AggScratch) fabSelect(uploads []ClientUpload, k int, linear bool,
	mark []int32, gen int32, members []int) []int {

	var kappa int
	if linear {
		kappa = s.kappaLinear(uploads, k)
	} else {
		kappa = s.kappaBinary(uploads, k)
	}
	for _, u := range uploads {
		n := min(kappa, u.Pairs.Len())
		for _, j := range u.Pairs.Idx[:n] {
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

// fubRank computes b_j over every uploaded coordinate and sorts the
// (coordinate, |b_j|) entries by the reference comparator. Because the
// comparator is a strict total order, sorting the insertion-ordered list
// here and the map-ordered list in the reference yields the same sequence;
// and because a probe selection is just a shorter prefix of this ranking,
// main and probe share one ranking pass.
func (s *AggScratch) fubRank(uploads []ClientUpload) {
	gen := par.BumpEpoch(&s.genTmp, s.markTmp)
	s.allUploaded = s.allUploaded[:0]
	c := totalWeight(uploads)
	for _, u := range uploads {
		w := u.Weight / c
		for pi, j := range u.Pairs.Idx {
			if s.markTmp[j] != gen {
				s.markTmp[j] = gen
				s.sums[j] = 0
				s.allUploaded = append(s.allUploaded, j)
			}
			s.sums[j] += w * u.Pairs.Val[pi]
		}
	}
	s.entries = s.entries[:0]
	for _, j := range s.allUploaded {
		s.entries = append(s.entries, fubEntry{j, math.Abs(s.sums[j])})
	}
	slices.SortFunc(s.entries, compareFUBEntries)
}

// compareFABCands and compareFUBEntries are the strict total orders the
// reference comparators define (reference.go keeps its own copies — it
// is the independent differential oracle). Every production path —
// single-scratch and sharded alike — sorts with THESE functions, so a
// tie-break tweak cannot desynchronize the paths from each other.

// compareFABCands orders FAB fill candidates: |value| descending, then
// coordinate, then client.
func compareFABCands(a, b fabCand) int {
	switch {
	case a.absVal != b.absVal:
		if a.absVal > b.absVal {
			return -1
		}
		return 1
	case a.idx != b.idx:
		return a.idx - b.idx
	default:
		return a.client - b.client
	}
}

// compareFUBEntries orders FUB's ranking: |b_j| descending, then
// coordinate.
func compareFUBEntries(a, b fubEntry) int {
	switch {
	case a.abs != b.abs:
		if a.abs > b.abs {
			return -1
		}
		return 1
	default:
		return a.idx - b.idx
	}
}

// beginMain / beginProbe start fresh selections for the current call,
// growing their membership slab to the reduction slabs' dimension (the
// lazy counterpart of ensureDim — see its comment).
func (s *AggScratch) beginMain() {
	if len(s.markMain) < len(s.markTmp) {
		s.markMain = growInt32s(s.markMain, len(s.markTmp))
	}
	par.BumpEpoch(&s.genMain, s.markMain)
	s.membersMain = s.membersMain[:0]
}

func (s *AggScratch) beginProbe() {
	if len(s.markProbe) < len(s.markTmp) {
		s.markProbe = growInt32s(s.markProbe, len(s.markTmp))
	}
	par.BumpEpoch(&s.genProbe, s.markProbe)
	s.membersProbe = s.membersProbe[:0]
}

func (s *AggScratch) addMain(j int) {
	if s.markMain[j] != s.genMain {
		s.markMain[j] = s.genMain
		s.membersMain = append(s.membersMain, j)
	}
}

func (s *AggScratch) addProbe(j int) {
	if s.markProbe[j] != s.genProbe {
		s.markProbe[j] = s.genProbe
		s.membersProbe = append(s.membersProbe, j)
	}
}

// unionSelect marks every uploaded coordinate as a main member (the
// selection of the unidirectional, periodic, and send-all strategies).
func (s *AggScratch) unionSelect(uploads []ClientUpload) {
	s.beginMain()
	for _, u := range uploads {
		for _, j := range u.Pairs.Idx {
			s.addMain(j)
		}
	}
}

// finish turns the marked selections into sorted, value-filled Aggregates:
// sort members, zero their sums, run the single weighted accumulation
// pass, and fill the output buffers.
// sumsValid says s.sums[j] already holds the exact b_j for every member
// (FUB's ranking pass computes it with the identical ascending-client
// chain), so only the integer fairness counts remain to be tallied.
func (s *AggScratch) finish(uploads []ClientUpload, hasProbe, sumsValid bool) (Aggregate, Aggregate) {
	slices.Sort(s.membersMain)
	if hasProbe {
		slices.Sort(s.membersProbe)
	}
	nUp := len(uploads)
	s.outUsedMain = resetInts(s.outUsedMain, nUp)
	if hasProbe {
		s.outUsedProbe = resetInts(s.outUsedProbe, nUp)
	}

	if sumsValid {
		s.countUsed(uploads, hasProbe)
	} else {
		for _, j := range s.membersMain {
			s.sums[j] = 0
		}
		if hasProbe {
			for _, j := range s.membersProbe {
				s.sums[j] = 0
			}
		}
		s.accumulate(uploads, hasProbe)
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

// accumulate is the weighted accumulation: clients in ascending order,
// pairs in upload order — the exact operation sequence of the reference
// path, shared between the main and probe selections.
func (s *AggScratch) accumulate(uploads []ClientUpload, hasProbe bool) {
	c := totalWeight(uploads)
	for ci, u := range uploads {
		w := u.Weight / c
		for pi, j := range u.Pairs.Idx {
			inMain := s.markMain[j] == s.genMain
			inProbe := hasProbe && s.markProbe[j] == s.genProbe
			if inMain || inProbe {
				s.sums[j] += w * u.Pairs.Val[pi]
			}
			if inMain {
				s.outUsedMain[ci]++
			}
			if inProbe {
				s.outUsedProbe[ci]++
			}
		}
	}
}

// countUsed tallies the fairness counts — how many of each client's
// uploaded pairs landed in the main/probe selections — where no
// accumulation pass does it on the way (FUB).
func (s *AggScratch) countUsed(uploads []ClientUpload, hasProbe bool) {
	for ci, u := range uploads {
		countM, countP := 0, 0
		for _, j := range u.Pairs.Idx {
			if s.markMain[j] == s.genMain {
				countM++
			}
			if hasProbe && s.markProbe[j] == s.genProbe {
				countP++
			}
		}
		s.outUsedMain[ci] = countM
		if hasProbe {
			s.outUsedProbe[ci] = countP
		}
	}
}

// AggregateInto implementations — see ScratchAggregator.

func (s *FABTopK) AggregateInto(a *AggScratch, uploads []ClientUpload, k, probeK int) (Aggregate, Aggregate) {
	a.prepare(uploads)
	a.beginMain()
	a.membersMain = a.fabSelect(uploads, k, s.LinearScan, a.markMain, a.genMain, a.membersMain)
	hasProbe := probeK > 0
	if hasProbe {
		a.beginProbe()
		a.membersProbe = a.fabSelect(uploads, probeK, s.LinearScan, a.markProbe, a.genProbe, a.membersProbe)
	}
	return a.finish(uploads, hasProbe, false)
}

func (FUBTopK) AggregateInto(a *AggScratch, uploads []ClientUpload, k, probeK int) (Aggregate, Aggregate) {
	a.prepare(uploads)
	a.fubRank(uploads)
	a.beginMain()
	for _, e := range a.entries[:min(k, len(a.entries))] {
		a.addMain(e.idx)
	}
	hasProbe := probeK > 0
	if hasProbe {
		a.beginProbe()
		for _, e := range a.entries[:min(probeK, len(a.entries))] {
			a.addProbe(e.idx)
		}
	}
	// fubRank already left the exact b_j of every uploaded coordinate in
	// a.sums (same ascending-client addition chain the accumulation pass
	// would run), so only the fairness counts remain.
	return a.finish(uploads, hasProbe, true)
}

// unionAggregateInto is shared by the strategies whose selection is the
// whole upload union (k is ignored): the probe selection is then identical
// to the main one, so its members are copied rather than re-derived.
func unionAggregateInto(a *AggScratch, uploads []ClientUpload, probeK int) (Aggregate, Aggregate) {
	a.prepare(uploads)
	a.unionSelect(uploads)
	hasProbe := probeK > 0
	if hasProbe {
		a.beginProbe()
		for _, j := range a.membersMain {
			a.addProbe(j)
		}
	}
	return a.finish(uploads, hasProbe, false)
}

func (UniTopK) AggregateInto(a *AggScratch, uploads []ClientUpload, _, probeK int) (Aggregate, Aggregate) {
	return unionAggregateInto(a, uploads, probeK)
}

func (PeriodicK) AggregateInto(a *AggScratch, uploads []ClientUpload, _, probeK int) (Aggregate, Aggregate) {
	return unionAggregateInto(a, uploads, probeK)
}

func (SendAll) AggregateInto(a *AggScratch, uploads []ClientUpload, _, probeK int) (Aggregate, Aggregate) {
	return unionAggregateInto(a, uploads, probeK)
}

// growInt32s grows s to length n, preserving contents and zeroing the
// new region (epoch slabs rely on fresh entries being stale).
func growInt32s(s []int32, n int) []int32 {
	if len(s) >= n {
		return s
	}
	grown := make([]int32, n)
	copy(grown, s)
	return grown
}

// growInts returns s resized to n without zeroing (contents unspecified).
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// resetInts returns s resized to n with every element zeroed.
func resetInts(s []int, n int) []int {
	s = growInts(s, n)
	clear(s)
	return s
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
