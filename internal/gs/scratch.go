package gs

import (
	"math"
	"slices"

	"fedsparse/internal/par"
)

// This file is the production aggregation path: epoch-stamped dense
// scratch arrays instead of the map-based reference in reference_test.go. An
// AggScratch owns every buffer a round of server-side selection needs, so
// a warm scratch aggregates with zero allocations; the engine keeps one
// per run and calls AggregateInto once per round, computing the k-element
// aggregate and the k′-probe aggregate in a single pass over the uploads.
//
// Determinism contract: for every strategy and every (k, probeK),
// AggregateInto returns results bit-identical to the map reference —
// same indices, same float64 values, same fairness counts. Selection is
// integer work with strict total tie-breaks, so it is trivially
// deterministic; the floating-point sums are deterministic because each
// coordinate's additions always run in ascending client order. The
// differential suite pins all of this.
//
// Selection exists once, fed by the two inputs that really differ: raw
// uploads (this file — κ by one rank-major walk, values accumulated for
// the selected members only) and a merged range reduction plus
// control-plane metadata (direct.go — κ from the min-rank histogram,
// values from the reduction). They share the fill step, the FUB ranking,
// the union selection and the emitter below.
//
// The reduction is one goroutine's work on purpose: what a
// coordinate-chunked fan-out needs first — every uploaded pair copied
// into per-chunk buckets — costs what the fan-out saves (measured at the
// engine's shape on two cores; PR 17 in CHANGES.md has the runs), and
// reducing every pair by coordinate range in-process was 3–23× slower than
// summing the selected members only (docs/ARCHITECTURE.md has the table).

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

	// main and probe are the call's two selections (k and k′); one set of
	// buffers each, so both Aggregates stay valid together.
	main, probe selection

	// markTmp is the transient epoch-stamped set over the coordinate space
	// (markTmp[j] == genTmp means j was seen this pass; bumping genTmp
	// empties it in O(1)) and stamped lists its members in the order they
	// were first seen: FAB's rank-major walk, FUB's every uploaded index.
	markTmp []int32
	genTmp  int32
	stamped []int

	// sums[j] accumulates b_j for the current call's main ∪ probe members;
	// only member coordinates are zeroed and read, never the whole array.
	// accSink more slots past the coordinate space take accumulate's
	// non-member adds.
	sums []float64

	// minRank[j] tracks the smallest upload rank at which coordinate j
	// appears during a range reduction (shard.go); valid only for markTmp
	// members of the current call, like sums.
	minRank []int

	entries []fubEntry
	cands   []FillCand

	// rankHist[r] counts the coordinates whose minimal upload rank is r:
	// FAB's κ is a prefix sum over it (cutoff), whichever input filled it.
	rankHist []int

	// The range reduction's outputs (shard.go).
	rangeIdx  []int
	rangeSum  []float64
	rangeRank []int
}

// selection is one downlink selection under construction — a membership
// slab over the coordinate space, the member list, and the buffers the
// emitted Aggregate aliases.
type selection struct {
	mark    []int32 // mark[j] == gen means coordinate j is a member
	gen     int32
	members []int
	vals    []float64
	used    []int
}

// begin empties the selection, growing its slab to the reduction slabs'
// dimension (lazily, so reduction-only scratches — shard processes, which
// only ever run RangeReduceInto — never allocate one).
func (s *AggScratch) begin(sel *selection) {
	sel.mark = growInt32s(sel.mark, len(s.markTmp))
	par.BumpEpoch(&sel.gen, sel.mark)
	sel.members = sel.members[:0]
}

func (sel *selection) add(j int) {
	if sel.mark[j] != sel.gen {
		sel.mark[j] = sel.gen
		sel.members = append(sel.members, j)
	}
}

// fill is the last step of every FAB selection, whichever input produced
// κ and the rank-κ union: the rank-(κ+1) candidates, sorted by the
// reference comparator, join until the selection holds k members.
// Candidates already selected are skipped, so the caller need not filter.
func (sel *selection) fill(cands []FillCand, k int) {
	sortFillCands(cands)
	for _, cd := range cands {
		if len(sel.members) >= k {
			break
		}
		sel.add(cd.Idx)
	}
}

// emit puts the members in ascending order (ascending, over the whole
// slab) and builds the selection's Aggregate with the values found in
// sums; used must already hold the fairness counts.
func (sel *selection) emit(sums []float64) Aggregate {
	ascending(sel.members, sel.mark, sel.gen, 0)
	sel.vals = growFloats(sel.vals, len(sel.members))
	for i, j := range sel.members {
		sel.vals[i] = sums[j]
	}
	return Aggregate{Indices: sel.members, Values: sel.vals, PerClientUsed: sel.used}
}

// ascending sorts members, which must be exactly the coordinates lo+i
// with mark[i] == gen (mark is the window of an epoch slab that starts
// at coordinate lo). A list holding at least 1/16 of the window's coordinates is read back
// in order off the slab — one pass over it, which costs less than
// sorting that many — and a sparser one is sorted. This is the one
// sort-or-scan rule of the package: the selections' emitter runs it over
// the whole membership slab, the range reduction (shard.go) over its
// range of the reduction slab.
//
// The scan writes each coordinate to the next free slot, which only a
// member claims, so the pass has no branch on the membership test; it
// stops once every member is placed.
func ascending(members []int, mark []int32, gen int32, lo int) {
	if !scans(len(members), len(mark)) {
		slices.Sort(members)
		return
	}
	n := 0
	for i, g := range mark {
		if n == len(members) {
			break
		}
		members[n] = lo + i
		n += b2i(g == gen)
	}
}

// scans reports whether ascending reads n members of a width-coordinate
// window back off the slab rather than sorting them.
func scans(n, width int) bool { return n >= width/16 }

// fubEntry is one aggregated coordinate in FUB's |b_j| ranking.
type fubEntry struct {
	idx int
	abs float64
}

// NewAggScratch returns an empty scratch. The argument is ignored: the
// signature is held by bench/ (frozen by BENCHMARK.json).
func NewAggScratch(int) *AggScratch {
	return &AggScratch{sums: make([]float64, accSink)}
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

// ensureDim grows the reduction slabs (transient marks and their member
// list, sums, min ranks) to at least dim. The selections' slabs grow in
// begin instead.
func (s *AggScratch) ensureDim(dim int) {
	if len(s.markTmp) >= dim {
		return
	}
	s.markTmp = growInt32s(s.markTmp, dim)
	s.stamped = make([]int, 0, dim)
	sums := make([]float64, dim+accSink)
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

// maxLen returns the longest upload's pair count.
func maxLen(uploads []ClientUpload) int {
	n := 0
	for _, u := range uploads {
		n = max(n, u.Pairs.Len())
	}
	return n
}

// walk is the raw-upload input's κ search, serving every budget up to the
// given one: ranks ascending, clients ascending within a rank, stamping each
// coordinate the first time it is met — s.stamped lists them in that order
// and s.rankHist[r] counts the ones first met at rank r, the min-rank
// histogram evaluated lazily — until the union has outgrown the budget. It
// reads N·(κ+1) pairs, not all of them. ranks is the longest upload's
// length; cutoff reads κ off the histogram.
func (s *AggScratch) walk(uploads []ClientUpload, budget int) (ranks int) {
	ranks = maxLen(uploads)
	s.rankHist = growInts(s.rankHist, ranks)
	gen := par.BumpEpoch(&s.genTmp, s.markTmp)
	s.stamped = s.stamped[:0]
	for r := 0; r < ranks && len(s.stamped) <= budget; r++ {
		before := len(s.stamped)
		for _, u := range uploads {
			if r < u.Pairs.Len() {
				if j := u.Pairs.Idx[r]; s.markTmp[j] != gen {
					s.markTmp[j] = gen
					s.stamped = append(s.stamped, j)
				}
			}
		}
		s.rankHist[r] = len(s.stamped) - before
	}
	return ranks
}

// cutoff reads FAB's rank cutoff off the min-rank histogram s.rankHist: the
// largest κ in [0, ranks] with |∪_i J_i^κ| = Σ_{r<κ} rankHist[r] ≤ k — what
// the reference's binary and linear map searches find — and that union's
// size. The scan stops at the first rank that overshoots k, so a histogram
// the walk abandoned past its own budget ≥ k is as good as a whole one.
func (s *AggScratch) cutoff(ranks, k int) (kappa, size int) {
	for kappa < ranks && size+s.rankHist[kappa] <= k {
		size += s.rankHist[kappa]
		kappa++
	}
	return kappa, size
}

// fabSelect builds one FAB selection over raw uploads after the walk: the
// rank-κ union is the first coordinates it stamped, then the fill from
// rank κ+1.
func (s *AggScratch) fabSelect(sel *selection, uploads []ClientUpload, ranks, k int) {
	kappa, size := s.cutoff(ranks, k)
	s.begin(sel)
	for _, j := range s.stamped[:size] {
		sel.add(j)
	}
	if size < k {
		s.cands = AppendFillCands(slices.Grow(s.cands[:0], len(uploads)), uploads, nil, kappa)
		sel.fill(s.cands, k)
	}
}

// fubSums computes b_j over every uploaded coordinate — leaving the exact
// sums in s.sums, by the ascending-client chain the accumulation pass
// would run — and lists the (coordinate, |b_j|) entries for fubSelect.
func (s *AggScratch) fubSums(uploads []ClientUpload) {
	gen := par.BumpEpoch(&s.genTmp, s.markTmp)
	s.stamped = s.stamped[:0]
	c := totalWeight(uploads)
	for _, u := range uploads {
		w := u.Weight / c
		for pi, j := range u.Pairs.Idx {
			if s.markTmp[j] != gen {
				s.markTmp[j] = gen
				s.sums[j] = 0
				s.stamped = append(s.stamped, j)
			}
			s.sums[j] += w * u.Pairs.Val[pi]
		}
	}
	s.entries = s.entries[:0]
	for _, j := range s.stamped {
		s.entries = append(s.entries, fubEntry{j, math.Abs(s.sums[j])})
	}
}

// fubSelect is FUB's selection over s.entries, however they were filled
// (fubSums, or a merged reduction): sort by the reference comparator and
// take the k largest. The comparator is a strict total order, so the
// insertion-ordered list here and the map-ordered list in the reference
// sort to the same sequence; a probe selection is a shorter prefix of the
// same ranking.
func (s *AggScratch) fubSelect(k, probeK int) {
	slices.SortFunc(s.entries, compareFUBEntries)
	s.begin(&s.main)
	for _, e := range s.entries[:min(k, len(s.entries))] {
		s.main.add(e.idx)
	}
	if probeK > 0 {
		s.begin(&s.probe)
		for _, e := range s.entries[:min(probeK, len(s.entries))] {
			s.probe.add(e.idx)
		}
	}
}

// unionSelect is the selection of the unidirectional, periodic and
// send-all strategies — every coordinate of the input, which is the
// uploads' pairs or (with no uploads) a merged reduction's coordinates.
// The probe selection is the same set.
func (s *AggScratch) unionSelect(uploads []ClientUpload, red RangeAgg, hasProbe bool) {
	s.begin(&s.main)
	for _, u := range uploads {
		for _, j := range u.Pairs.Idx {
			s.main.add(j)
		}
	}
	for _, j := range red.Idx {
		s.main.add(j)
	}
	if hasProbe {
		s.begin(&s.probe)
		for _, j := range s.main.members {
			s.probe.add(j)
		}
	}
}

// compareFABCands and compareFUBEntries are the strict total orders the
// reference comparators define (reference_test.go keeps its own copies — it
// is the independent differential oracle). Every production selection —
// over raw uploads or merged reductions — sorts with THESE functions, so a
// tie-break tweak cannot desynchronize the paths from each other.

// compareFABCands orders FAB fill candidates: |value| descending, then
// coordinate, then client.
func compareFABCands(a, b FillCand) int {
	switch {
	case a.AbsVal != b.AbsVal:
		if a.AbsVal > b.AbsVal {
			return -1
		}
		return 1
	case a.Idx != b.Idx:
		return a.Idx - b.Idx
	default:
		return a.Client - b.Client
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

// finish turns the marked selections into sorted, value-filled Aggregates
// with nClients fairness counts each — the one emitter of every path.
// sumsValid says s.sums[j] already holds the exact b_j of every member
// (FUB's ranking pass, or a merged reduction loaded by the ranged
// selections), so only the fairness counts remain to be tallied — over
// the uploads, which a ranged selection does not have: its counts stay
// zero. Otherwise the members' sums are zeroed and the single weighted
// accumulation pass computes sums and counts together.
func (s *AggScratch) finish(uploads []ClientUpload, nClients int, hasProbe, sumsValid bool) (main, probe Aggregate) {
	s.main.used = resetInts(s.main.used, nClients)
	if hasProbe {
		s.probe.used = resetInts(s.probe.used, nClients)
	}
	if sumsValid {
		s.CountUsed(uploads, hasProbe)
	} else {
		for _, j := range s.main.members {
			s.sums[j] = 0
		}
		if hasProbe {
			for _, j := range s.probe.members {
				s.sums[j] = 0
			}
		}
		s.accumulate(uploads, hasProbe)
	}
	main = s.main.emit(s.sums)
	if hasProbe {
		probe = s.probe.emit(s.sums)
	}
	return main, probe
}

// accumulate is the weighted accumulation: clients in ascending order,
// pairs in upload order — the exact operation sequence of the reference
// path, shared between the main and probe selections. The member test is
// a value, not a branch: it picks the slot each pair's w·v is added to —
// the member's sum, or for a non-member one of the sink slots past the
// coordinate space, which nothing reads — and the fairness counts add
// the tests as 0 or 1.
func (s *AggScratch) accumulate(uploads []ClientUpload, hasProbe bool) {
	markM, genM := s.main.mark, s.main.gen
	markP, genP := s.probe.mark, s.probe.gen
	if !hasProbe {
		// The probe test repeats the main one; its counts are dropped.
		markP, genP = markM, genM
	}
	d := len(markM)
	markP, sums := markP[:d], s.sums[:d+accSink]
	clear(sums[d:]) // the sinks' junk stays the size of one call's sums
	c := totalWeight(uploads)
	for ci, u := range uploads {
		w := u.Weight / c
		vals := u.Pairs.Val[:len(u.Pairs.Idx)]
		usedM, usedP := 0, 0
		for pi, j := range u.Pairs.Idx {
			inM, inP := b2i(markM[j] == genM), b2i(markP[j] == genP)
			sink := d + pi&(accSink-1)
			nonMember := (inM | inP) - 1 // all ones or zero
			sums[j^(j^sink)&nonMember] += w * vals[pi]
			usedM += inM
			usedP += inP
		}
		s.main.used[ci] = usedM
		if hasProbe {
			s.probe.used[ci] = usedP
		}
	}
}

// accSink is the number of sink slots. Pairs add into them in turn, so a
// sink's next add is 64 pairs away — beyond the processor's window, where
// an add to a slot whose address is still unknown would stall it.
const accSink = 64

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CountUsed tallies the fairness counts — how many of each client's
// uploaded pairs landed in the scratch's current main/probe selections —
// into the PerClientUsed slices of the Aggregates last returned. The
// selections call it themselves where no accumulation pass counts on the
// way (FUB); a SelectDirect caller that does hold the uploads calls it to
// fill the counts SelectDirect left zero.
func (s *AggScratch) CountUsed(uploads []ClientUpload, hasProbe bool) {
	for ci, u := range uploads {
		countM, countP := 0, 0
		for _, j := range u.Pairs.Idx {
			if s.main.mark[j] == s.main.gen {
				countM++
			}
			if hasProbe && s.probe.mark[j] == s.probe.gen {
				countP++
			}
		}
		s.main.used[ci] = countM
		if hasProbe {
			s.probe.used[ci] = countP
		}
	}
}

// Strategy.AggregateInto implementations.

func (*FABTopK) AggregateInto(a *AggScratch, uploads []ClientUpload, k, probeK int) (Aggregate, Aggregate) {
	a.prepare(uploads)
	ranks := a.walk(uploads, max(k, probeK))
	a.fabSelect(&a.main, uploads, ranks, k)
	if probeK > 0 {
		a.fabSelect(&a.probe, uploads, ranks, probeK)
	}
	return a.finish(uploads, len(uploads), probeK > 0, false)
}

func (FUBTopK) AggregateInto(a *AggScratch, uploads []ClientUpload, k, probeK int) (Aggregate, Aggregate) {
	a.prepare(uploads)
	a.fubSums(uploads)
	a.fubSelect(k, probeK)
	return a.finish(uploads, len(uploads), probeK > 0, true)
}

// unionAggregateInto is shared by the strategies whose selection is the
// whole upload union (k is ignored).
func unionAggregateInto(a *AggScratch, uploads []ClientUpload, probeK int) (Aggregate, Aggregate) {
	a.prepare(uploads)
	a.unionSelect(uploads, RangeAgg{}, probeK > 0)
	return a.finish(uploads, len(uploads), probeK > 0, false)
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
