package gs

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file is the selection over ranged facts — the input a coordinator
// has when shard processes did the reduction (shard.go) and it never
// reduces, or never even sees, a raw upload. Its two forms:
//
//   - the rank histogram (SelectHist), the direct plane's: each shard
//     reports only the min-rank histogram of its range (RankHist), so the
//     coordinator ingests O(S·MaxLen) counts, not O(|J|) reductions. κ
//     and the rank-κ union's size come off the merged histogram; the
//     shards serve the ≤ N rank-κ fill candidates outside their union,
//     with their b_j and the union's largest |b_j| (ServeFill), when B is
//     short or its q-bit scale is needed; and each shard builds its
//     downlink slice from the cut {κ, its span of the fill} (SealSlice);
//   - the merged reduction (SelectDirect: RangeAgg's exact b_j sums and
//     minimal upload ranks for every reduced coordinate, plus the fill
//     candidates from the shards' slice sets or raw uploads), kept as the
//     differential oracle of every strategy.
//
// Both are bit-identical to AggregateInto's over the same uploads: κ read
// off the min-rank histogram is the κ the rank-major walk finds, the
// rank-κ union is the coordinates ranked before κ, the fill candidates go
// through the one fill step of scratch.go (a candidate already selected
// is skipped, so a server may or may not filter them), and the values are
// the shards' exact sums. The differential suites in this package and
// internal/transport pin all of it.

// FillCand is one rank-κ fill candidate of FAB's selection: client
// `Client`'s rank-κ pair is coordinate Idx with |value| AbsVal. They are
// read off raw uploads or a shard's slice set (AppendFillCands) and
// sorted with the reference comparator. Sum is coordinate Idx's b_j
// where a shard serves the candidate (ServeFill), and zero where it was
// read off uploads: only the histogram selection reads it, for B's scale.
type FillCand struct {
	Idx    int
	AbsVal float64
	Client int
	Sum    float64
}

// sortFillCands sorts fill candidates with the reference FAB comparator
// (|value| descending, then coordinate, then client) — a strict total
// order, so any merge order of per-shard candidate lists sorts to the
// same sequence.
func sortFillCands(cands []FillCand) {
	slices.SortFunc(cands, compareFABCands)
}

// AppendFillCands appends, for every client (ascending) whose slice
// contains the pair with rank kappa, that pair as a fill candidate.
// slices[ci]/ranks[ci] are client ci's range slice and its explicit
// local ranks (ascending — the producer contract ValidateRangeSlice
// enforces), so the rank lookup is a binary search. A nil ranks means the
// slices are un-sliced uploads and the pair position is the rank, as in
// RangeReduceInto.
func AppendFillCands(dst []FillCand, slices []ClientUpload, ranks [][]int, kappa int) []FillCand {
	for ci, u := range slices {
		pi := kappa
		if ranks != nil {
			r := ranks[ci]
			if pi = sort.SearchInts(r, kappa); pi < len(r) && r[pi] != kappa {
				continue
			}
		}
		if pi < u.Pairs.Len() {
			dst = append(dst, FillCand{Idx: u.Pairs.Idx[pi], AbsVal: math.Abs(u.Pairs.Val[pi]), Client: ci})
		}
	}
	return dst
}

// ValidateRangeSlice checks one client's range slice — as the client
// uploaded it to the shard — against the shard's coordinate range:
// parallel index/value/rank lengths, coordinates inside [lo, hi), no
// coordinate repeated, finite values (a NaN or ±Inf summed into the
// model stays there, and error feedback keeps re-sending it), and
// strictly ascending non-negative ranks below the model dimension D =
// len(seen) — an upload has at most D pairs, and RankHist sizes the
// shard's histogram by the largest rank, so one rank near MaxUint32
// would allocate gigabytes. seen is an
// epoch slab over the coordinate space (seen[j] == gen marks j used); the
// caller bumps gen once per slice. Every shard tier shares this helper,
// so the validation the aggregation trusts cannot drift between them.
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
		if rank[pi] >= len(seen) {
			return fmt.Errorf("gs: rank %d outside [0, %d)", rank[pi], len(seen))
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

// BuildDownlinkSlice is SealSlice at κ = 0: the seal names every member
// of the shard's span.
func BuildDownlinkSlice(dstIdx []int, dstVal []float64, members []int, red RangeAgg, lo, hi int) ([]int, []float64, error) {
	return SealSlice(dstIdx, dstVal, 0, members, red, lo, hi)
}

// SealSlice validates one shard's seal of B against its round reduction
// and appends, in one pass over that reduction, the broadcast slice the
// shard serves to its clients: every reduced coordinate whose minimal
// upload rank is below kappa (FAB's rank-κ union), and the members of
// fill, which must be strictly ascending, inside [lo, hi), reduced here
// (every selected coordinate was uploaded by some client, so a miss means
// a corrupted seal, not a legitimate selection) and outside that union.
// The values are the shard's own exact sums.
func SealSlice(dstIdx []int, dstVal []float64, kappa int, fill []int, red RangeAgg, lo, hi int) ([]int, []float64, error) {
	if kappa < 0 {
		return dstIdx, dstVal, fmt.Errorf("gs: seal cutoff %d is negative", kappa)
	}
	for i, j := range fill {
		if j < lo || j >= hi || (i > 0 && j <= fill[i-1]) {
			return dstIdx, dstVal, fmt.Errorf("gs: sealed member %d out of order or outside range [%d, %d)", j, lo, hi)
		}
	}
	p := 0
	for i, j := range red.Idx {
		if p == len(fill) && kappa == 0 {
			break // nothing left to serve
		}
		in := red.MinRank[i] < kappa
		if p < len(fill) && fill[p] <= j {
			if fill[p] < j {
				break // fill[p] lies between two reduced coordinates
			}
			if in {
				return dstIdx, dstVal, fmt.Errorf("gs: sealed fill member %d is already in the rank-%d union", j, kappa)
			}
			in = true
			p++
		}
		if in {
			dstIdx = append(dstIdx, j)
			dstVal = append(dstVal, red.Sum[i])
		}
	}
	if p < len(fill) {
		return dstIdx, dstVal, fmt.Errorf("gs: sealed member %d was never uploaded to this shard", fill[p])
	}
	return dstIdx, dstVal, nil
}

// RankHist writes into dst the min-rank histogram of one range
// reduction: hist[r] counts the reduced coordinates whose minimal upload
// rank is r, up to the largest such rank (an empty reduction's histogram
// is empty). It is all a direct-plane shard reports for the selection.
func RankHist(dst []int, red RangeAgg) []int {
	n := 0
	for _, r := range red.MinRank {
		n = max(n, r+1)
	}
	dst = slices.Grow(dst[:0], n)[:n]
	clear(dst)
	for _, r := range red.MinRank {
		dst[r]++
	}
	return dst
}

// ServeFill is one shard's answer to the histogram selection's fill
// query at kappa, over the slice set it reduced into red (uploads and
// ranks as for AppendFillCands): the rank-kappa candidates whose
// coordinate lies in red outside its rank-kappa union — the union's are
// already members, which the fill step would skip — each with its
// coordinate's b_j in Sum, and the largest |b_j| over that union, B's
// q-bit scale once the added fill's |b_j| join it.
func ServeFill(dst []FillCand, uploads []ClientUpload, ranks [][]int, red RangeAgg, kappa int) ([]FillCand, float64) {
	var unionMax float64
	for i, r := range red.MinRank {
		if a := math.Abs(red.Sum[i]); r < kappa && a > unionMax {
			unionMax = a
		}
	}
	start := len(dst)
	dst = AppendFillCands(dst, uploads, ranks, kappa)
	n := start
	for _, c := range dst[start:] {
		i, found := slices.BinarySearch(red.Idx, c.Idx)
		if !found || red.MinRank[i] < kappa {
			continue
		}
		c.Sum = red.Sum[i]
		dst[n] = c
		n++
	}
	return dst[:n], unionMax
}

// DirectMeta is what a ranged selection has in place of the raw uploads.
type DirectMeta struct {
	// NumClients is the round's upload count (sizes the fairness-count
	// outputs).
	NumClients int
	// MaxLen is the longest client upload this round (the κ-search upper
	// bound; clients report their lengths on the control plane).
	MaxLen int
	// Fill serves FAB's rank-kappa candidates. Candidates may include
	// coordinates already selected (the fill step skips them); each client
	// appears at most once. The selection may reorder the returned slice.
	// Only FAB calls it, and only when the rank-κ union leaves the
	// selection short.
	Fill func(kappa int) ([]FillCand, error)
}

// histRanged fills the min-rank histogram from a merged reduction — no
// uploads exist here to walk — for cutoff to read κ off; maxLen, the
// longest upload, bounds the ranks.
func (s *AggScratch) histRanged(red RangeAgg, maxLen int) {
	s.rankHist = resetInts(s.rankHist, maxLen)
	for _, r := range red.MinRank {
		s.rankHist[r]++
	}
}

// fabSelectDirect builds one FAB selection (main or probe) from ranged
// facts after histRanged and begin: the rank-κ union is the merged coordinates
// ranked before κ, and — when that leaves the selection short — the
// served candidates go through the shared fill step.
func (s *AggScratch) fabSelectDirect(sel *selection, red RangeAgg, meta DirectMeta, k int) error {
	kappa, _ := s.cutoff(meta.MaxLen, k)
	for i, j := range red.Idx {
		if red.MinRank[i] < kappa {
			sel.add(j)
		}
	}
	if len(sel.members) < k {
		cands, err := meta.Fill(kappa)
		if err != nil {
			return err
		}
		sel.fill(cands, k)
	}
	return nil
}

// finishDirect emits a ranged selection: the merged reduction's exact b_j
// go into the sums slab, so finish(…, sumsValid) reads them without
// re-accumulating, and with no uploads the fairness counts stay zero.
func (s *AggScratch) finishDirect(red RangeAgg, meta DirectMeta, hasProbe bool) (Aggregate, Aggregate, error) {
	for i, j := range red.Idx {
		s.sums[j] = red.Sum[i]
	}
	main, probe := s.finish(nil, meta.NumClients, hasProbe, true)
	return main, probe, nil
}

func (*FABTopK) SelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, k, probeK int) (Aggregate, Aggregate, error) {
	s.histRanged(red, meta.MaxLen)
	s.begin(probeK > 0, true)
	err := s.fabSelectDirect(&s.main, red, meta, k)
	if err == nil && probeK > 0 {
		err = s.fabSelectDirect(&s.probe, red, meta, probeK)
	}
	if err != nil {
		return Aggregate{}, Aggregate{}, err
	}
	return s.finishDirect(red, meta, probeK > 0)
}

// Cut is FAB's selection B as the histogram plane's coordinator holds
// it: every coordinate whose minimal upload rank is below Kappa (Size of
// them; each shard knows its own) plus the Fill coordinates, ascending
// (aliasing the scratch until its next selection). Max is the largest
// |b_j| over B — the scale QuantizeInPlace finds for B's values — when
// the selection queried the fill, which it always does under withMax,
// and 0 otherwise.
type Cut struct {
	Kappa, Size int
	Fill        []int
	Max         float64
}

// Len is |B|.
func (c Cut) Len() int { return c.Size + len(c.Fill) }

// FillServer serves the histogram selection's fill at kappa: the rank-κ
// candidates outside the rank-κ union, each with its b_j in Sum (every
// shard's ServeFill, merged), and the largest |b_j| over the union. Each
// client appears at most once; the selection may reorder the slice.
type FillServer func(kappa int) (cands []FillCand, unionMax float64, err error)

// SelectHist is FAB's main selection for budget k read off hist, the
// merged min-rank histogram of the round (hist[r] counts the coordinates
// whose minimal upload rank is r; its length is the round's longest
// upload, the κ-search bound): κ and the union size by cutoff, then —
// when the union leaves B short, or withMax asks for B's scale — fill's
// candidates through the one fill step, which joins them to the union
// until B holds k members. The Cut is AggregateInto's B bit for bit, its
// Max the scale of B's values. The scratch must have been Reserved for
// the model dimension.
func (*FABTopK) SelectHist(s *AggScratch, hist []int, fill FillServer, k int, withMax bool) (Cut, error) {
	s.rankHist = append(s.rankHist[:0], hist...)
	kappa, size := s.cutoff(len(hist), k)
	cut := Cut{Kappa: kappa, Size: size}
	sel := &s.main
	s.begin(false, false)
	if size < k || withMax {
		cands, unionMax, err := fill(kappa)
		if err != nil {
			return Cut{}, err
		}
		sel.fill(cands, k-size)
		cut.Max = unionMax
		for _, c := range cands {
			if a := math.Abs(c.Sum); sel.in[c.Idx]&sel.bit != 0 && a > cut.Max {
				cut.Max = a
			}
		}
	}
	ascendingIn(sel.members, sel.in, sel.bit)
	cut.Fill = sel.members
	return cut, nil
}

func (FUBTopK) SelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, k, probeK int) (Aggregate, Aggregate, error) {
	// The merged reduction holds every uploaded coordinate's exact b_j,
	// so FUB's ranking needs no per-upload metadata at all.
	s.entries = s.entries[:0]
	for i, j := range red.Idx {
		s.entries = append(s.entries, fubEntry{j, math.Abs(red.Sum[i])})
	}
	s.fubSelect(k, probeK)
	return s.finishDirect(red, meta, probeK > 0)
}

// unionSelectDirect serves the strategies whose selection is the whole
// upload union: every merged coordinate is a member.
func unionSelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, probeK int) (Aggregate, Aggregate, error) {
	s.unionSelect(nil, red, probeK > 0)
	return s.finishDirect(red, meta, probeK > 0)
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
