// Package sparse implements the sparse-gradient machinery of the paper:
// index/value vectors, top-k selection by absolute value, and the
// stochastic rounding that realizes a continuous sparsity degree k
// (Definition 2, "randomized k-element GS").
package sparse

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
)

// Vec is a sparse vector as parallel index/value slices. The wire format
// of a k-element sparse gradient is exactly these 2k scalars, which is why
// the cost model charges 2 units per element (the paper's "division by 2
// due to index transmission").
type Vec struct {
	Idx []int
	Val []float64
}

// Len returns the number of stored elements.
func (v Vec) Len() int { return len(v.Idx) }

// Clone returns a deep copy.
func (v Vec) Clone() Vec {
	out := Vec{Idx: make([]int, len(v.Idx)), Val: make([]float64, len(v.Val))}
	copy(out.Idx, v.Idx)
	copy(out.Val, v.Val)
	return out
}

// AddTo accumulates scale·v into the dense vector.
func (v Vec) AddTo(dense []float64, scale float64) {
	for i, idx := range v.Idx {
		dense[idx] += scale * v.Val[i]
	}
}

// FromDense extracts all nonzero elements in index order.
func FromDense(dense []float64) Vec {
	var v Vec
	for i, x := range dense {
		if x != 0 {
			v.Idx = append(v.Idx, i)
			v.Val = append(v.Val, x)
		}
	}
	return v
}

// rankKey maps x to the integer that defines the top-k rank order: the
// IEEE-754 bit pattern with the sign cleared. Unsigned order on keys is
// |x| order on finite values, and it stays a total order on every other
// bit pattern: −0 ≡ +0 (key 0), denormals sit just above zero, ±Inf rank
// above every finite value, and a NaN ranks above +Inf, by payload.
func rankKey(x float64) uint64 { return math.Float64bits(x) &^ (1 << 63) }

// TopK returns the k elements of dense with the largest absolute values,
// sorted by rank (|value| descending, index ascending on ties). If
// k >= len(dense) every element is returned; k <= 0 returns an empty Vec.
//
// The order is defined on every bit pattern, not only on finite values:
// elements compare by rankKey, so −0 ties with +0, denormals rank just
// above zero, ±Inf above every finite value and NaN above +Inf (by
// payload). Whether to accept non-finite values is the caller's policy;
// selection is deterministic on them.
//
// Selection has no data-dependent pivots. On a vector of at least
// prefilterMin (1 024) elements an exact prefilter runs: a fixed-stride
// sample of the keys — every eighth, up to 1 024 of them — guesses a cut
// g, and one branch-free pass (an AVX2 kernel where the processor has it)
// keeps the elements whose key is ≥ g, with their keys, in index order.
// When at least k survive, the k-th largest key is ≥ g, so the whole top
// k survived, and one stable sort of the survivors by key, truncated to
// k, is the top k in rank order, with ties at the cut in index order: an
// insertion sort while the survivors times k is small, as on a small
// model at a small k, and a radix sort otherwise. At k = D every nonzero
// key survives a cut of 1, so the same sort runs over all of them with no
// select, and the zeros follow in index order. Otherwise — fewer than k
// survivors, more than half the scratch slab, a vector below
// prefilterMin, or a k so close to D that most of the sample reaches the
// cut — the full path runs over every element: a radix select of the
// k-th largest key, one filter pass, and a radix sort of the k selected.
// The tests' TopKHeap is the O(D log k) reference it is cross-checked
// against. TopK is a thin wrapper over TopKInto that allocates fresh
// storage per call; hot paths should hold a TopKScratch and call
// TopKInto directly.
func TopK(dense []float64, k int) Vec {
	return TopKInto(Vec{}, nil, dense, k)
}

// TopKScratch is the reusable working memory of TopKInto: one slab of
// max(D, 2k+2) words that each stage of a call reuses from its start. The
// prefilter's key sample takes the first sampleSize(D) words, then its
// survivors the two halves, keys in the first and indices in the second,
// and the sort's records take the keys' half with the indices' half as
// their spare. On the full path the select's candidate keys take the
// first D words instead, and then the selected indices and the sort's
// spare k+2 and k words. It carries nothing from one call to the next —
// the result is a function of (dense, k) alone — and its zero value is
// ready to use. The slab only grows, so a scratch warmed at k = D serves
// every smaller k and D without allocating. A scratch is single-goroutine
// state: one per concurrent selector (per worker, not per client — see
// internal/fl).
type TopKScratch struct {
	slab []uint64
}

// slabWords is the slab a TopKInto of k ≤ d from a d-long vector uses:
// the full path's d candidate keys, or the selected indices plus the
// sort's spare, whichever is more. The prefilter needs no more: it takes
// the survivors only while they fit in half of it, which at k = d is all
// d of them.
func slabWords(d, k int) int { return max(d, 2*k+2) }

// Reserve grows the slab to what a TopKInto of k from a d-long vector
// needs, on either path. TopKInto reserves for itself; a caller running
// one scratch per worker calls this first, where the sizes are known, so
// that which worker happens to meet the largest k does not decide how
// often a run reallocates.
func (s *TopKScratch) Reserve(d, k int) {
	if need := slabWords(d, min(k, d)); cap(s.slab) < need {
		s.slab = make([]uint64, need)
	}
}

// TopKInto is TopK writing into caller-owned storage: dst's slices are
// reused when their capacity suffices (grown otherwise) and scratch holds
// the working memory across calls, so steady-state selection performs zero
// allocations. A nil scratch allocates a transient one, which is exactly
// TopK. len(dense) must fit in 32 bits, as indices do on the wire: the
// sort packs each index into 32 bits, so a longer vector panics.
func TopKInto(dst Vec, scratch *TopKScratch, dense []float64, k int) Vec {
	d := len(dense)
	if uint64(d) > math.MaxUint32 {
		panic("sparse: TopKInto of a vector of 2^32 or more elements")
	}
	if k <= 0 || d == 0 {
		dst.Idx, dst.Val = dst.Idx[:0], dst.Val[:0]
		return dst
	}
	k = min(k, d)
	var local TopKScratch
	if scratch == nil {
		scratch = &local
	}
	scratch.Reserve(d, k)
	// Only what Reserve(d, k) guarantees: the prefilter's survivor bound,
	// and so its path, then depends on (dense, k) alone.
	slab := scratch.slab[:slabWords(d, k)]
	dst.Idx, dst.Val = slices.Grow(dst.Idx[:0], k)[:k], slices.Grow(dst.Val[:0], k)[:k]

	if keys, at, ok := survivors(slab, dense, k); ok {
		n := min(k, len(keys)) // fewer only at k = D, where zeros are the rest
		top, _ := sortSurvivors(keys, at, dense, n)
		emit(dst, 0, top[:n], dense)
		emitZeros(dst, n, dense)
		return dst
	}
	// The cut: every key above t is selected, plus the first `ties`
	// elements in index order that carry exactly t — and those rank last,
	// in that same order.
	t, ties, hi := selectTop(slab, dense, k)
	above := k - ties
	sel, tmp := slab[:k+2], slab[k+2:2*k+2]
	emit(dst, above, sel[above+1:k+1], dense)
	top, base := sel[:above], t+1
	shift := windowShift(base, hi)
	windows(top, dense, base, shift)
	top, _ = rankSort(top, tmp, dense, base, hi, shift, above)
	emit(dst, 0, top, dense)
	return dst
}

const (
	// digitBits is the radix of the select and of the sort. The select's
	// first digit is then the whole exponent, where gradient magnitudes
	// spread; the sort orders a window of two digits per pass.
	digitBits  = 11
	digitMask  = 1<<digitBits - 1
	windowBits = 2 * digitBits
	// repairMax bounds how far the insertion repair moves one element.
	repairMax = 32
	// selectSortMax is the most keys the select sorts outright rather
	// than histogram by another digit.
	selectSortMax = 32
	// insertMax bounds the survivors' sort by insertion: it runs while the
	// survivors times the k it keeps is at most this, about as many moves
	// as the radix sort's fixed cost of walking its histograms.
	insertMax = 4096
	// sampleKeys is the most keys the prefilter's fixed-stride sample
	// takes, at a stride of at least sampleStride, and prefilterMin the
	// shortest vector it runs on, where the sample has sampleMin keys.
	sampleKeys   = 1 << 10
	sampleStride = 8
	sampleMin    = 1 << 7
	prefilterMin = sampleStride * sampleMin
)

// sampleSize is how many keys cutGuess samples from a d-long vector:
// every eighth, up to sampleKeys.
func sampleSize(d int) int { return min(sampleKeys, d/sampleStride) }

// sampleMost is the most keys of an n-key sample the prefilter's cut may
// keep: 7/16 of the sample predicts fewer survivors than the half slab
// they live in.
func sampleMost(n int) int { return 7 * n / 16 }

// selectTop is the full path's select: it finds the top k of dense
// (0 < k <= len(dense)) and leaves their indices in slab[:k+2] as filter
// lays them out. It returns the k-th largest key t, how many of the
// elements carrying exactly t belong to the top k, and the largest key.
func selectTop(slab []uint64, dense []float64, k int) (t uint64, ties int, hi uint64) {
	var hist [1 << digitBits]uint32
	cand := slab[:len(dense)]
	for i, x := range dense {
		key := rankKey(x)
		cand[i] = key
		hist[key>>52]++
		hi = max(hi, key)
	}
	t, ties = kthKey(cand, k, &hist, int(hi>>52))
	filter(slab[:k+2], dense, t, k-ties, ties)
	return t, ties, hi
}

// survivors runs the prefilter: the keys of dense that reach the cut g,
// and their indices, in index order, laid out in the two halves of slab.
// The cut is cutGuess's, or 1 at k = len(dense), where every element but
// the zeros survives. ok reports whether they stand in for dense: dense is
// at least prefilterMin long, there is a cut, and either k = len(dense)
// or at least k survive and fewer than half the slab less one — which
// tells a pass that kept them all from one that stopped when the keys'
// half was full.
func survivors(slab []uint64, dense []float64, k int) (keys, at []uint64, ok bool) {
	d := len(dense)
	if d < prefilterMin {
		return nil, nil, false
	}
	g := uint64(1)
	if k < d {
		if g, ok = cutGuess(dense, k, slab); !ok {
			return nil, nil, false
		}
	}
	m := len(slab)/2 - 1 // at k = d: d, room for all of them
	keys, at = slab[:m], slab[m+1:2*m+1]
	n := compact(keys, at, dense, g)
	return keys[:n], at[:n], k == d || k <= n && n < m
}

// sortSurvivors sorts the prefilter's survivors — their keys and their
// indices, in index order — far enough that the first k of the result are
// their top k in rank order. Few survivors for their k are sorted by
// insertion (insertTop). Otherwise it builds the sort's records over the
// keys, windows on the offset from the smallest, and sorts them with the
// indices' room as the spare; exact is rankSort's.
func sortSurvivors(keys, at []uint64, dense []float64, k int) (top []uint64, exact bool) {
	if len(keys)*k <= insertMax {
		return insertTop(keys, at, k), true
	}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, key := range keys {
		lo, hi = min(lo, key), max(hi, key)
	}
	shift := windowShift(lo, hi)
	for i, key := range keys {
		keys[i] = (key-lo)>>shift<<32 | at[i]
	}
	return rankSort(keys, at, dense, lo, hi, shift, k)
}

// insertTop is sortSurvivors by stable insertion: keys[:k] keeps the top
// k so far in rank order, and each later survivor above the k-th moves up
// past the keys below its own, so ties stay in index order. It returns
// the top k as records, each element's index in its low 32 bits, in
// keys[:k]. At most len(keys)·k moves, and on real data few survivors
// reach the k-th once the first k are in.
func insertTop(keys, at []uint64, k int) []uint64 {
	n := 0 // the sorted prefix, at most k long
	for i, key := range keys {
		if n == k && key <= keys[k-1] {
			continue
		}
		e, j := at[i], min(n, k-1) // a full prefix drops its last
		for ; j > 0 && keys[j-1] < key; j-- {
			keys[j], at[j] = keys[j-1], at[j-1]
		}
		keys[j], at[j] = key, e
		n = min(n+1, k)
	}
	copy(keys, at[:n])
	return keys[:n]
}

// emitZeros writes the elements of dense whose key is 0 — ±0 — in index
// order to dst[n:], as many as fit.
func emitZeros(dst Vec, n int, dense []float64) {
	for i, x := range dense {
		if n == len(dst.Idx) {
			return
		}
		if rankKey(x) == 0 {
			dst.Idx[n], dst.Val[n] = i, x
			n++
		}
	}
}

// cutGuess returns the prefilter's cut for the top k of dense: a key g
// that at least k keys of dense probably reach, and not many more. It
// reads sampleSize(D) keys at a fixed stride into slab and takes the q-th
// largest, with q = λ + 4√λ + 4 and λ = k·sampleSize(D)/D the number of
// top-k elements the sample holds on average — four standard deviations
// of margin, so the guess rarely leaves fewer than k survivors. It draws
// no randomness. ok is false where the prefilter does not run: D below
// prefilterMin, or more than 7/16 of the sample at or above the cut (k is
// close to D, or ties at g are many), where the survivors would not fit in
// half the slab or save little over the full path.
func cutGuess(dense []float64, k int, slab []uint64) (g uint64, ok bool) {
	d := len(dense)
	if d < prefilterMin {
		return 0, false
	}
	size := sampleSize(d)
	q := sampleRank(d, k)
	if q > sampleMost(size) {
		return 0, false
	}
	var hist [1 << digitBits]uint32
	sample, stride := slab[:size], d/size
	var hi uint64
	for j := range sample {
		key := rankKey(dense[j*stride])
		sample[j] = key
		hist[key>>52]++
		hi = max(hi, key)
	}
	g, _ = kthKey(sample, q, &hist, int(hi>>52)) // reorders sample: count on dense
	n := 0
	for j := range size {
		n += int(^(rankKey(dense[j*stride]) - g) >> 63)
	}
	return g, n <= sampleMost(size)
}

// sampleRank is the rank from the top, in cutGuess's sample, of the cut
// for the top k of a d-long vector.
func sampleRank(d, k int) int {
	lambda := float64(k) * float64(sampleSize(d)) / float64(d)
	return int(math.Ceil(lambda + 4*math.Sqrt(lambda) + 4))
}

// compact is the prefilter's pass, in index order: the keys ≥ g fill
// keys and their indices at, and the count is returned. It stops when
// either is full, returning that length. compactAVX2 runs it where the
// processor has AVX2, and compactGo, the oracle, finishes what the
// kernel leaves and runs it everywhere else.
func compact(keys, at []uint64, dense []float64, g uint64) int {
	room := min(len(keys), len(at))
	keys, at = keys[:room], at[:room]
	n, i := 0, 0
	if useAVX2 {
		n, i = compactAVX2(keys, at, dense, g)
	}
	return compactGo(keys, at, dense, g, n, i)
}

// compactGo is compact from dense[i:], with n kept so far and
// len(at) ≥ len(keys). Stores are unconditional and the cursor advances
// by a comparison bit, so the pass has no data-dependent branch.
func compactGo(keys, at []uint64, dense []float64, g uint64, n, i int) int {
	for ; i < len(dense) && n < len(keys); i++ {
		key := rankKey(dense[i])
		keys[n], at[n] = key, uint64(i)
		n += int(^(key - g) >> 63) // 1 iff key >= g: both are below 2^63
	}
	return n
}

// kthKey returns the k-th largest of keys (0 < k <= len(keys)) and how
// many of the keys equal to it belong to the top k. hist is the histogram
// of the keys' top digit (key>>52), and top the highest digit it holds.
// It is an MSD radix select that reorders keys: walk the buckets from the
// highest occupied one down to the one holding the k-th largest, keep
// only that bucket's keys, and go on from the highest bit the survivors
// still differ in — so it ends as soon as they are all equal, or few
// enough to sort instead of walking another histogram.
func kthKey(keys []uint64, k int, hist *[1 << digitBits]uint32, top int) (t uint64, ties int) {
	for shift, need := 52, k; ; {
		b := top
		for ; int(hist[b]) < need; b-- {
			need -= int(hist[b])
		}
		n := 0
		for _, key := range keys {
			keys[n] = key
			n += int(((key>>shift&digitMask ^ uint64(b)) - 1) >> 63) // 1 iff the digit is b
		}
		keys = keys[:n]
		if n <= selectSortMax {
			slices.Sort(keys)
			t = keys[n-need]
			for _, key := range keys[n-need:] {
				if key == t {
					ties++
				}
			}
			return t, ties
		}
		var diff uint64
		for _, key := range keys {
			diff |= key ^ keys[0]
		}
		if diff == 0 {
			return keys[0], need
		}
		shift = max(bits.Len64(diff)-digitBits, 0)
		clear(hist[:])
		top = 0
		for _, key := range keys {
			dg := int(key >> shift & digitMask)
			hist[dg]++
			top = max(top, dg)
		}
	}
}

// filter is the selection pass, in index order: the indices of the keys
// above t fill sel[:above], those of the first `ties` elements equal to t
// fill sel[above+1:above+1+ties]. Stores are unconditional and the cursors
// advance by comparison bits, so the pass has no data-dependent branch;
// sel[above] and sel[above+1+ties] only catch stores of unselected
// elements.
func filter(sel []uint64, dense []float64, t uint64, above, ties int) {
	tie := sel[above+1 : above+2+ties]
	na, ne := 0, 0
	for i, x := range dense {
		key := rankKey(x)
		sel[na] = uint64(i)
		tie[min(ne, ties)] = uint64(i)
		na += int((t - key) >> 63)       // 1 iff key > t: both are below 2^63
		ne += int(((key ^ t) - 1) >> 63) // 1 iff key == t
	}
}

// emit writes the elements recs names in its low 32 bits to dst[at:].
func emit(dst Vec, at int, recs []uint64, dense []float64) {
	idx, val := dst.Idx[at:at+len(recs)], dst.Val[at:at+len(recs)]
	for i, e := range recs {
		idx[i], val[i] = int(uint32(e)), dense[uint32(e)]
	}
}

// windowShift is the shift that leaves windowBits of the largest offset
// hi − base, or none when it is shorter.
func windowShift(base, hi uint64) int { return max(bits.Len64(hi-base)-windowBits, 0) }

// windows rewrites recs — element indices of dense in their low 32 bits —
// as sort records: the window (key − base) >> shift above the index.
func windows(recs []uint64, dense []float64, base uint64, shift int) {
	for i, e := range recs {
		e &= math.MaxUint32
		recs[i] = (rankKey(dense[e])-base)>>(shift&63)<<32 | e
	}
}

// rankSort sorts recs — sort records of the elements of dense whose keys
// lie in [base, hi], as windows(recs, dense, base, shift) builds them —
// stably by rank, far enough that the first k are the top k in rank order.
// tmp is spare room of the same length; the result is in one of the two.
// The records are radix-sorted by window, which leaves them sorted except
// where distinct keys share a window — rare and adjacent on real data —
// and an insertion pass on the full key repairs the prefix up to the end
// of the k-th record's window: no record past it can rank above one
// before it. At most repairMax records take the insertion pass alone, and
// exact windows (shift 0) the radix sort alone. exact is false when the
// repair gave up on long runs of distinct keys in one window, and the sort
// ran on every window of the offset instead, lowest first.
func rankSort(recs, tmp []uint64, dense []float64, base, hi uint64, shift, k int) (sorted []uint64, exact bool) {
	if len(recs) <= repairMax {
		repair(recs, dense) // cannot give up: nothing moves repairMax places
		return recs, true
	}
	recs, tmp = radixSort(recs, tmp)
	if shift == 0 {
		return recs, true
	}
	e := k
	for w := recs[k-1] >> 32; e < len(recs) && recs[e]>>32 == w; e++ {
	}
	if repair(recs[:e], dense) {
		return recs, true
	}
	for shift := 0; (hi-base)>>shift != 0; shift += windowBits {
		windows(recs, dense, base, shift)
		recs, tmp = radixSort(recs, tmp)
	}
	return recs, false
}

// radixSort stably sorts recs by descending window, the windowBits above
// bit 32, with one LSD pass per digit; a digit on which all windows agree
// is skipped. tmp is spare room of the same length. It returns the sorted
// records and the spare, swapped when the passes were odd.
func radixSort(recs, tmp []uint64) (sorted, spare []uint64) {
	var hist [2][1 << digitBits]uint32
	for _, e := range recs {
		hist[0][e>>32&digitMask]++
		hist[1][e>>(32+digitBits)&digitMask]++
	}
	src, dst := recs, tmp[:len(recs)]
	for p := range hist {
		h := &hist[p]
		if slices.Contains(h[:], uint32(len(recs))) {
			continue
		}
		var sum uint32
		for dg := digitMask; dg >= 0; dg-- {
			h[dg], sum = sum, sum+h[dg]
		}
		for _, e := range src {
			dg := e >> (32 + digitBits*p) & digitMask
			dst[h[dg]] = e
			h[dg]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// repair finishes sorting recs by stable insertion on the full rank key of
// the element each names, linear on nearly sorted input. It gives up,
// returning false, on an element more than repairMax places from home;
// recs then holds the same records, equal keys still in their order.
func repair(recs []uint64, dense []float64) bool {
	if len(recs) == 0 {
		return true
	}
	prev := rankKey(dense[uint32(recs[0])]) // the key at i−1
	for i := 1; i < len(recs); i++ {
		e := recs[i]
		key := rankKey(dense[uint32(e)])
		if prev >= key {
			prev = key
			continue
		}
		// e moves up; what lands at i is what was at i−1, whose key is prev.
		j := i
		for ; j > 0 && rankKey(dense[uint32(recs[j-1])]) < key; j-- {
			if i-j == repairMax {
				recs[j] = e
				return false
			}
			recs[j] = recs[j-1]
		}
		recs[j] = e
	}
	return true
}

// StochasticRound realizes a continuous k as an integer per Definition 2:
// ⌊k⌋ with probability ⌈k⌉−k, ⌈k⌉ with probability k−⌊k⌋, so that
// E[result] = k. Integer k is returned unchanged.
func StochasticRound(k float64, rng *rand.Rand) int {
	floor := math.Floor(k)
	frac := k - floor
	if frac == 0 {
		return int(floor)
	}
	if rng.Float64() < frac {
		return int(floor) + 1
	}
	return int(floor)
}

// QuantizeInPlace quantizes val in place to the given bit width —
// symmetric uniform with scale = max |value|, the quantization the paper
// cites as orthogonal to GS and combinable with it ([30], [31]) — and
// returns the scale it used: the one scalar a receiver needs to
// reconstruct the b-bit grid, which is how quantized values travel as
// packed integers on the wire (internal/transport's binary codec). bits
// must be in [2, 64]; 64 is a no-op. The worst-case per-element error is
// scale/(2^(bits−1)−1)/2. A zero scale (empty or all-zero val) leaves
// val untouched and reports 0: there is no grid to snap to. So does an
// infinite one, which it reports.
func QuantizeInPlace(val []float64, bits int) float64 {
	if bits >= 64 || len(val) == 0 {
		return 0
	}
	if bits < 2 {
		panic("sparse: Quantize needs at least 2 bits")
	}
	var scale float64
	for _, x := range val {
		if a := math.Abs(x); a > scale {
			scale = a
		}
	}
	QuantizeToScale(val, bits, scale)
	return scale
}

// QuantizeToScale snaps val onto the b-bit quantization grid of the
// given scale: step = scale/(2^(bits−1)−1), each value becomes
// round(v/step)·step. It is the receiver half of the wire quantization:
// a peer that knows (bits, scale) reproduces the sender's grid values
// bit-for-bit from its own copy of the pre-quantization data (the
// direct downlink, where shards hold the reduction sums and the
// coordinator broadcasts only the global scale). bits ≥ 64 and a zero
// or non-finite scale are no-ops; bits must otherwise be in [2, 64].
//
// Finite input gives finite output on the grid, and a second pass
// changes nothing (for bits ≤ 53): values beyond ±scale saturate at
// the grid's ends, and a scale whose step is not a normal float64, or
// whose top grid point would round past MaxFloat64, takes the exact
// path of quantizeExact. A non-finite scale (an infinite value in
// QuantizeInPlace) has no grid either and leaves val untouched, like
// scale = 0: its step would turn every value into 0·Inf = NaN.
func QuantizeToScale(val []float64, bits int, scale float64) {
	if bits >= 64 || scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) || len(val) == 0 {
		return
	}
	if bits < 2 {
		panic("sparse: Quantize needs at least 2 bits")
	}
	levels := float64(int64(1)<<(bits-1)) - 1
	step := scale / levels
	if a := math.Abs(scale); math.Abs(step) < 0x1p-1022 || a > 0x1p1023 {
		quantizeExact(val, levels, a)
		return
	}
	for i, x := range val {
		q := math.Round(x / step)
		if math.Abs(q) > levels {
			q = math.Copysign(levels, q)
		}
		val[i] = q * step
	}
}

// quantizeExact is QuantizeToScale's grid in exact arithmetic, for the
// scales where step = scale/levels is subnormal or zero, or where
// levels·step overflows: each value becomes the float64 nearest to
// q·scale/levels, with q the integer nearest to |v|·levels/scale (ties
// away from zero) capped at levels, and v's sign. NaN stays NaN.
func quantizeExact(val []float64, levels, scale float64) {
	var lv, sc, r big.Rat
	lv.SetFloat64(levels)
	sc.SetFloat64(scale)
	var q, twoDen big.Int
	for i, x := range val {
		if x != x {
			continue
		}
		r.Set(&lv) // an infinite value saturates
		if !math.IsInf(x, 0) {
			r.SetFloat64(math.Abs(x))
			r.Mul(&r, &lv)
			r.Quo(&r, &sc)
			// q = ⌊(2·num + den) / (2·den)⌋ for r = num/den ≥ 0.
			twoDen.Lsh(r.Denom(), 1)
			q.Lsh(r.Num(), 1)
			q.Add(&q, r.Denom())
			q.Quo(&q, &twoDen)
			if r.SetInt(&q); r.Cmp(&lv) > 0 {
				r.Set(&lv)
			}
		}
		r.Mul(&r, &sc)
		r.Quo(&r, &lv)
		f, _ := r.Float64()
		val[i] = math.Copysign(f, x)
	}
}
