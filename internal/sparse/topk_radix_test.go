package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestTopKOrderOnEveryBitPattern pins the rank order where |x| comparison
// used to leave it undefined: the key is the bit pattern with the sign
// cleared, ties go to the smaller index. Kernel and oracle must agree.
func TestTopKOrderOnEveryBitPattern(t *testing.T) {
	nan := math.Float64frombits(0x7FF8000000000000)       // the quiet NaN
	nanLow := math.Float64frombits(0x7FF0000000000001)    // signalling, lowest payload
	nanHigh := math.Float64frombits(0xFFFFFFFFFFFFFFFF)   // sign set, highest payload
	negNaN := math.Float64frombits(0xFFF8000000000000)    // nan with the sign set: the same key
	inf, tiny := math.Inf(1), math.SmallestNonzeroFloat64 // tiny: the lowest denormal
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name  string
		dense []float64
		k     int
		want  []int
	}{
		{"NaN outranks +Inf", []float64{1, inf, nan, -2}, 4, []int{2, 1, 3, 0}},
		{"NaNs order by payload", []float64{nanLow, nan, nanHigh}, 3, []int{2, 1, 0}},
		{"sign of NaN is ignored", []float64{negNaN, nan, negNaN}, 2, []int{0, 1}},
		{"-Inf ties +Inf by index", []float64{math.MaxFloat64, -inf, inf}, 2, []int{1, 2}},
		{"+Inf ties -Inf by index", []float64{inf, -inf, math.MaxFloat64}, 3, []int{0, 1, 2}},
		{"-0 ties +0 by index", []float64{negZero, 0, negZero}, 2, []int{0, 1}},
		{"+0 ties -0 by index", []float64{0, negZero}, 1, []int{0}},
		{"denormal outranks both zeros", []float64{0, negZero, -tiny}, 1, []int{2}},
		{"denormals order among themselves", []float64{tiny, 3 * tiny, -2 * tiny, 0}, 4, []int{1, 2, 0, 3}},
		{"smallest normal outranks largest denormal", []float64{0x1p-1022 - tiny, 0x1p-1022}, 2, []int{1, 0}},
		{"cut inside a NaN tie", []float64{nan, 5, nan, nan}, 2, []int{0, 2}},
		{"everything at once", []float64{negZero, tiny, -1, inf, nan, 0, -inf, 1}, 8, []int{4, 3, 6, 2, 7, 1, 0, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for impl, got := range map[string]Vec{"TopKInto": TopK(tc.dense, tc.k), "TopKHeap": TopKHeap(tc.dense, tc.k)} {
				if got.Len() != len(tc.want) {
					t.Fatalf("%s: %d elements, want %d", impl, got.Len(), len(tc.want))
				}
				for i, ix := range tc.want {
					if got.Idx[i] != ix || math.Float64bits(got.Val[i]) != math.Float64bits(tc.dense[ix]) {
						t.Fatalf("%s: rank %d = (%d, %v), want index %d; got order %v", impl, i, got.Idx[i], got.Val[i], ix, got.Idx)
					}
				}
			}
		})
	}
}

// requireTopKMatchesHeap checks one selection against the heap oracle bit
// for bit, and that it is strictly rank-ordered.
func requireTopKMatchesHeap(t *testing.T, label string, got Vec, dense []float64, k int) {
	t.Helper()
	requireSameVec(t, label, got, TopKHeap(dense, k))
	for i := 1; i < got.Len(); i++ {
		if !rankLess(dense, got.Idx[i-1], got.Idx[i]) {
			t.Fatalf("%s: ranks %d and %d out of order", label, i-1, i)
		}
	}
}

// TestTopKIntoAdversarialShapes is the differential grid for what a radix
// pipeline can get wrong — digit skipping, the cut inside a run of equal
// keys, windows that cannot tell keys apart — with one scratch and one dst
// reused across the whole sequence.
func TestTopKIntoAdversarialShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ulps := func(x float64, n int) float64 { return math.Float64frombits(math.Float64bits(x) + uint64(n)) }
	shapes := []struct {
		name string
		fill func(dense []float64)
	}{
		{"all equal", func(dense []float64) {
			for i := range dense {
				dense[i] = -0.375
			}
		}},
		{"all zero", func(dense []float64) {}},
		{"mostly zero", func(dense []float64) { // at least 60% exact zeros: k = D-1 and D cut inside the zero run
			for i := range dense {
				if rng.Intn(10) < 3 {
					dense[i] = rng.NormFloat64()
				}
			}
		}},
		{"ties straddle the cut", func(dense []float64) { // few levels, both signs: winners decided by index
			for i := range dense {
				dense[i] = float64(rng.Intn(5)-2) * 0.25
			}
		}},
		{"one exponent bucket", func(dense []float64) {
			for i := range dense {
				dense[i] = (1 + rng.Float64()) * float64(1-2*rng.Intn(2))
			}
		}},
		{"lowest mantissa bit", func(dense []float64) {
			for i := range dense {
				dense[i] = ulps(1.5, rng.Intn(2))
			}
		}},
		{"denormals only", func(dense []float64) {
			for i := range dense {
				dense[i] = math.Float64frombits(uint64(rng.Int63n(1 << 52)))
			}
		}},
		{"one window, many keys", func(dense []float64) { // an outlier stretches the offset range so the top window cannot tell the rest apart
			for i := range dense {
				dense[i] = ulps(1, rng.Intn(len(dense)))
			}
			dense[rng.Intn(len(dense))] = 0x1p40
		}},
		{"non-finite mixed in", func(dense []float64) {
			for i := range dense {
				dense[i] = []float64{rng.NormFloat64(), 0, math.Inf(-1), math.NaN(), math.Float64frombits(rng.Uint64())}[rng.Intn(5)]
			}
		}},
	}
	var scratch TopKScratch
	var dst Vec
	for _, sh := range shapes {
		for _, d := range []int{1, 2, 255, 4095, 4097} {
			dense := make([]float64, d)
			sh.fill(dense)
			for _, k := range []int{1, d / 2, d - 1, d, d + 3} {
				dst = TopKInto(dst, &scratch, dense, k)
				requireTopKMatchesHeap(t, fmt.Sprintf("%s d=%d k=%d", sh.name, d, k), dst, dense, k)
			}
		}
	}
}

// The paths TopKInto takes: the prefilter's survivors sorted, or at k = D
// every nonzero key sorted — by insertion when they are few for their k,
// else by radix with the insertion repair or, when that gives up, on
// every window; or the full path because cutGuess gives no cut, or
// because too few or too many elements reach it.
const (
	pathPrefilter       = "prefilter"
	pathPrefilterInsert = pathPrefilter + ", insertion"
	pathPrefilterResort = pathPrefilter + ", every window"
	pathAll             = "all"
	pathAllInsert       = pathAll + ", insertion"
	pathAllResort       = pathAll + ", every window"
	pathNoGuess         = "no guess"
	pathTooFew          = "too few"
	pathTooMany         = "too many"
)

// topKPath names the path TopKInto takes for the top k of dense.
func topKPath(dense []float64, k int) string {
	slab := make([]uint64, slabWords(len(dense), k))
	keys, at, ok := survivors(slab, dense, k)
	if ok {
		path := pathPrefilter
		if k == len(dense) {
			path = pathAll
		}
		n := min(k, len(keys))
		if len(keys)*n <= insertMax {
			return path + ", insertion"
		}
		if _, exact := sortSurvivors(keys, at, dense, n); !exact {
			path += ", every window"
		}
		return path
	}
	if _, ok := cutGuess(dense, k, slab); !ok {
		return pathNoGuess
	}
	if len(keys) < k {
		return pathTooFew
	}
	return pathTooMany
}

// TestTopKIntoEngineSizedMatchesHeap runs the differential at the
// dimension the engine works at, where the prefilter runs, the sort's
// windows hold several keys each and the repair pass has real work. The
// cuts follow the adaptive controller's trajectory — D/500 up to the
// largest k the prefilter takes, and D — and the shapes include the ones
// that defeat the sample: a guess that over-shoots (the mass sits between
// the sample points), one that keeps too much, ties at the cut and
// non-finite keys. Every row also pins the path it took — the prefilter's
// survivors sorted, or at k = D every nonzero key sorted, each with the
// insertion repair or on every window, or the full path and why — so no
// row passes only because it fell back.
func TestTopKIntoEngineSizedMatchesHeap(t *testing.T) {
	const d = 60_000
	size := sampleSize(d)
	stride := d / size
	sampled := func(i int) bool { return i%stride == 0 && i/stride < size }
	cutoff := d / 2 // the largest k with a sample rank the prefilter takes
	for sampleRank(d, cutoff) > sampleMost(size) {
		cutoff--
	}
	ks := []int{d / 500, d / 100, d / 10, d / 4, cutoff, d}
	rng := rand.New(rand.NewSource(56))
	pre, preR, all, allR := pathPrefilter, pathPrefilterResort, pathAll, pathAllResort
	none, few, many := pathNoGuess, pathTooFew, pathTooMany
	for _, row := range []struct {
		name  string
		fill  func(i int) float64
		paths []string // per k of ks
	}{
		{"normal", func(int) float64 { return rng.NormFloat64() }, []string{pre, pre, pre, pre, pre, all}},
		{"residual", func(int) float64 { // mostly exact zeros under a heavy tail
			if rng.Intn(10) < 7 {
				return 0
			}
			return rng.NormFloat64() * 1e-4 / (rng.Float64() + 1e-3)
		}, []string{pre, pre, pre, pre, none, all}},
		{"ascending ramp", func(i int) float64 { return float64(i + 1) }, []string{pre, pre, pre, pre, pre, all}},
		{"descending ramp", func(i int) float64 { return -float64(d - i) }, []string{pre, pre, pre, pre, pre, all}},
		{"mass between the samples, guess over-shoots", func(i int) float64 { // d/100 − 1 ones, 400 sampled: at k = d/100 one too few survive
			switch {
			case sampled(i):
				return []float64{1, 0.125}[min(i/stride/400, 1)]
			case i%stride == 1 && i/stride < d/100-1-400:
				return 1
			}
			return 0.5 + rng.Float64()/4
		}, []string{pre, few, few, few, none, all}},
		{"mass between the samples, guess keeps all", func(i int) float64 {
			if sampled(i) {
				return []float64{0.25, 0.25, 1e-9, 1e-9, 1e-9}[i/stride%5]
			}
			return 1 + rng.Float64()
		}, []string{many, many, many, many, none, all}},
		{"all equal", func(int) float64 { return -0.375 }, []string{none, none, none, none, none, all}},
		{"all zero", func(int) float64 { return 0 }, []string{none, none, none, none, none, pathAllInsert}}, // at k = D nothing survives the cut of 1
		{"two values", func(int) float64 { return []float64{1, -2, 1, -1}[rng.Intn(4)] }, []string{pre, pre, pre, none, none, all}},
		{"non-finite mixed in", func(int) float64 {
			switch rng.Intn(100) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2:
				return math.Float64frombits(0x7FF0000000000001 + uint64(rng.Intn(4))) // NaN payloads
			}
			return rng.NormFloat64()
		}, []string{pre, pre, preR, preR, preR, allR}},
		{"subnormals only", func(int) float64 { return math.Float64frombits(uint64(rng.Int63n(1 << 52))) }, []string{pre, pre, pre, pre, pre, all}},
		{"signed zeros", func(i int) float64 {
			if rng.Intn(2) == 0 {
				return math.Copysign(0, float64(i%2*2-1))
			}
			return rng.NormFloat64()
		}, []string{pre, pre, pre, pre, pre, all}},
	} {
		dense := make([]float64, d)
		for i := range dense {
			dense[i] = row.fill(i)
		}
		var scratch TopKScratch
		var dst Vec
		for j, k := range ks {
			label := fmt.Sprintf("%s k=%d", row.name, k)
			if got := topKPath(dense, k); got != row.paths[j] {
				t.Errorf("%s: path %q, want %q", label, got, row.paths[j])
			}
			dst = TopKInto(dst, &scratch, dense, k)
			requireTopKMatchesHeap(t, label, dst, dense, k)
		}
	}
}

// TestTopKIntoSmallModelsMatchHeap runs the differential from the
// prefilter's floor up to the full sample — models like a population
// member's (D = 2 094), where the sample is D/8 keys — at k from 1 to D/3:
// on normals, on a residual's shape (mostly exact zeros under a heavy
// tail), on a vector of 98 % zeros, where the top D/3 cuts inside the
// zero run, and on normals under a run of ±8 at every hundredth element,
// where the insertion sort must keep the tied top in index order. Every
// row pins its path, so the insertion sort of few survivors, the radix
// sort of many and the full path each have rows.
func TestTopKIntoSmallModelsMatchHeap(t *testing.T) {
	pre, preI, none := pathPrefilter, pathPrefilterInsert, pathNoGuess
	fills := map[string]func(rng *rand.Rand, i int) float64{
		"normal": func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() },
		"residual": func(rng *rand.Rand, _ int) float64 {
			if rng.Intn(10) < 7 {
				return 0
			}
			return rng.NormFloat64() * 1e-4 / (rng.Float64() + 1e-3)
		},
		"many zeros": func(rng *rand.Rand, _ int) float64 {
			if rng.Intn(50) > 0 {
				return 0
			}
			return rng.NormFloat64()
		},
		"tied top": func(rng *rand.Rand, i int) float64 {
			if i%100 == 0 {
				return float64(1-i/100%2*2) * 8
			}
			return rng.NormFloat64()
		},
	}
	for _, row := range []struct {
		d     int
		shape string
		paths []string // at k = 1, 20, D/10, D/3
	}{
		{1024, "normal", []string{preI, preI, pre, none}},
		{1024, "residual", []string{preI, preI, pre, none}},
		{1024, "many zeros", []string{none, none, none, none}}, // the sample's cut is 0
		{1024, "tied top", []string{preI, preI, pre, none}},
		{2094, "normal", []string{preI, preI, pre, none}},
		{2094, "residual", []string{preI, preI, pre, none}},
		{2094, "many zeros", []string{none, none, none, none}},
		{2094, "tied top", []string{preI, preI, pre, none}},
		{4096, "normal", []string{preI, preI, pre, none}},
		{4096, "residual", []string{preI, preI, pre, none}},
		{4096, "many zeros", []string{preI, preI, none, none}},
		{4096, "tied top", []string{preI, preI, pre, none}},
		{8191, "normal", []string{preI, preI, pre, pre}},
		{8191, "residual", []string{preI, preI, pre, none}},
		{8191, "many zeros", []string{preI, preI, none, none}},
		{8191, "tied top", []string{preI, preI, pre, pre}},
	} {
		rng := rand.New(rand.NewSource(int64(58 + row.d)))
		dense := make([]float64, row.d)
		for i := range dense {
			dense[i] = fills[row.shape](rng, i)
		}
		var scratch TopKScratch
		var dst Vec
		for j, k := range []int{1, 20, row.d / 10, row.d / 3} {
			label := fmt.Sprintf("d=%d %s k=%d", row.d, row.shape, k)
			if got := topKPath(dense, k); got != row.paths[j] {
				t.Errorf("%s: path %q, want %q", label, got, row.paths[j])
			}
			dst = TopKInto(dst, &scratch, dense, k)
			requireTopKMatchesHeap(t, label, dst, dense, k)
		}
	}
}

// fuzzWords reads data as little-endian float64 bit patterns, zero-padding
// a short tail.
func fuzzWords(data []byte) []uint64 {
	words := make([]uint64, (len(data)+7)/8)
	for i := range words {
		var word [8]byte
		copy(word[:], data[8*i:])
		words[i] = binary.LittleEndian.Uint64(word[:])
	}
	return words
}

// FuzzTopKInto feeds arbitrary bit patterns and cuts to the kernel: the
// first two bytes are k, every following 8 bytes one float64 (a short
// tail is zero-padded). It must never panic, must equal the heap oracle
// bit for bit, and must be strictly rank-ordered — on a scratch another
// shape already used.
func FuzzTopKInto(f *testing.F) {
	seed := func(k uint16, vals ...float64) {
		b := binary.LittleEndian.AppendUint16(nil, k)
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(0)
	seed(1, 0)
	seed(2, 1, -1, 1)
	seed(3, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64)
	seed(40, func() []float64 { // more than repairMax distinct keys in one window, plus an outlier
		vals := []float64{0x1p40}
		for i := 0; i < 48; i++ {
			vals = append(vals, math.Float64frombits(math.Float64bits(1)+uint64(i*7%48)))
		}
		return vals
	}()...)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := int(binary.LittleEndian.Uint16(data))
		dense := make([]float64, 0, len(data)/8)
		for _, w := range fuzzWords(data[2:]) {
			dense = append(dense, math.Float64frombits(w))
		}
		var scratch TopKScratch
		dst := TopKInto(Vec{}, &scratch, []float64{3, -1, 2}, 2)
		dst = TopKInto(dst, &scratch, dense, k)
		requireTopKMatchesHeap(t, "fuzz", dst, dense, k)
	})
}

// FuzzTopKIntoLarge is FuzzTopKInto above prefilterMin, where the
// prefilter runs. The input is a pattern, tiled and perturbed up to the
// length: bytes 0–1 are k as a fraction of D + 1 (65535 is D); byte 2
// picks D = (1 + b&15)·prefilterMin + b>>4, so the sample's stride is 8
// below 8·sampleKeys, where the sample is D/8 keys, and D/sampleKeys from
// there to 16·prefilterMin; byte 3 is a signed step; every following 8
// bytes one float64 bit pattern of the pattern. Element i is the pattern's
// i mod len(pattern), with step·(the tile's number) added to its bit
// pattern: step 0 repeats the pattern exactly (ties, all-equal, two
// values), ±1 makes ramps. The seeds are the engine-sized differential's
// shapes that defeat the sample, each at its D below 8·sampleKeys and at
// 7·prefilterMin more, from 8·sampleKeys up, where the sample is full.
func FuzzTopKIntoLarge(f *testing.F) {
	seed := func(kFrac float64, dsel uint8, step int8, vals ...float64) {
		for _, sel := range []uint8{dsel, dsel + 7} {
			b := binary.LittleEndian.AppendUint16(nil, uint16(kFrac*65535))
			b = append(b, sel, byte(step))
			for _, v := range vals {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
			f.Add(b)
		}
	}
	samples := func(hi, lo, between float64) []float64 { // at stride 8: 2 of 5 sample points at hi, 3 at lo
		vals := make([]float64, 40)
		for i := range vals {
			switch {
			case i%8 != 0:
				vals[i] = between
			case i < 16:
				vals[i] = hi
			default:
				vals[i] = lo
			}
		}
		return vals
	}
	tiny := math.SmallestNonzeroFloat64
	seed(0.01, 0, 1, 1)                                                        // ascending ramp
	seed(0.1, 1, -1, -1e6)                                                     // descending ramp
	seed(0.25, 2, 1, 3, -1, 2)                                                 // interleaved ramps; the sample sees only one
	seed(0.002, 0, 0, 1)                                                       // all equal
	seed(0.01, 4, 0, 1, -2, 1)                                                 // two values, ties at the cut
	seed(0.1, 0, 0, samples(1, 0.125, 0.5)...)                                 // the mass between the samples: too few survive
	seed(0.01, 0, 0, samples(0.25, 1e-9, 1)...)                                // the samples keep everything: too many
	seed(0.1, 3, 1, math.NaN(), 1, math.Inf(1), math.Inf(-1), 2)               // NaN payloads; the Infs perturb into NaNs
	seed(0.1, 0, 1, 3*tiny, 100*tiny, 7*tiny)                                  // subnormals only
	seed(0.25, 1, 0, math.Copysign(0, -1), 0, 1e-3, math.Copysign(0, -1), 0.5) // signed zeros
	seed(1, 0, 3, 1, 2, 3)                                                     // k = D
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		d := (1+int(data[2]&15))*prefilterMin + int(data[2]>>4)
		k := int(binary.LittleEndian.Uint16(data)) * (d + 1) >> 16
		step := uint64(int64(int8(data[3])))
		pattern := fuzzWords(data[4:])
		if len(pattern) == 0 {
			pattern = []uint64{0}
		}
		dense := make([]float64, d)
		for i := range dense {
			dense[i] = math.Float64frombits(pattern[i%len(pattern)] + step*uint64(i/len(pattern)))
		}
		var scratch TopKScratch
		dst := TopKInto(Vec{}, &scratch, dense[:prefilterMin], prefilterMin/3)
		dst = TopKInto(dst, &scratch, dense, k)
		requireTopKMatchesHeap(t, "fuzz", dst, dense, k)
	})
}
