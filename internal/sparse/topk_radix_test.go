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

// TestTopKIntoEngineSizedMatchesHeap runs the differential at the
// dimension the engine works at, where the sort's windows hold several
// keys each and the repair pass has real work, on both benchmark shapes.
func TestTopKIntoEngineSizedMatchesHeap(t *testing.T) {
	const d = 60_000
	var scratch TopKScratch
	var dst Vec
	for _, dist := range []string{"normal", "residual"} {
		dense := benchDist(dist, d)
		for _, k := range []int{d / 100, d / 3, d} {
			dst = TopKInto(dst, &scratch, dense, k)
			requireTopKMatchesHeap(t, fmt.Sprintf("%s k=%d", dist, k), dst, dense, k)
		}
	}
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
		data = data[2:]
		dense := make([]float64, (len(data)+7)/8)
		for i := range dense {
			var word [8]byte
			copy(word[:], data[8*i:])
			dense[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		}
		var scratch TopKScratch
		dst := TopKInto(Vec{}, &scratch, []float64{3, -1, 2}, 2)
		dst = TopKInto(dst, &scratch, dense, k)
		requireTopKMatchesHeap(t, "fuzz", dst, dense, k)
	})
}
