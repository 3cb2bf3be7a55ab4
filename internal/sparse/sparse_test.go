package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// sortTopK is the brute-force oracle: full sort by rank, take k.
func sortTopK(dense []float64, k int) []int {
	idx := make([]int, len(dense))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return rankLess(dense, idx[a], idx[b]) })
	if k > len(idx) {
		k = len(idx)
	}
	if k < 0 {
		k = 0
	}
	return idx[:k]
}

func vecEqualsOracle(v Vec, dense []float64, oracle []int) bool {
	if v.Len() != len(oracle) {
		return false
	}
	for i := range oracle {
		if v.Idx[i] != oracle[i] || v.Val[i] != dense[oracle[i]] {
			return false
		}
	}
	return true
}

func TestTopKMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(60)
		dense := make([]float64, d)
		for i := range dense {
			// Coarse quantization to force plenty of |value| ties.
			dense[i] = float64(rng.Intn(7)-3) * 0.5
		}
		k := rng.Intn(d + 3)
		oracle := sortTopK(dense, k)
		if got := TopK(dense, k); !vecEqualsOracle(got, dense, oracle) {
			t.Fatalf("trial %d: TopK(d=%d,k=%d) = %v, oracle %v (dense %v)", trial, d, k, got.Idx, oracle, dense)
		}
		if got := TopKHeap(dense, k); !vecEqualsOracle(got, dense, oracle) {
			t.Fatalf("trial %d: TopKHeap(d=%d,k=%d) = %v, oracle %v", trial, d, k, got.Idx, oracle)
		}
	}
}

func TestTopKQuickselectEqualsHeapProperty(t *testing.T) {
	f := func(vals []float64, kRaw uint8) bool {
		dense := make([]float64, len(vals))
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			dense[i] = v
		}
		k := int(kRaw) % (len(dense) + 2)
		a, b := TopK(dense, k), TopKHeap(dense, k)
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Idx {
			if a.Idx[i] != b.Idx[i] || a.Val[i] != b.Val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if v := TopK(nil, 5); v.Len() != 0 {
		t.Fatal("TopK(nil) not empty")
	}
	if v := TopK([]float64{1, 2}, 0); v.Len() != 0 {
		t.Fatal("TopK(k=0) not empty")
	}
	if v := TopK([]float64{1, 2}, -3); v.Len() != 0 {
		t.Fatal("TopK(k<0) not empty")
	}
	v := TopK([]float64{3, -5, 1}, 10)
	if v.Len() != 3 || v.Idx[0] != 1 || v.Idx[1] != 0 || v.Idx[2] != 2 {
		t.Fatalf("TopK(k>d) = %v", v.Idx)
	}
}

func TestTopKRankOrdering(t *testing.T) {
	dense := []float64{0.5, -0.5, 2, -2, 0}
	v := TopK(dense, 4)
	// |2| ties |-2| → smaller index first; |0.5| ties |-0.5| likewise.
	want := []int{2, 3, 0, 1}
	for i := range want {
		if v.Idx[i] != want[i] {
			t.Fatalf("rank order %v, want %v", v.Idx, want)
		}
	}
}

func TestTopKAllZeros(t *testing.T) {
	dense := make([]float64, 10)
	v := TopK(dense, 3)
	if v.Len() != 3 {
		t.Fatalf("TopK over zeros returned %d elements, want 3", v.Len())
	}
	// Deterministic: ties broken by index.
	for i := 0; i < 3; i++ {
		if v.Idx[i] != i {
			t.Fatalf("zero-vector top-k = %v, want [0 1 2]", v.Idx)
		}
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	dense := []float64{0, 1.5, 0, -2, 0, 3}
	v := FromDense(dense)
	if v.Len() != 3 {
		t.Fatalf("FromDense found %d nonzeros, want 3", v.Len())
	}
	back := make([]float64, len(dense))
	v.AddTo(back, 1)
	for i := range dense {
		if back[i] != dense[i] {
			t.Fatalf("round trip mismatch at %d: %v != %v", i, back[i], dense[i])
		}
	}
}

func TestAddToScales(t *testing.T) {
	v := Vec{Idx: []int{0, 2}, Val: []float64{1, -4}}
	dense := []float64{10, 10, 10}
	v.AddTo(dense, -0.5)
	want := []float64{9.5, 10, 12}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("AddTo[%d] = %v, want %v", i, dense[i], want[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vec{Idx: []int{1}, Val: []float64{2}}
	c := v.Clone()
	c.Idx[0], c.Val[0] = 9, 9
	if v.Idx[0] != 1 || v.Val[0] != 2 {
		t.Fatal("Clone shares storage")
	}
}

func TestStochasticRoundExactIntegers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []float64{0, 1, 7, 1000} {
		for i := 0; i < 20; i++ {
			if got := StochasticRound(k, rng); got != int(k) {
				t.Fatalf("StochasticRound(%v) = %d", k, got)
			}
		}
	}
}

func TestStochasticRoundUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []float64{2.25, 5.5, 9.9} {
		const n = 40000
		var sum float64
		for i := 0; i < n; i++ {
			r := StochasticRound(k, rng)
			if r != int(math.Floor(k)) && r != int(math.Ceil(k)) {
				t.Fatalf("StochasticRound(%v) = %d outside {floor,ceil}", k, r)
			}
			sum += float64(r)
		}
		mean := sum / n
		if math.Abs(mean-k) > 0.02 {
			t.Fatalf("E[StochasticRound(%v)] ≈ %v, want %v", k, mean, k)
		}
	}
}

// Property: top-k really contains the k largest |values| — every excluded
// element ranks no higher than every included one.
func TestTopKDominanceProperty(t *testing.T) {
	f := func(vals []float64, kRaw uint8) bool {
		dense := make([]float64, len(vals))
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			dense[i] = v
		}
		if len(dense) == 0 {
			return true
		}
		k := 1 + int(kRaw)%len(dense)
		v := TopK(dense, k)
		in := make(map[int]bool, v.Len())
		for _, ix := range v.Idx {
			in[ix] = true
		}
		worst := v.Idx[v.Len()-1]
		for i := range dense {
			if !in[i] && rankLess(dense, i, worst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func benchDense(n int) []float64 {
	rng := rand.New(rand.NewSource(4))
	dense := make([]float64, n)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	return dense
}

// Ablation bench pair: the radix kernel vs heap top-k.
func BenchmarkTopKRadix(b *testing.B) {
	dense := benchDense(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopK(dense, 1000)
	}
}

func BenchmarkTopKHeap(b *testing.B) {
	dense := benchDense(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopKHeap(dense, 1000)
	}
}

// Quantize returns a copy of v with values uniformly quantized to the
// given bit width (symmetric, scale = max |value|): the quantization the
// paper cites as orthogonal to GS and combinable with it ([30], [31]).
// bits must be in [2, 64]; 64 returns an unmodified copy. Indices are
// untouched. The worst-case per-element error is scale/(2^(bits−1)−1)/2.
func Quantize(v Vec, bits int) Vec {
	out := v.Clone()
	QuantizeInPlace(out.Val, bits)
	return out
}

func TestQuantizeRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bits := range []int{2, 4, 8, 16} {
		v := Vec{Idx: make([]int, 50), Val: make([]float64, 50)}
		for i := range v.Val {
			v.Idx[i] = i
			v.Val[i] = rng.NormFloat64() * 3
		}
		q := Quantize(v, bits)
		scale := 0.0
		for _, x := range v.Val {
			if a := math.Abs(x); a > scale {
				scale = a
			}
		}
		levels := float64(int64(1)<<(bits-1)) - 1
		maxErr := scale / levels / 2 * (1 + 1e-12)
		for i := range v.Val {
			if err := math.Abs(q.Val[i] - v.Val[i]); err > maxErr {
				t.Fatalf("bits=%d: quantization error %v exceeds bound %v", bits, err, maxErr)
			}
		}
	}
}

func TestQuantizeDoesNotMutateInput(t *testing.T) {
	v := Vec{Idx: []int{0, 1}, Val: []float64{0.333333, -1.7}}
	orig := v.Clone()
	Quantize(v, 4)
	for i := range v.Val {
		if v.Val[i] != orig.Val[i] {
			t.Fatal("Quantize mutated its input")
		}
	}
}

func TestQuantizeEdgeCases(t *testing.T) {
	// 64 bits: unchanged copy.
	v := Vec{Idx: []int{0}, Val: []float64{0.123456789}}
	if q := Quantize(v, 64); q.Val[0] != v.Val[0] {
		t.Fatal("64-bit quantization should be lossless")
	}
	// All-zero vector: unchanged.
	z := Vec{Idx: []int{0, 1}, Val: []float64{0, 0}}
	q := Quantize(z, 4)
	if q.Val[0] != 0 || q.Val[1] != 0 {
		t.Fatal("zero vector should quantize to itself")
	}
	// Empty vector.
	if q := Quantize(Vec{}, 4); q.Len() != 0 {
		t.Fatal("empty vector")
	}
	// The max-|value| element is always representable exactly.
	m := Vec{Idx: []int{0, 1}, Val: []float64{-2.5, 1.0}}
	if q := Quantize(m, 3); q.Val[0] != -2.5 {
		t.Fatalf("max element distorted: %v", q.Val[0])
	}
	// A non-finite scale has no grid: the values come back unchanged and
	// none turns into 0·Inf = NaN. An infinite value gives QuantizeInPlace
	// an infinite scale, which it reports.
	for _, tc := range []struct {
		give  []float64
		scale float64 // 0: QuantizeInPlace picks max |v|
	}{
		{[]float64{math.Inf(1), 1, -2}, 0},
		{[]float64{math.Inf(-1), 0.5}, 0},
		{[]float64{0.25, -3}, math.Inf(1)},
		{[]float64{0.25, -3}, math.NaN()},
	} {
		for _, bits := range []int{2, 8, 32} {
			got := slices.Clone(tc.give)
			if tc.scale != 0 {
				QuantizeToScale(got, bits, tc.scale)
			} else if scale := QuantizeInPlace(got, bits); !math.IsInf(scale, 1) {
				t.Fatalf("%v at %d bits: scale %v, want +Inf", tc.give, bits, scale)
			}
			if !slices.Equal(got, tc.give) {
				t.Fatalf("%v at %d bits, scale %v: got %v, want it unchanged", tc.give, bits, tc.scale, got)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantize accepted 1 bit")
		}
	}()
	Quantize(m, 1)
}

// TestQuantizeFiniteOnGrid: finite input quantizes to finite grid values
// that a second pass leaves alone, at every scale — including scales whose
// step is subnormal or zero, and scales whose top grid point would round
// past MaxFloat64 — while normal scales keep round(v/step)·step's bits.
func TestQuantizeFiniteOnGrid(t *testing.T) {
	const tiny = math.SmallestNonzeroFloat64
	tests := []struct {
		name  string
		bits  int
		scale float64 // 0: QuantizeInPlace picks max |v|
		give  []float64
		want  []float64 // nil: only the properties are checked
	}{
		{"subnormal scale, grid finer than the floats", 8, 0, []float64{tiny, 0, -tiny}, []float64{tiny, 0, -tiny}},
		{"subnormal scale, wider", 8, 0, []float64{1e-310, -3e-311, 2e-320, math.Copysign(0, -1)}, nil},
		{"subnormal scale, 16 bits", 16, 0, []float64{-7e-309, 1e-309, 4e-320}, nil},
		{"normal scale, subnormal step", 8, 0, []float64{1e-306, 5e-307, -1e-307, 3e-309}, nil},
		{"MaxFloat64 scale", 8, 0, []float64{math.MaxFloat64, 1}, []float64{math.MaxFloat64, 0}},
		{"MaxFloat64 scale, both signs", 4, 0, []float64{-math.MaxFloat64, math.MaxFloat64 / 3, 1e300}, nil},
		{"large scale, 32 bits", 32, 0, []float64{1.5e308, -1e308, 7e307}, nil},
		{"beyond the scale saturates", 8, 1, []float64{10, -10, 0.5, math.MaxFloat64}, []float64{1, -1, 64.0 / 127, 1}},
		{"beyond a subnormal scale", 8, tiny, []float64{1, -1e-310}, []float64{tiny, -tiny}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := slices.Clone(tt.give)
			scale := tt.scale
			if scale == 0 {
				scale = QuantizeInPlace(got, tt.bits)
			} else {
				QuantizeToScale(got, tt.bits, scale)
			}
			for i, v := range got {
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > scale {
					t.Fatalf("%v → %v: element %d off the ±%v grid", tt.give, got, i, scale)
				}
				if tt.want != nil && math.Float64bits(v) != math.Float64bits(tt.want[i]) {
					t.Fatalf("%v → %v, want %v", tt.give, got, tt.want)
				}
			}
			again := slices.Clone(got)
			QuantizeToScale(again, tt.bits, scale)
			for i := range got {
				if math.Float64bits(again[i]) != math.Float64bits(got[i]) {
					t.Fatalf("second pass moved %v to %v", got, again)
				}
			}
		})
	}

	// Normal scales keep the plain formula's bits.
	rng := rand.New(rand.NewSource(12))
	for _, bits := range []int{2, 8, 16, 32} {
		val := make([]float64, 200)
		for i := range val {
			val[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		want := slices.Clone(val)
		got := slices.Clone(val)
		scale := QuantizeInPlace(got, bits)
		step := scale / (float64(int64(1)<<(bits-1)) - 1)
		for i, x := range want {
			if w := math.Round(x/step) * step; math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("bits=%d: %v → %v, want %v", bits, x, got[i], w)
			}
		}
	}
}
