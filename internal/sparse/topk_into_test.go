package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestTopKIntoDifferentialWarmScratch reuses one scratch and one dst Vec
// across many (d, k) shapes — leaving whatever the previous call wrote in
// the slab — and checks every result against the heap reference. This
// pins the scratch-reuse contract: selection output is a function of
// (dense, k) alone, never of scratch state.
func TestTopKIntoDifferentialWarmScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var scratch TopKScratch
	var dst Vec
	for trial := 0; trial < 400; trial++ {
		d := 1 + rng.Intn(400)
		dense := make([]float64, d)
		levels := 1 + rng.Intn(10) // mix tie-heavy and distinct values
		for i := range dense {
			dense[i] = float64(rng.Intn(2*levels+1)-levels) / float64(levels)
		}
		k := rng.Intn(d + 2)
		dst = TopKInto(dst, &scratch, dense, k)
		requireSameVec(t, "warm-scratch", dst, TopKHeap(dense, k))
	}
}

// TestTopKIntoMatchesTopK pins the wrapper contract: TopK and TopKInto
// (fresh or warm scratch) are element-identical.
func TestTopKIntoMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var scratch TopKScratch
	for trial := 0; trial < 100; trial++ {
		d := 1 + rng.Intn(300)
		dense := make([]float64, d)
		for i := range dense {
			dense[i] = rng.NormFloat64()
		}
		k := rng.Intn(d + 2)
		requireSameVec(t, "fresh", TopKInto(Vec{}, nil, dense, k), TopK(dense, k))
		requireSameVec(t, "warm", TopKInto(Vec{}, &scratch, dense, k), TopK(dense, k))
	}
}

// TestTopKIntoReusesBuffers asserts dst's backing arrays are reused when
// capacity suffices and grown when it does not.
func TestTopKIntoReusesBuffers(t *testing.T) {
	dense := []float64{5, -4, 3, -2, 1}
	dst := Vec{Idx: make([]int, 0, 8), Val: make([]float64, 0, 8)}
	idxCap, valCap := &dst.Idx[:1][0], &dst.Val[:1][0]
	dst = TopKInto(dst, nil, dense, 3)
	if &dst.Idx[0] != idxCap || &dst.Val[0] != valCap {
		t.Fatal("TopKInto reallocated despite sufficient capacity")
	}
	if dst.Len() != 3 || dst.Idx[0] != 0 || dst.Val[0] != 5 {
		t.Fatalf("unexpected selection %+v", dst)
	}
	// Insufficient capacity grows.
	small := Vec{Idx: make([]int, 1), Val: make([]float64, 1)}
	small = TopKInto(small, nil, dense, 5)
	if small.Len() != 5 {
		t.Fatalf("grown selection has %d elements, want 5", small.Len())
	}
}

// TestTopKIntoRejectsLongVectors pins the 32-bit index contract: the sort
// packs each index into 32 bits, so a vector of 2^32 elements must panic
// by name before anything reads it or sizes a slab for it, rather than
// select wrong coordinates. The vector is a slice header over one float64,
// built field by field: unsafe.Slice would build the same header, but
// checkptr, which the race detector turns on, refuses one that reaches
// past its allocation.
func TestTopKIntoRejectsLongVectors(t *testing.T) {
	if math.MaxInt < 1<<32 {
		t.Skip("no slice of 2^32 elements on a 32-bit platform")
	}
	var x float64
	shift := 32 // a variable: the constant 1<<32 does not compile where int is 32 bits
	n := 1 << shift
	header := struct {
		data     unsafe.Pointer
		len, cap int
	}{unsafe.Pointer(&x), n, n}
	dense := *(*[]float64)(unsafe.Pointer(&header))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "2^32 or more elements") {
			t.Fatalf("TopKInto of 2^32 elements: recovered %v, want its length panic", r)
		}
	}()
	TopKInto(Vec{}, nil, dense, 1)
}

// TestTopKIntoAllocsSteadyState is the allocation-regression gate, on the
// adaptive controller's shape: one call at k = D warms the slab and dst,
// and from then on no k below it and no dimension below it (shrinking and
// growing back) allocates — on the full path below prefilterMin and on the
// prefilter's, whose survivors live in the same slab, above it, with a
// sample of D/8 keys and of sampleKeys — and a scratch that Reserve(d, k)
// sized is never regrown by that k. The allocating wrapper stays within
// five: BENCH_fl.json's three (the slab, dst.Idx and dst.Val) plus
// scripts/benchcheck's slack of two, which the race detector's
// instrumentation takes up.
func TestTopKIntoAllocsSteadyState(t *testing.T) {
	for _, d := range []int{prefilterMin / 2, 4096, 20 * prefilterMin} {
		dense := benchDist("normal", d)
		var scratch TopKScratch
		var dst Vec
		dst = TopKInto(dst, &scratch, dense, d) // warm the buffers
		shapes := [][2]int{{d, d}, {d, d - 1}, {d, 128}, {d, 8}, {d / 2, d / 2}, {d / 2, 1}, {17, 5}, {d, d / 10}, {d, d}}
		if d > prefilterMin {
			shapes = [][2]int{{d, d / 500}, {d, d / 100}, {d, d / 10}, {d, d / 4}, {d, d / 2}, {d, d}}
		}
		for _, shape := range shapes {
			n, k := shape[0], shape[1]
			if allocs := testing.AllocsPerRun(10, func() { dst = TopKInto(dst, &scratch, dense[:n], k) }); allocs != 0 {
				t.Fatalf("d=%d k=%d: TopKInto allocated %v/op on a scratch warmed at k=D=%d, want 0", n, k, allocs, d)
			}
			var reserved TopKScratch // Reserve(d, k) alone covers either path
			reserved.Reserve(n, k)
			slab := &reserved.slab[0]
			if TopKInto(Vec{}, &reserved, dense[:n], k); &reserved.slab[0] != slab {
				t.Fatalf("d=%d k=%d: TopKInto regrew a slab Reserve(d, k) sized", n, k)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { TopK(dense, d/100) }); allocs > 5 {
			t.Fatalf("d=%d: TopK allocated %v/op, want at most 5", d, allocs)
		}
	}
}

// benchDist fills a benchmark input: "normal" is i.i.d. Gaussian,
// "residual" the shape of an error-feedback accumulator — mostly exact
// zeros under a heavy tail.
func benchDist(dist string, d int) []float64 {
	rng := rand.New(rand.NewSource(54))
	dense := make([]float64, d)
	for i := range dense {
		dense[i] = rng.NormFloat64()
		if dist == "residual" {
			dense[i] *= 1e-4 / (rng.Float64() + 1e-3)
			if rng.Intn(10) < 7 {
				dense[i] = 0
			}
		}
	}
	return dense
}

// BenchmarkTopKInto measures the warm-scratch kernel over the cuts the
// adaptive controller visits — k from D/1000 up to D, where sorting the
// survivors dominates — on both input shapes, and the allocating TopK
// wrapper at the engine's typical k = D/100. The d=2094 rows are a
// population member's step: pop_routed_100k's model at its k = 20.
func BenchmarkTopKInto(b *testing.B) {
	for _, d := range []int{10_000, 100_000} {
		for _, dist := range []string{"normal", "residual"} {
			dense := benchDist(dist, d)
			shape := "/d=" + strconv.Itoa(d) + "/" + dist + "/k="
			b.Run("alloc"+shape+strconv.Itoa(d/100), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					TopK(dense, d/100)
				}
			})
			for _, k := range []int{d / 1000, d / 100, d / 10, d} {
				benchTopKScratch(b, dense, dist, k)
			}
		}
	}
	for _, dist := range []string{"normal", "residual"} {
		benchTopKScratch(b, benchDist(dist, 2094), dist, 20)
	}
}

// benchTopKScratch runs TopKInto's scratch/d=D/dist/k=K row.
func benchTopKScratch(b *testing.B, dense []float64, dist string, k int) {
	b.Run("scratch/d="+strconv.Itoa(len(dense))+"/"+dist+"/k="+strconv.Itoa(k), func(b *testing.B) {
		var scratch TopKScratch
		var dst Vec
		dst = TopKInto(dst, &scratch, dense, k)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = TopKInto(dst, &scratch, dense, k)
		}
	})
}
