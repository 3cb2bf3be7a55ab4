package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	m.MatVec(dst, x)
	want := []float64{-2, -2}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MatVec[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestMatTVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, -1}
	dst := make([]float64, 3)
	m.MatTVec(dst, x)
	want := []float64{-3, -3, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MatTVec[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

// MatTVec must agree with an explicit transpose followed by MatVec.
func TestMatTVecAgainstExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		mt := NewMatrix(cols, rows)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				mt.Set(c, r, m.At(r, c))
			}
		}
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, cols)
		want := make([]float64, cols)
		m.MatTVec(got, x)
		mt.MatVec(want, x)
		for i := range got {
			if !almostEqual(got[i], want[i], 1e-12) {
				t.Fatalf("trial %d: MatTVec[%d] = %v, explicit transpose = %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestAddOuterBatch(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 1, 1, 1})
	// Two staged updates onto the existing contents, then halved.
	m.AddOuterBatch([]float64{1, 3, 2, 0}, []float64{5, 7, 1, 1}, 2, false, 0.5)
	want := []float64{4, 5, 8, 11}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddOuterBatch Data[%d] = %v, want %v", i, m.Data[i], want[i])
		}
	}
	// fresh discards them.
	m.AddOuterBatch([]float64{1, 3}, []float64{5, 7}, 1, true, 2)
	want = []float64{10, 14, 30, 42}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("fresh AddOuterBatch Data[%d] = %v, want %v", i, m.Data[i], want[i])
		}
	}
}

// The reference kernels are the loops the blocked ones replaced: one
// serial chain per row, one zero-skipping read-modify-write pass per row
// or per sample. The blocked kernels must reproduce them bit for bit.

func refMatVec(m *Matrix, dst, x []float64) {
	for r := 0; r < m.Rows; r++ {
		var s float64
		for c, w := range m.Data[r*m.Cols : (r+1)*m.Cols] {
			s += w * x[c]
		}
		dst[r] = s
	}
}

func refMatTVec(m *Matrix, dst, x []float64) {
	Zero(dst)
	for r := 0; r < m.Rows; r++ {
		if x[r] == 0 {
			continue
		}
		for c, w := range m.Data[r*m.Cols : (r+1)*m.Cols] {
			dst[c] += w * x[r]
		}
	}
}

func refAddOuter(m *Matrix, u, v []float64) {
	for r, ur := range u {
		if ur == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, vc := range v {
			row[c] += ur * vc
		}
	}
}

// sameFloat is bit equality, any NaN matching any NaN (payloads follow
// operand load order, which is the compiler's business).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// edgeFloats are the operands that tell an addition chain from a
// reordered or zero-padded one: signed zeros, a denormal, non-finites.
var edgeFloats = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1), math.NaN()}

// edgyVector draws normals with roughly a quarter of the entries replaced
// by edge values (finiteOnly keeps to the zeros and denormals).
func edgyVector(rng *rand.Rand, n int, finiteOnly bool) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		if rng.Intn(4) == 0 {
			pick := len(edgeFloats)
			if finiteOnly {
				pick = 4
			}
			x[i] = edgeFloats[rng.Intn(pick)]
		}
	}
	return x
}

// kernelShapes are the rows × cols the kernel differentials run: every
// shape up to 19 × 19, which reaches each vector body with and without
// each of its tails (MatVec: rows below 4, the 4-row pass, 8-row passes
// with and without an overlapping last pass; 0–4 column tiles, each with
// 0–3 leftover columns; AXPY, Scale and axpy4 over rows of every length
// mod 16), and the dense layers of the three benchmark models.
func kernelShapes() [][2]int {
	shapes := [][2]int{{786, 64}, {62, 786}, {156, 64}, {62, 156}, {16, 64}, {62, 16}}
	for rows := 1; rows <= 19; rows++ {
		for cols := 0; cols <= 19; cols++ {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	return shapes
}

func TestBlockedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range kernelShapes() {
		for _, finiteOnly := range []bool{true, false} {
			checkBlockedKernels(t, rng, shape[0], shape[1], finiteOnly)
		}
	}
}

// checkBlockedKernels compares MatVec, MatTVec and AddOuterBatch on one
// random rows × cols matrix with their one-chain-per-element references.
func checkBlockedKernels(t *testing.T, rng *rand.Rand, rows, cols int, finiteOnly bool) {
	t.Helper()
	m := &Matrix{Rows: rows, Cols: cols, Data: edgyVector(rng, rows*cols, finiteOnly)}

	x := edgyVector(rng, cols, finiteOnly)
	got, want := guarded(rows), make([]float64, rows)
	m.MatVec(got, x)
	refMatVec(m, want, x)
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%d×%d finiteOnly=%v: MatVec[%d] = %v, reference %v", rows, cols, finiteOnly, i, got[i], want[i])
		}
	}
	requireGuard(t, "MatVec", got)

	// The zero rows of xt meet non-finite weights: skipped, not 0·Inf.
	xt := edgyVector(rng, rows, finiteOnly)
	got, want = make([]float64, cols), make([]float64, cols)
	m.MatTVec(got, xt)
	refMatTVec(m, want, xt)
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%d×%d finiteOnly=%v: MatTVec[%d] = %v, reference %v", rows, cols, finiteOnly, i, got[i], want[i])
		}
	}

	n := rng.Intn(12)
	us, vs := edgyVector(rng, n*rows, finiteOnly), edgyVector(rng, n*cols, finiteOnly)
	fresh := rng.Intn(2) == 0
	scale := []float64{1, 0.125, 1 / 3.0}[rng.Intn(3)]
	batched := &Matrix{Rows: rows, Cols: cols, Data: Clone(m.Data)}
	ref := &Matrix{Rows: rows, Cols: cols, Data: Clone(m.Data)}
	batched.AddOuterBatch(us, vs, n, fresh, scale)
	if fresh {
		Zero(ref.Data)
	}
	for s := 0; s < n; s++ {
		refAddOuter(ref, us[s*rows:(s+1)*rows], vs[s*cols:(s+1)*cols])
	}
	if scale != 1 {
		for i := range ref.Data {
			ref.Data[i] *= scale
		}
	}
	for i := range ref.Data {
		if !sameFloat(batched.Data[i], ref.Data[i]) {
			t.Fatalf("%d×%d finiteOnly=%v (n=%d fresh=%v scale=%v): AddOuterBatch[%d] = %v, reference %v",
				rows, cols, finiteOnly, n, fresh, scale, i, batched.Data[i], ref.Data[i])
		}
	}

	// A chunk of 1–8 inputs through one pass, over scratch that starts
	// out holding non-finite junk.
	n = 1 + rng.Intn(Lanes)
	xs := make([][]float64, n)
	for s := range xs {
		xs[s] = edgyVector(rng, cols, finiteOnly)
	}
	lanes := guarded(cols * Lanes)
	for i := range lanes {
		lanes[i] = edgeFloats[4+i%3]
	}
	got, want = guarded(n*rows), make([]float64, rows)
	m.MatVecLanes(got, xs, lanes)
	for s, x := range xs {
		refMatVec(m, want, x)
		for r := range want {
			if g := got[s*rows+r]; !sameFloat(g, want[r]) {
				t.Fatalf("%d×%d finiteOnly=%v n=%d: MatVecLanes input %d row %d = %v, reference %v",
					rows, cols, finiteOnly, n, s, r, g, want[r])
			}
		}
	}
	requireGuard(t, "MatVecLanes' scratch", lanes)
	requireGuard(t, "MatVecLanes", got)
}

// guarded returns a zero slice of length n whose backing array continues
// with a few sentinels, which requireGuard checks: a kernel writing past
// its slice's end trips it.
func guarded(n int) []float64 {
	buf := make([]float64, n+4)
	for i := n; i < len(buf); i++ {
		buf[i] = -7
	}
	return buf[:n]
}

func requireGuard(t *testing.T, name string, s []float64) {
	t.Helper()
	for i, v := range s[len(s):cap(s)] {
		if v != -7 {
			t.Fatalf("%s wrote %v past the end of its length-%d slice (+%d)", name, v, len(s), i)
		}
	}
}

// FuzzDenseKernels runs the dispatched kernels — the vector ones wherever
// the processor has them — against the Go loops on arbitrary shapes and
// bit patterns: the first two bytes are rows and cols, every following 8
// bytes one float64, reused cyclically (no data means zeros). Results
// must match bit for bit, any NaN matching any NaN. MatVecLanes reads its
// shape from the same two bytes (see its block).
func FuzzDenseKernels(f *testing.F) {
	seed := func(rows, cols uint8, vals ...float64) {
		b := []byte{rows, cols}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(0, 0)
	seed(4, 1, 1, -2)
	seed(9, 7, 1, math.Copysign(0, -1), 0, 3.5)
	seed(13, 18, append(edgeFloats, 1e300, -1e-300, 0.1)...)
	seed(62, 16, math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64, 2)
	seed(7*20+13, 13, append(edgeFloats, 0.75, -3)...) // a full chunk of 8, 13 × 13
	seed(6*20+18, 19, 1.5, -0.25, math.Copysign(0, -1), 1e-300, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := int(data[0]), int(data[1])
		words := data[2:]
		next := 0
		draw := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				if len(words) >= 8 {
					off := 8 * (next % (len(words) / 8))
					v[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[off:]))
				}
				next++
			}
			return v
		}
		requireSame := func(name string, got, want []float64) {
			t.Helper()
			for i := range want {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("%s (%d×%d)[%d] = %v, Go loop %v", name, rows, cols, i, got[i], want[i])
				}
			}
		}

		w, x := draw(rows*cols), draw(cols)
		got, want := guarded(rows), make([]float64, rows)
		(&Matrix{Rows: rows, Cols: cols, Data: w}).MatVec(got, x)
		matVecGo(want, w, x)
		requireSame("MatVec", got, want)
		requireGuard(t, "MatVec", got)

		a := draw(4)
		y := guarded(cols)
		copy(y, draw(cols))
		want = Clone(y)
		AXPY(a[0], x, y)
		axpyGo(a[0], x, want)
		requireSame("AXPY", y, want)

		Scale(a[1], y)
		scaleGo(a[1], want)
		requireSame("Scale", y, want)

		coef := [4]float64{a[0], a[1], a[2], a[3]}
		xs := [4][]float64{draw(cols), draw(cols), draw(cols), draw(cols)}
		axpy4(y, &coef, &xs)
		axpy4Go(want, &coef, &xs)
		requireSame("axpy4", y, want)
		requireGuard(t, "AXPY, Scale and axpy4", y)

		// MatVecLanes on rows mod 20 × cols mod 20 with a chunk of
		// 1 + (rows/20) mod 8 inputs, against one matVecGo per input,
		// over scratch that starts out holding arbitrary bits too.
		rows, cols = rows%20, cols%20
		n := 1 + int(data[0])/20%Lanes
		w = draw(rows * cols)
		xs4 := make([][]float64, n)
		for s := range xs4 {
			xs4[s] = draw(cols)
		}
		lanes := guarded(cols * Lanes)
		copy(lanes, draw(len(lanes)))
		got, want = guarded(n*rows), make([]float64, n*rows)
		(&Matrix{Rows: rows, Cols: cols, Data: w}).MatVecLanes(got, xs4, lanes)
		for s, x := range xs4 {
			matVecGo(want[s*rows:(s+1)*rows], w, x)
		}
		requireSame("MatVecLanes", got, want)
		requireGuard(t, "MatVecLanes", got)
		requireGuard(t, "MatVecLanes' scratch", lanes)
	})
}

func TestDotAXPYScale(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	AXPY(2, x, y)
	want := []float64{6, 9, 12}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("AXPY y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	Scale(0.5, y)
	want = []float64{3, 4.5, 6}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Scale y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestZeroClone(t *testing.T) {
	x := []float64{1, 2, 3}
	c := Clone(x)
	Zero(x)
	for _, v := range x {
		if v != 0 {
			t.Fatal("Zero did not clear all elements")
		}
	}
	if c[0] != 1 || c[1] != 2 || c[2] != 3 {
		t.Fatal("Clone shares storage with source")
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		give []float64
		want int
	}{
		{nil, -1},
		{[]float64{3}, 0},
		{[]float64{1, 5, 2}, 1},
		{[]float64{5, 5, 2}, 0}, // first on ties
		{[]float64{-4, -1, -9}, 1},
	}
	for _, tt := range tests {
		if got := ArgMax(tt.give); got != tt.want {
			t.Errorf("ArgMax(%v) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestMaxAbs(t *testing.T) {
	if got := MaxAbs([]float64{-3, 2, 1}); got != 3 {
		t.Fatalf("MaxAbs = %v, want 3", got)
	}
	if got := MaxAbs(nil); got != 0 {
		t.Fatalf("MaxAbs(nil) = %v, want 0", got)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	Softmax(dst, x)
	var s float64
	for _, v := range dst {
		if v <= 0 {
			t.Fatal("softmax produced non-positive probability")
		}
		s += v
	}
	if !almostEqual(s, 1, 1e-12) {
		t.Fatalf("softmax sums to %v, want 1", s)
	}
}

func TestSoftmaxStableAgainstHugeLogits(t *testing.T) {
	x := []float64{1000, 1001, 999}
	dst := make([]float64, 3)
	Softmax(dst, x)
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", dst)
		}
	}
	if dst[1] < dst[0] || dst[0] < dst[2] {
		t.Fatalf("softmax ordering broken: %v", dst)
	}
}

func TestLogSumExpMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 3
		}
		var naive float64
		for _, v := range x {
			naive += math.Exp(v)
		}
		if got := LogSumExp(x); !almostEqual(got, math.Log(naive), 1e-10) {
			t.Fatalf("LogSumExp = %v, naive = %v", got, math.Log(naive))
		}
	}
}

// TestLogSumExpSoftmaxEdges pins the infinite and NaN logits, one case a
// line: LogSumExp returns an infinite max itself, Softmax keeps the
// limit (the +Inf entries share the mass, all −Inf is uniform), and a
// NaN anywhere stays NaN.
func TestLogSumExpSoftmaxEdges(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		x       []float64
		lse     float64
		softmax []float64
	}{
		{[]float64{inf, 1}, inf, []float64{1, 0}},
		{[]float64{1, inf}, inf, []float64{0, 1}},
		{[]float64{inf, inf}, inf, []float64{0.5, 0.5}},
		{[]float64{inf, -inf, inf, 3}, inf, []float64{0.5, 0, 0.5, 0}},
		{[]float64{-inf, -inf}, -inf, []float64{0.5, 0.5}},
		{[]float64{-inf, -inf, -inf, -inf}, -inf, []float64{0.25, 0.25, 0.25, 0.25}},
		{[]float64{-inf, 0}, 0, []float64{0, 1}},
		{[]float64{-inf}, -inf, []float64{1}},
		{[]float64{inf}, inf, []float64{1}},
		{[]float64{inf, nan}, nan, []float64{nan, nan}},
		{[]float64{nan, inf}, nan, []float64{nan, nan}},
		{[]float64{-inf, nan}, nan, []float64{nan, nan}},
		{[]float64{1, nan}, nan, []float64{nan, nan}},
		{[]float64{}, -inf, []float64{}},
	} {
		if got := LogSumExp(tc.x); !sameFloat(got, tc.lse) {
			t.Errorf("LogSumExp(%v) = %v, want %v", tc.x, got, tc.lse)
		}
		got := make([]float64, len(tc.x))
		Softmax(got, tc.x)
		for i := range got {
			if !sameFloat(got[i], tc.softmax[i]) {
				t.Errorf("Softmax(%v) = %v, want %v", tc.x, got, tc.softmax)
				break
			}
		}
		inPlace := Clone(tc.x)
		Softmax(inPlace, inPlace)
		for i := range inPlace {
			if !sameFloat(inPlace[i], got[i]) {
				t.Errorf("Softmax(%v) in place = %v, want %v", tc.x, inPlace, got)
				break
			}
		}
	}
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotProperties(t *testing.T) {
	f := func(a []float64) bool {
		if len(a) < 2 {
			return true
		}
		mid := len(a) / 2
		x, y := a[:mid], a[mid:2*mid]
		for _, v := range a {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // stay in a numerically meaningful regime
			}
		}
		if Dot(x, y) != Dot(y, x) {
			return false
		}
		x2 := Clone(x)
		Scale(2, x2)
		return almostEqual(Dot(x2, y), 2*Dot(x, y), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any vector, Softmax output is a probability distribution.
func TestSoftmaxDistributionProperty(t *testing.T) {
	f := func(x []float64) bool {
		if len(x) == 0 {
			return true
		}
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		dst := make([]float64, len(x))
		Softmax(dst, x)
		var s float64
		for _, v := range dst {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			s += v
		}
		return almostEqual(s, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic on shape mismatch", name)
			}
		}()
		fn()
	}
	assertPanics("MatVec", func() { m.MatVec(make([]float64, 2), make([]float64, 2)) })
	short := &Matrix{Rows: 8, Cols: 5, Data: make([]float64, 39)}
	assertPanics("MatVec short Data", func() { short.MatVec(make([]float64, 8), make([]float64, 5)) })
	assertPanics("MatTVec", func() { m.MatTVec(make([]float64, 2), make([]float64, 2)) })
	assertPanics("AddOuterBatch", func() { m.AddOuterBatch(make([]float64, 3), make([]float64, 3), 1, true, 1) })
	assertPanics("Dot", func() { Dot(make([]float64, 1), make([]float64, 2)) })
	assertPanics("AXPY", func() { AXPY(1, make([]float64, 1), make([]float64, 2)) })
	chunk := func(n, cols int) [][]float64 {
		xs := make([][]float64, n)
		for s := range xs {
			xs[s] = make([]float64, cols)
		}
		return xs
	}
	lanes := make([]float64, 5*Lanes)
	assertPanics("MatVecLanes empty chunk", func() { short.MatVecLanes(nil, chunk(0, 5), lanes) })
	assertPanics("MatVecLanes chunk of 9", func() { short.MatVecLanes(make([]float64, 72), chunk(9, 5), lanes) })
	assertPanics("MatVecLanes short dst", func() { short.MatVecLanes(make([]float64, 15), chunk(2, 5), lanes) })
	assertPanics("MatVecLanes short scratch", func() { short.MatVecLanes(make([]float64, 16), chunk(2, 5), lanes[1:]) })
	assertPanics("MatVecLanes long input", func() {
		xs := chunk(2, 5)
		xs[1] = make([]float64, 6)
		NewMatrix(8, 5).MatVecLanes(make([]float64, 16), xs, lanes)
	})
	assertPanics("MatVecLanes short Data", func() { short.MatVecLanes(make([]float64, 16), chunk(2, 5), lanes) })
	assertPanics("axpy4 short x", func() {
		xs := [4][]float64{make([]float64, 6), make([]float64, 6), make([]float64, 5), make([]float64, 6)}
		axpy4(make([]float64, 6), &[4]float64{1, 1, 1, 1}, &xs)
	})
}

func BenchmarkMatVec128(b *testing.B) {
	m := NewMatrix(128, 128)
	rng := rand.New(rand.NewSource(3))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	x := make([]float64, 128)
	dst := make([]float64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(dst, x)
	}
}

// BenchmarkKernels times each dense-layer kernel's Go loop against its
// AVX kernel (skipped where the processor or the build has none) at the
// layer shapes of the three benchmark models — 64 features, hidden width
// H, 62 classes: MatVec over both weight matrices, MatVecLanes over each
// with a full chunk of 8 inputs (the Go side is one matVecGo per input,
// the AVX side includes the transposition), axpy4 and Scale over a row of
// each, and
// AXPY over the model's D parameters (the residual add).
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	run := func(name string, goLoop, avx func()) {
		b.Run(name+"/go", func(b *testing.B) {
			for b.Loop() {
				goLoop()
			}
		})
		b.Run(name+"/avx", func(b *testing.B) {
			if !useAVX {
				b.Skip("no AVX kernels in this build or on this processor")
			}
			for b.Loop() {
				avx()
			}
		})
	}
	for _, h := range []int{786, 156, 16} {
		for _, shape := range [][2]int{{h, 64}, {62, h}} {
			rows, cols := shape[0], shape[1]
			w, x, dst := vec(rows*cols), vec(cols), make([]float64, rows)
			run(fmt.Sprintf("H=%d/MatVec/%dx%d", h, rows, cols),
				func() { matVecGo(dst, w, x) },
				func() { matVecAVX(dst, w, x) })
			xs, lanes, chunk := make([][]float64, Lanes), make([]float64, cols*Lanes), make([]float64, Lanes*rows)
			for s := range xs {
				xs[s] = vec(cols)
			}
			run(fmt.Sprintf("H=%d/MatVecLanes/%dx%d", h, rows, cols),
				func() {
					for s, x := range xs {
						matVecGo(chunk[s*rows:(s+1)*rows], w, x)
					}
				},
				func() {
					transposeLanes(lanes, xs)
					matVecLanesAVX(chunk, w, lanes, rows, Lanes)
				})
		}
		for _, n := range []int{64, h} {
			y, coef := vec(n), [4]float64{1e-3, -1e-3, 2e-3, -2e-3}
			xs := [4][]float64{vec(n), vec(n), vec(n), vec(n)}
			run(fmt.Sprintf("H=%d/axpy4/%d", h, n),
				func() { axpy4Go(y, &coef, &xs) },
				func() { axpy4AVX(y, &coef, &xs) })
			run(fmt.Sprintf("H=%d/Scale/%d", h, n),
				func() { scaleGo(1, y) },
				func() { scaleAVX(1, y) })
		}
		d := 65*h + (h+1)*62
		x, y := vec(d), vec(d)
		run(fmt.Sprintf("H=%d/AXPY/%d", h, d),
			func() { axpyGo(1e-3, x, y) },
			func() { axpyAVX(1e-3, x, y) })
	}
}

func TestChunkBoundsPartition(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000, 4097} {
		for _, chunks := range []int{1, 2, 3, 7, 16, 100} {
			prev := 0
			for i := 0; i < chunks; i++ {
				lo, hi := ChunkBounds(n, chunks, i)
				if lo != prev {
					t.Fatalf("n=%d chunks=%d: chunk %d starts at %d, want %d", n, chunks, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d chunks=%d: chunk %d inverted [%d, %d)", n, chunks, i, lo, hi)
				}
				if size := hi - lo; size > n/chunks+1 {
					t.Fatalf("n=%d chunks=%d: chunk %d size %d unbalanced", n, chunks, i, size)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d chunks=%d: chunks cover [0, %d), want [0, %d)", n, chunks, prev, n)
			}
		}
	}
}

// TestChunkOfMatchesBounds holds ChunkOf to ChunkBounds exhaustively over
// small shapes, chunks > n (empty ranges) included: every coordinate of
// chunk i's range maps back to i.
func TestChunkOfMatchesBounds(t *testing.T) {
	for n := 1; n <= 70; n++ {
		for chunks := 1; chunks <= 9; chunks++ {
			for i := 0; i < chunks; i++ {
				lo, hi := ChunkBounds(n, chunks, i)
				for j := lo; j < hi; j++ {
					if got := ChunkOf(n, chunks, j); got != i {
						t.Fatalf("ChunkOf(%d, %d, %d) = %d, want %d (range [%d, %d))", n, chunks, j, got, i, lo, hi)
					}
				}
			}
		}
	}
}

func TestAXPYChunk(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	AXPYChunk(2, x, y, 1, 4)
	want := []float64{10, 24, 36, 48, 50}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	assertPanics := func(f func()) {
		defer func() { recover() }()
		f()
		t.Fatal("AXPYChunk length mismatch did not panic")
	}
	assertPanics(func() { AXPYChunk(1, make([]float64, 2), make([]float64, 3), 0, 2) })
}

// TestWeightedSumChunkMatchesSequential pins the chunked reduction
// identity: assembling the sum from any chunk partition is bit-identical
// to Zero followed by in-order AXPY over the full vectors.
func TestWeightedSumChunkMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, d = 7, 1003
	vecs := make([][]float64, n)
	weights := make([]float64, n)
	for c := range vecs {
		weights[c] = rng.NormFloat64()
		vecs[c] = make([]float64, d)
		for j := range vecs[c] {
			vecs[c][j] = rng.NormFloat64()
		}
	}
	want := make([]float64, d)
	Zero(want)
	for c := range vecs {
		AXPY(weights[c], vecs[c], want)
	}
	got := make([]float64, d)
	for _, chunks := range []int{1, 2, 5, 64, d} {
		for i := 0; i < chunks; i++ {
			lo, hi := ChunkBounds(d, chunks, i)
			WeightedSumChunk(got, weights, vecs, lo, hi)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("chunks=%d: coord %d = %v, want %v", chunks, j, got[j], want[j])
			}
		}
	}
}
