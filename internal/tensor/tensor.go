// Package tensor provides the small dense linear-algebra kernel used by the
// neural-network substrate. It is deliberately minimal: float64 slices as
// vectors and a row-major Matrix type, with the handful of BLAS level-1/2
// operations that manual backpropagation needs.
//
// The dense-layer kernels (MatVec, AXPY, Scale, and the row updates under
// MatTVec and AddOuterBatch) run as AVX assembly on amd64 processors that
// have it and as Go loops elsewhere, or under the purego build tag. The
// two are bit-identical: the vector kernels keep each output element's
// addition chain in one lane, in the Go loop's order, with no FMA.
//
// All functions treat length mismatches as programmer errors and panic,
// mirroring the behaviour of the standard library's copy/append contract
// violations; shape validation for user input belongs to the callers (the
// nn package validates layer wiring at network construction time).
package tensor

import "math"

// Matrix is a dense row-major matrix: element (r, c) is Data[r*Cols+c].
type Matrix struct {
	Rows int
	Cols int
	Data []float64
}

// NewMatrix allocates a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// MatVec computes dst = m · x where x has length m.Cols and dst length m.Rows.
// Every dst[r] is the one chain ((0 + w₀x₀) + w₁x₁) + … in column order,
// whichever kernel runs: the vector kernel (see kernels_amd64.s) holds
// one row's chain per lane, the Go loop four rows' chains at once to hide
// the floating-point add latency, so blocking is invisible in the result.
func (m *Matrix) MatVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows || len(m.Data) < m.Rows*m.Cols {
		panic("tensor: MatVec shape mismatch")
	}
	if useAVX && m.Rows >= 4 {
		matVecAVX(dst, m.Data, x)
		return
	}
	matVecGo(dst, m.Data, x)
}

// matVecGo is MatVec's portable kernel over a len(dst) × len(x) row-major
// w, and the oracle the vector kernel is tested against.
func matVecGo(dst, w, x []float64) {
	n := len(x)
	r := 0
	for ; r+4 <= len(dst); r += 4 {
		w := w[r*n : (r+4)*n]
		w0, w1, w2, w3 := w[:n][:len(x)], w[n:][:len(x)], w[2*n:][:len(x)], w[3*n:][:len(x)]
		var s0, s1, s2, s3 float64
		for c, xc := range x {
			s0 += w0[c] * xc
			s1 += w1[c] * xc
			s2 += w2[c] * xc
			s3 += w3[c] * xc
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < len(dst); r++ {
		dst[r] = Dot(w[r*n:(r+1)*n], x)
	}
}

// Lanes is the chunk width of MatVecLanes: one input per vector lane, as
// many as an AVX pass holds in two registers per row.
const Lanes = 8

// MatVecLanes computes the products of a chunk of 1 ≤ len(xs) ≤ Lanes
// inputs, dst[s·Rows : (s+1)·Rows] = m · xs[s], each bit for bit what
// MatVec(dst_s, xs[s]) stores. lanes is Cols·Lanes floats of scratch. On
// the AVX kernel a chunk of two or more reads m once for all its inputs:
// they are transposed into lanes (xs[s][c] at lanes[c·Lanes + s]) and
// each vector lane runs one input's chain ((0 + w₀x₀) + w₁x₁) + … in
// column order, as MatVec's does. Elsewhere, and for a chunk of one, it
// is one MatVec per input.
func (m *Matrix) MatVecLanes(dst []float64, xs [][]float64, lanes []float64) {
	n := len(xs)
	if n < 1 || n > Lanes || len(dst) != n*m.Rows || len(lanes) != m.Cols*Lanes {
		panic("tensor: MatVecLanes shape mismatch")
	}
	if !useAVX || m.Rows < 4 || n == 1 {
		for s, x := range xs {
			m.MatVec(dst[s*m.Rows:(s+1)*m.Rows], x)
		}
		return
	}
	if len(m.Data) < m.Rows*m.Cols {
		panic("tensor: MatVecLanes shape mismatch")
	}
	transposeLanes(lanes, xs)
	matVecLanesAVX(dst, m.Data, lanes, m.Rows, n)
}

// transposeLanes writes the inputs xs into lanes transposed, lanes[c·Lanes
// + s] = xs[s][c], in order. The lanes past a short chunk repeat its last
// input, so a kernel pass over all Lanes lanes computes on real values
// there; nothing stores them.
func transposeLanes(lanes []float64, xs [][]float64) {
	cols := len(lanes) / Lanes
	var in [Lanes][]float64
	for s := range in {
		in[s] = xs[min(s, len(xs)-1)]
		if len(in[s]) != cols {
			panic("tensor: MatVecLanes shape mismatch")
		}
	}
	x0, x1, x2, x3 := in[0][:cols], in[1][:cols], in[2][:cols], in[3][:cols]
	x4, x5, x6, x7 := in[4][:cols], in[5][:cols], in[6][:cols], in[7][:cols]
	for c := 0; c < cols; c++ {
		l := lanes[c*Lanes:][:Lanes]
		l[0], l[1], l[2], l[3] = x0[c], x1[c], x2[c], x3[c]
		l[4], l[5], l[6], l[7] = x4[c], x5[c], x6[c], x7[c]
	}
}

// MatTVec computes dst = mᵀ · x where x has length m.Rows and dst length
// m.Cols. Rows whose x[r] is exactly zero contribute nothing (not even a
// NaN from an infinite weight); the rest are added in row order, so
// dst[c] is the chain ((0 + w_{r₀c}x_{r₀}) + w_{r₁c}x_{r₁}) + ….
func (m *Matrix) MatTVec(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("tensor: MatTVec shape mismatch")
	}
	Zero(dst)
	addScaledRows(dst, x, 0, 1, m.Rows, m.Data)
}

// AddOuterBatch accumulates n rank-1 updates in one pass over m:
// m = scale·(base + u₁v₁ᵀ + … + u_nv_nᵀ), where base is zero when fresh
// and m's previous contents otherwise. us holds the n vectors u_s (length
// Rows) back to back, vs the n vectors v_s (length Cols) — the
// weight-gradient shape of a dense layer over a staged minibatch. Every
// element is the chain ((base + u₁ᵣv₁c) + u₂ᵣv₂c) + … in sample order,
// terms with u_sᵣ exactly zero skipped: bit for bit what n whole-matrix
// passes m += u_s v_sᵀ followed by a scaling pass produce, while each row
// of m is zeroed, summed and scaled in one visit.
func (m *Matrix) AddOuterBatch(us, vs []float64, n int, fresh bool, scale float64) {
	if len(us) != n*m.Rows || len(vs) != n*m.Cols {
		panic("tensor: AddOuterBatch shape mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		if fresh {
			Zero(row)
		}
		addScaledRows(row, us, r, m.Rows, n, vs)
		if scale != 1 {
			Scale(scale, row)
		}
	}
}

// addScaledRows computes y += Σᵢ aᵢ·xᵢ over i < n, where aᵢ is
// a[first+i·stride] and xᵢ the i-th len(y)-long row of rows. Terms with aᵢ
// exactly zero are skipped and the rest added in index order, four per
// pass over y: each y[c] runs the chain of one AXPY per term, with a
// quarter of the loads and stores.
func addScaledRows(y, a []float64, first, stride, n int, rows []float64) {
	var coef [4]float64
	var x [4][]float64
	k := 0
	for i := 0; i < n; i++ {
		ai := a[first+i*stride]
		if ai == 0 {
			continue
		}
		coef[k], x[k] = ai, rows[i*len(y):(i+1)*len(y)]
		if k++; k == 4 {
			axpy4(y, &coef, &x)
			k = 0
		}
	}
	for i := 0; i < k; i++ {
		AXPY(coef[i], x[i], y)
	}
}

// axpy4 is four AXPY calls with one load and store of each y[c]:
// y[c] = (((y[c] + a₀x₀[c]) + a₁x₁[c]) + a₂x₂[c]) + a₃x₃[c], that chain
// in one lane of the AVX kernel. Every x_i must hold at least len(y)
// elements.
func axpy4(y []float64, a *[4]float64, x *[4][]float64) {
	_, _, _, _ = x[0][:len(y)], x[1][:len(y)], x[2][:len(y)], x[3][:len(y)]
	if useAVX {
		axpy4AVX(y, a, x)
		return
	}
	axpy4Go(y, a, x)
}

// axpy4Go is axpy4's portable kernel: a leaf of its own so the loop keeps
// its eleven live values in registers.
func axpy4Go(y []float64, a *[4]float64, x *[4][]float64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	x0, x1, x2, x3 := x[0][:len(y)], x[1][:len(y)], x[2][:len(y)], x[3][:len(y)]
	for c := range y {
		y[c] = (((y[c] + a0*x0[c]) + a1*x1[c]) + a2*x2[c]) + a3*x3[c]
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// AXPY computes y += a·x in place: every y[i] becomes y[i] + a·x[i], one
// multiply and one add whichever kernel runs (the AVX one puts one
// element in each lane and never fuses the two).
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: AXPY length mismatch")
	}
	if useAVX {
		axpyAVX(a, x, y)
		return
	}
	axpyGo(a, x, y)
}

// axpyGo is AXPY's portable kernel.
func axpyGo(a float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += a * v
	}
}

// ChunkBounds splits [0, n) into `chunks` near-equal contiguous ranges and
// returns the half-open bounds of chunk i. Chunks cover [0, n) exactly,
// never overlap, and their sizes differ by at most one, so a reduction
// partitioned with ChunkBounds touches every coordinate exactly once
// regardless of the chunk count.
func ChunkBounds(n, chunks, i int) (lo, hi int) {
	if chunks < 1 {
		panic("tensor: ChunkBounds needs at least 1 chunk")
	}
	return i * n / chunks, (i + 1) * n / chunks
}

// ChunkOf returns the chunk of ChunkBounds(n, chunks, ·) that holds
// coordinate j ∈ [0, n), by arithmetic instead of a search over the
// bounds: j ≥ ⌊i·n/chunks⌋ ⟺ i·n < chunks·(j+1), and j < ⌊(i+1)·n/chunks⌋
// ⟺ chunks·(j+1) ≤ (i+1)·n, so i = ⌈chunks·(j+1)/n⌉ − 1. Empty chunks
// (chunks > n) own nothing and are never returned.
func ChunkOf(n, chunks, j int) int {
	return (chunks*(j+1) - 1) / n
}

// AXPYChunk computes y[lo:hi] += a·x[lo:hi] in place — the chunked form of
// AXPY used by the engine's coordinate-partitioned weighted reductions.
func AXPYChunk(a float64, x, y []float64, lo, hi int) {
	if len(x) != len(y) {
		panic("tensor: AXPYChunk length mismatch")
	}
	AXPY(a, x[lo:hi], y[lo:hi])
}

// WeightedSumChunk overwrites dst[lo:hi] with Σ_c weights[c]·vecs[c][lo:hi],
// accumulating the vectors in slice order. Because every coordinate's
// addition chain runs in the same (vector 0, 1, 2, …) order no matter how
// [0, len(dst)) is partitioned into chunks, computing the full reduction
// chunk by chunk — sequentially or with one goroutine per chunk — yields a
// result bit-identical to Zero(dst) followed by in-order AXPY calls over
// the whole vectors.
func WeightedSumChunk(dst []float64, weights []float64, vecs [][]float64, lo, hi int) {
	if len(weights) != len(vecs) {
		panic("tensor: WeightedSumChunk weights/vecs length mismatch")
	}
	Zero(dst[lo:hi])
	for c, v := range vecs {
		AXPYChunk(weights[c], v, dst, lo, hi)
	}
}

// Scale multiplies every element of x by a in place (on the AVX kernel
// too, each element is one multiply of its own).
func Scale(a float64, x []float64) {
	if useAVX {
		scaleAVX(a, x)
		return
	}
	scaleGo(a, x)
}

// scaleGo is Scale's portable kernel.
func scaleGo(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Clone returns a fresh copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// MaxAbs returns the largest absolute value in x, or 0 for an empty slice.
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgMax returns the index of the largest element of x (first on ties);
// it returns -1 for an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// LogSumExp returns log(Σ exp(x_i)) computed stably. An infinite max is
// the answer itself (exp(m − m) would be NaN), unless a NaN is present:
// NaN stays NaN.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, 0) {
		for _, v := range x {
			if v != v {
				return v
			}
		}
		return m
	}
	var s float64
	for _, v := range x {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// Softmax writes the softmax of x into dst (stable against overflow).
// dst and x may alias. The limits of infinite logits are kept: with a
// +Inf present, the +Inf entries split the mass equally and every other
// entry gets 0; when every entry is −Inf, the result is uniform. A NaN
// anywhere makes every entry NaN.
func Softmax(dst, x []float64) { SoftmaxLSE(dst, x, LogSumExp(x)) }

// SoftmaxLSE is Softmax given lse = LogSumExp(x), for a caller that has
// it already (the cross-entropy gradient, which computed the loss).
func SoftmaxLSE(dst, x []float64, lse float64) {
	if len(dst) != len(x) {
		panic("tensor: Softmax length mismatch")
	}
	switch {
	case math.IsInf(lse, 1):
		top := 0
		for _, v := range x {
			if math.IsInf(v, 1) {
				top++
			}
		}
		share := 1 / float64(top)
		for i, v := range x {
			dst[i] = 0
			if math.IsInf(v, 1) {
				dst[i] = share
			}
		}
	case math.IsInf(lse, -1):
		for i := range dst {
			dst[i] = 1 / float64(len(dst))
		}
	default:
		for i, v := range x {
			dst[i] = math.Exp(v - lse)
		}
	}
}
