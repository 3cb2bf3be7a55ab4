// Package nn is a from-scratch neural-network substrate with manual
// backpropagation. Go has no automatic differentiation, so every layer
// implements its own analytic backward pass; the test suite verifies each
// one against central finite differences.
//
// The design constraint that shapes the whole package is federated gradient
// sparsification: the paper's algorithms operate on the model's gradient as
// a single flat vector of dimension D. A Network therefore owns one flat
// parameter slice and one flat gradient slice, and every layer receives
// sub-slice views into them via Bind. Top-k selection, accumulation, and
// sparse updates then work directly on those flat slices with no
// marshalling step.
//
// Networks are not safe for concurrent use: layers cache forward-pass
// activations for the subsequent backward pass. In the federated-learning
// engine each worker goroutine owns one Network, a replica of the
// synchronized weights that serves every client it runs; only FedAvg,
// whose local models diverge, gives each simulated client its own.
package nn

import (
	"math"
	"math/rand"

	"fedsparse/internal/tensor"
)

// Layer is one differentiable stage of a feed-forward network operating on
// flattened activations.
//
// The Forward/Backward contract: Backward must be called after Forward for
// the same sample, and the slices returned by both are owned by the layer
// and remain valid only until the next call. Backward accumulates (does not
// overwrite) parameter gradients into the gradient view supplied to Bind,
// which is what lets the Network average gradients over a minibatch. (Dense
// defers that accumulation to a flush the Network drives — see its doc.)
//
// Float caches (activations and input gradients) are not allocated by the
// constructors: the Network slab-allocates every layer's caches — together
// with the flat parameter and gradient vectors — out of one contiguous
// per-network arena and hands each layer its view via BindCache, so the
// forward/backward hot path stays allocation-free by construction (pinned
// by the allocs/op regression tests).
type Layer interface {
	// InSize and OutSize are the flattened activation lengths.
	InSize() int
	OutSize() int
	// NumParams is the number of trainable scalars in this layer.
	NumParams() int
	// CacheFloats is the layer's forward/backward float-cache footprint;
	// BindCache hands it a zeroed view of that length into the network
	// arena (called once at wiring, before any Forward).
	CacheFloats() int
	BindCache(buf []float64)
	// Bind hands the layer its views into the network-wide flat parameter
	// and gradient vectors; both have length NumParams.
	Bind(params, grads []float64)
	// Init writes initial weights into the bound parameter view.
	Init(rng *rand.Rand)
	// Forward computes the layer output for one sample.
	Forward(x []float64) []float64
	// Backward consumes dL/d(output), accumulates dL/d(params), and
	// returns dL/d(input).
	Backward(grad []float64) []float64
}

// Dense is a fully connected layer: y = W·x + b.
//
// Its weight gradient is the one place a minibatch pays for memory rather
// than arithmetic — a rank-1 update per sample is a read-modify-write pass
// over the whole out×in view — so Backward only stages the sample's
// (dL/dy, x) and the Network flushes the stage into the gradient view
// once per batch (every denseStage samples on larger ones). A Dense is
// therefore usable only as a layer of a Network: driven through the Layer
// interface by anything else, its gradient view lags behind Backward by up
// to denseStage samples and is never scaled.
//
// Addition-chain contract: a flush leaves each gradient element equal to
// scale·(((base + g₁x₁) + g₂x₂) + …), terms in sample order, base = +0 at
// the start of a MeanLossGrad batch and the element's previous value
// otherwise, terms whose g is exactly zero skipped (biases skip nothing).
// That is the chain per-sample accumulation followed by a scaling pass
// runs, so on amd64 the result is bit-identical to it for every batch
// size. It holds on both of internal/tensor's kernel paths: the AVX
// kernels keep each element's chain in one vector lane, with separate
// multiplies and adds (no FMA), so they and the Go loops (the purego
// build, and processors without AVX) give the same bits. Go fuses x*y+z
// on arm64 and other FMA targets; bits were never promised across
// architectures, only across code paths on one.
type Dense struct {
	in, out int
	w       tensor.Matrix // out × in view into the flat parameter vector
	b       []float64
	gw      tensor.Matrix
	gb      []float64
	x       []float64 // cached input reference (valid Forward→Backward)
	y       []float64
	gx      []float64

	sg, sx []float64 // staged dL/dy and x, denseStage samples each
	staged int
	fresh  bool // the next flush overwrites the gradient view
	first  bool // layer 0 of its network: nobody reads dL/dx
}

// denseStage is how many samples a Dense layer stages between flushes:
// the benchmark's batch size, so a typical minibatch costs one flush, at
// 8·(in+out) floats of arena per layer.
const denseStage = 8

// NewDense constructs a fully connected layer with the given fan-in/out.
func NewDense(in, out int) *Dense {
	return &Dense{in: in, out: out}
}

func (d *Dense) InSize() int    { return d.in }
func (d *Dense) OutSize() int   { return d.out }
func (d *Dense) NumParams() int { return d.out*d.in + d.out }
func (d *Dense) CacheFloats() int {
	return (1 + denseStage) * (d.out + d.in)
}

func (d *Dense) BindCache(buf []float64) {
	d.y, buf = buf[:d.out], buf[d.out:]
	d.gx, buf = buf[:d.in], buf[d.in:]
	d.sg, d.sx = buf[:denseStage*d.out], buf[denseStage*d.out:]
}

func (d *Dense) Bind(params, grads []float64) {
	nw := d.out * d.in
	d.w = tensor.Matrix{Rows: d.out, Cols: d.in, Data: params[:nw]}
	d.b = params[nw:]
	d.gw = tensor.Matrix{Rows: d.out, Cols: d.in, Data: grads[:nw]}
	d.gb = grads[nw:]
}

// Init uses He initialization (std = √(2/fan-in)), the standard choice for
// the ReLU networks this package builds.
func (d *Dense) Init(rng *rand.Rand) {
	std := math.Sqrt(2 / float64(d.in))
	for i := range d.w.Data {
		d.w.Data[i] = rng.NormFloat64() * std
	}
	tensor.Zero(d.b)
}

func (d *Dense) Forward(x []float64) []float64 {
	d.x = x
	d.w.MatVec(d.y, x)
	tensor.AXPY(1, d.b, d.y)
	return d.y
}

// Backward stages the sample for the next flush and returns dL/dx (nil
// from a network's first layer, where it has no reader).
func (d *Dense) Backward(grad []float64) []float64 {
	if d.staged == denseStage {
		d.flush(1)
	}
	copy(d.sg[d.staged*d.out:], grad)
	copy(d.sx[d.staged*d.in:], d.x)
	d.staged++
	if d.first {
		return nil
	}
	d.w.MatTVec(d.gx, grad)
	return d.gx
}

// flush folds the staged samples into the gradient view — see the
// addition-chain contract on Dense.
func (d *Dense) flush(scale float64) {
	n := d.staged
	d.gw.AddOuterBatch(d.sg[:n*d.out], d.sx[:n*d.in], n, d.fresh, scale)
	for r := range d.gb {
		acc := d.gb[r]
		if d.fresh {
			acc = 0
		}
		for s := 0; s < n; s++ {
			acc += d.sg[s*d.out+r]
		}
		d.gb[r] = acc * scale
	}
	d.staged, d.fresh = 0, false
}

// ReLU is the elementwise max(0, x) activation.
type ReLU struct {
	size int
	mask []bool
	y    []float64
	gx   []float64
}

// NewReLU constructs a ReLU over activations of the given length.
func NewReLU(size int) *ReLU {
	return &ReLU{
		size: size,
		mask: make([]bool, size),
	}
}

func (r *ReLU) InSize() int      { return r.size }
func (r *ReLU) OutSize() int     { return r.size }
func (r *ReLU) NumParams() int   { return 0 }
func (r *ReLU) CacheFloats() int { return 2 * r.size }

func (r *ReLU) BindCache(buf []float64) {
	r.y = buf[:r.size]
	r.gx = buf[r.size:]
}

func (r *ReLU) Bind(_, _ []float64) {}
func (r *ReLU) Init(_ *rand.Rand)   {}

func (r *ReLU) Forward(x []float64) []float64 {
	for i, v := range x {
		if v > 0 {
			r.y[i] = v
			r.mask[i] = true
		} else {
			r.y[i] = 0
			r.mask[i] = false
		}
	}
	return r.y
}

func (r *ReLU) Backward(grad []float64) []float64 {
	for i, g := range grad {
		if r.mask[i] {
			r.gx[i] = g
		} else {
			r.gx[i] = 0
		}
	}
	return r.gx
}

// Tanh is the elementwise hyperbolic-tangent activation.
type Tanh struct {
	size int
	y    []float64
	gx   []float64
}

// NewTanh constructs a Tanh over activations of the given length.
func NewTanh(size int) *Tanh {
	return &Tanh{size: size}
}

func (t *Tanh) InSize() int      { return t.size }
func (t *Tanh) OutSize() int     { return t.size }
func (t *Tanh) NumParams() int   { return 0 }
func (t *Tanh) CacheFloats() int { return 2 * t.size }

func (t *Tanh) BindCache(buf []float64) {
	t.y = buf[:t.size]
	t.gx = buf[t.size:]
}

func (t *Tanh) Bind(_, _ []float64) {}
func (t *Tanh) Init(_ *rand.Rand)   {}

func (t *Tanh) Forward(x []float64) []float64 {
	for i, v := range x {
		t.y[i] = math.Tanh(v)
	}
	return t.y
}

func (t *Tanh) Backward(grad []float64) []float64 {
	for i, g := range grad {
		t.gx[i] = g * (1 - t.y[i]*t.y[i])
	}
	return t.gx
}
