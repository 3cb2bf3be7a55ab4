package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fedsparse/internal/tensor"
)

// Network is a feed-forward model whose trainable parameters live in one
// flat vector of dimension D, with the matching flat gradient vector. The
// federated-learning engine treats both as opaque []float64, which is
// exactly the representation gradient sparsification needs.
//
// All float storage — parameters, gradients, the softmax scratch, and
// every layer's forward/backward caches — is carved out of one contiguous
// arena allocated at construction. A Network is per-worker state in the
// engine (per-client only under FedAvg), so the arena is one allocation,
// one cache footprint, and a steady state in which Forward/Backprop/Loss
// allocate nothing per sample (the allocs/op regression tests pin this).
//
// Samples go through the layers in chunks of up to denseStage: each layer
// runs over the whole chunk before the next starts, so a Dense layer
// reads its weight matrix once per chunk rather than once per sample.
// Lanes never mix samples, so every per-sample result is the one a chunk
// of one gives; the single-sample entry points are exactly that.
type Network struct {
	layers []Layer
	arena  []float64
	params []float64
	grads  []float64
	probs  []float64    // scratch for softmax
	one    [1][]float64 // the chunk of a single-sample call
}

// New wires the given layers into a network, validating that each layer's
// output size matches the next layer's input size, and carves the flat
// parameter/gradient storage plus every layer's caches out of a single
// arena. Weights are zero until InitWeights is called.
func New(layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network needs at least one layer")
	}
	var d, cache int
	for i, l := range layers {
		if i > 0 && layers[i-1].OutSize() != l.InSize() {
			return nil, fmt.Errorf("nn: layer %d output size %d does not match layer %d input size %d",
				i-1, layers[i-1].OutSize(), i, l.InSize())
		}
		d += l.NumParams()
		cache += l.CacheFloats()
	}
	numClasses := layers[len(layers)-1].OutSize()
	arena := make([]float64, d+d+numClasses+cache)
	n := &Network{
		layers: layers,
		arena:  arena,
		params: arena[:d:d],
		grads:  arena[d : 2*d : 2*d],
		probs:  arena[2*d : 2*d+numClasses : 2*d+numClasses],
	}
	off := 0
	cacheOff := 2*d + numClasses
	for i, l := range layers {
		np := l.NumParams()
		l.Bind(n.params[off:off+np], n.grads[off:off+np])
		if d, ok := l.(*Dense); ok {
			d.first = i == 0
		}
		off += np
		nc := l.CacheFloats()
		l.BindCache(arena[cacheOff : cacheOff+nc : cacheOff+nc])
		cacheOff += nc
	}
	return n, nil
}

// MustNew is New that panics on a wiring error; intended for model builders
// whose shapes are computed, not user-supplied.
func MustNew(layers ...Layer) *Network {
	n, err := New(layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// D returns the total number of trainable parameters (the gradient
// dimension the paper calls D).
func (n *Network) D() int { return len(n.params) }

// InSize returns the flattened input dimension.
func (n *Network) InSize() int { return n.layers[0].InSize() }

// NumClasses returns the output dimension (number of logits).
func (n *Network) NumClasses() int { return n.layers[len(n.layers)-1].OutSize() }

// Params returns the live flat parameter vector. Mutating it changes the
// model; this is how the FL engine applies sparse updates.
func (n *Network) Params() []float64 { return n.params }

// Grads returns the live flat gradient vector accumulated by Backprop.
func (n *Network) Grads() []float64 { return n.grads }

// SetParams copies src into the parameter vector.
func (n *Network) SetParams(src []float64) {
	if len(src) != len(n.params) {
		panic("nn: SetParams dimension mismatch")
	}
	copy(n.params, src)
}

// ZeroGrads clears the accumulated gradient.
func (n *Network) ZeroGrads() { tensor.Zero(n.grads) }

// InitWeights initializes every layer's weights from rng.
func (n *Network) InitWeights(rng *rand.Rand) {
	for _, l := range n.layers {
		l.Init(rng)
	}
}

// forward runs a chunk of at most denseStage samples through the layers
// and returns each sample's logits (owned by the last layer; valid until
// the next forward).
func (n *Network) forward(xs [][]float64) [][]float64 {
	h := xs
	for _, l := range n.layers {
		h = l.Forward(h)
	}
	return h
}

// Forward runs the network on one sample and returns the logits (owned
// by the last layer; valid until the next Forward).
func (n *Network) Forward(x []float64) []float64 {
	n.one[0] = x
	return n.forward(n.one[:])[0]
}

// crossEntropy is the softmax cross-entropy loss of one sample's logits.
func crossEntropy(logits []float64, label int) float64 {
	return tensor.LogSumExp(logits) - logits[label]
}

// Loss returns the softmax cross-entropy loss of one sample without
// touching gradients.
func (n *Network) Loss(x []float64, label int) float64 {
	return crossEntropy(n.Forward(x), label)
}

// Losses writes each sample's Loss into dst (one per sample, in order),
// running the samples through the network denseStage at a time. Every
// entry equals Loss(xs[i], labels[i]) bit for bit.
func (n *Network) Losses(dst []float64, xs [][]float64, labels []int) {
	if len(dst) != len(xs) || len(labels) != len(xs) {
		panic("nn: Losses batch length mismatch")
	}
	for lo := 0; lo < len(xs); lo += denseStage {
		for s, logits := range n.forward(xs[lo:min(lo+denseStage, len(xs))]) {
			dst[lo+s] = crossEntropy(logits, labels[lo+s])
		}
	}
}

// Predict returns the argmax class for one sample.
func (n *Network) Predict(x []float64) int {
	return tensor.ArgMax(n.Forward(x))
}

// Backprop runs forward + softmax-cross-entropy + backward for one sample,
// accumulating dL/dθ into Grads, and returns the sample loss — a batch of
// one on the path MeanLossGrad takes, without its zeroing and averaging.
func (n *Network) Backprop(x []float64, label int) float64 {
	loss := n.backward(0, n.Forward(x), label)
	for _, l := range n.layers {
		if d, ok := l.(*Dense); ok {
			d.flush(1)
		}
	}
	return loss
}

// backward is the backward pass of sample s of the last forward chunk,
// whose logits are given. Dense layers only stage their gradient
// contribution; the caller (or the next chunk's forward) flushes them.
func (n *Network) backward(s int, logits []float64, label int) float64 {
	loss := crossEntropy(logits, label)
	// dL/dlogits = softmax(logits) − onehot(label)
	tensor.Softmax(n.probs, logits)
	n.probs[label]--
	g := n.probs
	for i := len(n.layers) - 1; i >= 0; i-- {
		g = n.layers[i].Backward(s, g)
	}
	return loss
}

// MeanLossGrad computes the minibatch-mean gradient into Grads (replacing
// any previous contents) and returns the mean loss.
//
// Every gradient element is inv·(((0 + t₁) + t₂) + …) with tₛ sample s's
// contribution, added in sample order from +0 — the chain of ZeroGrads,
// one Backprop per sample, and a scaling pass. Dense layers produce it in
// one write pass per batch (see Dense), bit-identical to that sequence;
// every other layer accumulates per sample between a zero and a scale
// pass over its own gradient view.
func (n *Network) MeanLossGrad(xs [][]float64, labels []int) float64 {
	if len(xs) != len(labels) {
		panic("nn: MeanLossGrad batch length mismatch")
	}
	if len(xs) == 0 {
		panic("nn: MeanLossGrad empty batch")
	}
	off := 0
	for _, l := range n.layers {
		np := l.NumParams()
		if d, ok := l.(*Dense); ok {
			d.fresh = true
		} else {
			tensor.Zero(n.grads[off : off+np])
		}
		off += np
	}
	var loss float64
	for lo := 0; lo < len(xs); lo += denseStage {
		for s, logits := range n.forward(xs[lo:min(lo+denseStage, len(xs))]) {
			loss += n.backward(s, logits, labels[lo+s])
		}
	}
	inv := 1 / float64(len(xs))
	off = 0
	for _, l := range n.layers {
		np := l.NumParams()
		if d, ok := l.(*Dense); ok {
			d.flush(inv)
		} else {
			tensor.Scale(inv, n.grads[off:off+np])
		}
		off += np
	}
	return loss * inv
}

// MeanLoss returns the mean cross-entropy loss over the given samples
// without computing gradients.
func (n *Network) MeanLoss(xs [][]float64, labels []int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var loss float64
	for lo := 0; lo < len(xs); lo += denseStage {
		for s, logits := range n.forward(xs[lo:min(lo+denseStage, len(xs))]) {
			loss += crossEntropy(logits, labels[lo+s])
		}
	}
	return loss / float64(len(xs))
}

// Accuracy returns the fraction of samples whose argmax prediction matches
// the label.
func (n *Network) Accuracy(xs [][]float64, labels []int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	correct := 0
	for lo := 0; lo < len(xs); lo += denseStage {
		for s, logits := range n.forward(xs[lo:min(lo+denseStage, len(xs))]) {
			if tensor.ArgMax(logits) == labels[lo+s] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(xs))
}
