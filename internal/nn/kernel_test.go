package nn

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refDense is the per-sample dense layer this package shipped before the
// batch-blocked kernels: one serial dot product per row, a zero-skipping
// rank-1 read-modify-write pass per sample, dL/dx always computed. It is
// the oracle of the kernel differentials. Not being a *Dense, the Network
// treats it like any other parameterised layer — zero its gradient view,
// accumulate sample by sample, scale — which is exactly the old
// MeanLossGrad.
type refDense struct {
	in, out int
	w, gw   []float64 // out × in, row-major
	b, gb   []float64
	x, y    []float64
	gx      []float64
}

func (d *refDense) InSize() int      { return d.in }
func (d *refDense) OutSize() int     { return d.out }
func (d *refDense) NumParams() int   { return d.out*d.in + d.out }
func (d *refDense) CacheFloats() int { return d.out + d.in }

func (d *refDense) BindCache(buf []float64) { d.y, d.gx = buf[:d.out], buf[d.out:] }

func (d *refDense) Bind(params, grads []float64) {
	nw := d.out * d.in
	d.w, d.b = params[:nw], params[nw:]
	d.gw, d.gb = grads[:nw], grads[nw:]
}

func (d *refDense) Init(*rand.Rand) {}

func (d *refDense) Forward(x []float64) []float64 {
	d.x = x
	for r := 0; r < d.out; r++ {
		var s float64
		for c, w := range d.w[r*d.in : (r+1)*d.in] {
			s += w * x[c]
		}
		d.y[r] = s
	}
	for r := range d.y {
		d.y[r] += 1 * d.b[r]
	}
	return d.y
}

func (d *refDense) Backward(grad []float64) []float64 {
	for r, g := range grad {
		if g == 0 {
			continue
		}
		row := d.gw[r*d.in : (r+1)*d.in]
		for c, xc := range d.x {
			row[c] += g * xc
		}
	}
	for r, g := range grad {
		d.gb[r] += 1 * g
	}
	for c := range d.gx {
		d.gx[c] = 0
	}
	for r, g := range grad {
		if g == 0 {
			continue
		}
		for c, w := range d.w[r*d.in : (r+1)*d.in] {
			d.gx[c] += w * g
		}
	}
	return d.gx
}

// refTwin rebuilds net with every Dense swapped for a refDense, sharing
// net's current parameters.
func refTwin(net *Network) *Network {
	layers := make([]Layer, len(net.layers))
	for i, l := range net.layers {
		switch l := l.(type) {
		case *Dense:
			layers[i] = &refDense{in: l.in, out: l.out}
		case *ReLU:
			layers[i] = NewReLU(l.size)
		case *Tanh:
			layers[i] = NewTanh(l.size)
		case *Conv2D:
			layers[i] = NewConv2D(l.inC, l.inH, l.inW, l.filters, l.k)
		case *MaxPool2D:
			layers[i] = NewMaxPool2D(l.c, l.inH, l.inW)
		default:
			panic(fmt.Sprintf("refTwin: unknown layer %T", l))
		}
	}
	twin := MustNew(layers...)
	twin.SetParams(net.Params())
	return twin
}

// sameFloat is bit equality, with every NaN equal to every other: which
// operand's payload a NaN·NaN keeps depends on the order the compiler
// loads them in, and no caller can observe it.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func requireSameGrads(t *testing.T, what string, net, ref *Network, loss, refLoss float64) {
	t.Helper()
	if !sameFloat(loss, refLoss) {
		t.Fatalf("%s: loss %v (%#x), per-sample oracle %v (%#x)", what,
			loss, math.Float64bits(loss), refLoss, math.Float64bits(refLoss))
	}
	for i, g := range net.Grads() {
		if want := ref.Grads()[i]; !sameFloat(g, want) {
			t.Fatalf("%s: grad[%d] = %v (%#x), per-sample oracle %v (%#x)", what, i,
				g, math.Float64bits(g), want, math.Float64bits(want))
		}
	}
}

// kernelBatch draws a batch with a third of the features exactly zero
// (half of those −0) — the FEMNIST-like generator's inputs are sparse too.
func kernelBatch(rng *rand.Rand, in, classes, batch int) ([][]float64, []int) {
	xs := make([][]float64, batch)
	ys := make([]int, batch)
	for i := range xs {
		xs[i] = randomInput(rng, in)
		for j := range xs[i] {
			switch rng.Intn(6) {
			case 0:
				xs[i][j] = 0
			case 1:
				xs[i][j] = math.Copysign(0, -1)
			}
		}
		ys[i] = rng.Intn(classes)
	}
	return xs, ys
}

var (
	kernelHiddens = []int{1, 3, 4, 5, 16, 156, 786}
	kernelBatches = []int{1, 2, 7, 8, 9, 33}
)

// TestKernelsMatchPerSampleOracle is the bit-identity proof of the
// batch-blocked dense kernels: over every row-block tail (H mod 4) and
// every staging shape (under, at and over denseStage, one
// sample), Grads, the returned loss and MeanLoss equal the per-sample
// oracle bit for bit. One network and one oracle are reused across all
// batch sizes of a shape, so stale staging would surface as well.
func TestKernelsMatchPerSampleOracle(t *testing.T) {
	const in, classes = 64, 62
	for _, h := range kernelHiddens {
		rng := rand.New(rand.NewSource(int64(100 + h)))
		net := NewMLP(in, []int{h}, classes)
		net.InitWeights(rng)
		// A tenth of the weights −0 or +0, and hidden biases spread wide
		// enough that some units are masked for every sample of a batch,
		// some for none, most for a few.
		for i := range net.Params() {
			switch rng.Intn(20) {
			case 0:
				net.Params()[i] = 0
			case 1:
				net.Params()[i] = math.Copysign(0, -1)
			}
		}
		bias := net.layers[0].(*Dense).b
		for r := range bias {
			bias[r] = 6 * rng.NormFloat64()
		}
		ref := refTwin(net)
		for _, b := range kernelBatches {
			what := fmt.Sprintf("H=%d batch=%d", h, b)
			xs, ys := kernelBatch(rng, in, classes, b)
			loss, refLoss := net.MeanLossGrad(xs, ys), ref.MeanLossGrad(xs, ys)
			requireSameGrads(t, what, net, ref, loss, refLoss)
			if got, want := net.MeanLoss(xs, ys), ref.MeanLoss(xs, ys); !sameFloat(got, want) {
				t.Fatalf("%s: MeanLoss %v, per-sample oracle %v", what, got, want)
			}
			// Backprop is a batch of one that adds onto Grads.
			loss, refLoss = net.Backprop(xs[0], ys[0]), ref.Backprop(xs[0], ys[0])
			requireSameGrads(t, what+" +Backprop", net, ref, loss, refLoss)
		}
	}
}

// TestKernelsZeroSkipOnNonFinite pins the g == 0 skip: a masked unit's
// weight-gradient row stays +0 even when the sample's input holds ±Inf or
// NaN (0·Inf would poison it), and the first layer's dropped dL/dx does
// not change what the deeper layers see.
func TestKernelsZeroSkipOnNonFinite(t *testing.T) {
	const in, h, classes = 6, 7, 3
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 5e-324}
	for si, special := range specials {
		for _, batch := range []int{1, 3, 9} {
			rng := rand.New(rand.NewSource(int64(7 + si)))
			net := NewMLP(in, []int{h}, classes)
			net.InitWeights(rng)
			d0 := net.layers[0].(*Dense)
			// Column 0 carries the special value. Units 0–2 ignore it and
			// sit far below zero: masked for every sample, g exactly 0.
			for r := 0; r < 3; r++ {
				d0.w.Set(r, 0, 0)
				d0.b[r] = -1e6
			}
			ref := refTwin(net)
			xs, ys := kernelBatch(rng, in, classes, batch)
			for _, x := range xs {
				x[0] = special
			}
			what := fmt.Sprintf("x=%v batch=%d", special, batch)
			loss, refLoss := net.MeanLossGrad(xs, ys), ref.MeanLossGrad(xs, ys)
			requireSameGrads(t, what, net, ref, loss, refLoss)
			for r := 0; r < 3; r++ {
				for c := 0; c < in; c++ {
					if g := d0.gw.At(r, c); math.Float64bits(g) != 0 {
						t.Fatalf("%s: masked unit %d picked up gradient %v at column %d", what, r, g, c)
					}
				}
			}
		}
	}
}

// TestNetworksRunConcurrently is the engine's usage under the race
// detector: one network per worker, all reading the same minibatch. The
// staged kernels keep every scratch inside the network, so the runs share
// nothing writable and agree bit for bit.
func TestNetworksRunConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	proto := NewMLP(64, []int{37}, 62)
	proto.InitWeights(rng)
	xs, ys := kernelBatch(rng, 64, 62, 11)
	nets := make([]*Network, 4)
	losses := make([]float64, len(nets))
	var wg sync.WaitGroup
	for i := range nets {
		nets[i] = NewMLP(64, []int{37}, 62)
		nets[i].SetParams(proto.Params())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				losses[i] = nets[i].MeanLossGrad(xs, ys)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(nets); i++ {
		requireSameGrads(t, fmt.Sprintf("net %d vs net 0", i), nets[i], nets[0], losses[i], losses[0])
	}
}

// gradFingerprint hashes the loss and every gradient bit.
func gradFingerprint(loss float64, grads []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range append([]float64{loss}, grads...) {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestCNNGradFingerprint pins a CNN's minibatch gradient to the value the
// per-sample path produced before the dense layers were batch-blocked
// (Conv2D and MaxPool2D still accumulate per sample), and to the oracle.
func TestCNNGradFingerprint(t *testing.T) {
	const wantFingerprint = 0x5d3cc6c7d6a09e34 // taken on the parent commit, amd64
	rng := rand.New(rand.NewSource(16))
	net := NewCNN(1, 12, 12, 4, 3, 16, 5)
	net.InitWeights(rng)
	ref := refTwin(net)
	for _, b := range []int{3, 8, 11} {
		xs, ys := kernelBatch(rng, net.InSize(), 5, b)
		loss, refLoss := net.MeanLossGrad(xs, ys), ref.MeanLossGrad(xs, ys)
		requireSameGrads(t, fmt.Sprintf("cnn batch=%d", b), net, ref, loss, refLoss)
		if b == 11 {
			if got := gradFingerprint(loss, net.Grads()); got != wantFingerprint {
				t.Fatalf("CNN gradient fingerprint %#x, want %#x", got, uint64(wantFingerprint))
			}
		}
	}
}

var benchSink float64

// benchMLP is the benchmark's model family at hidden width h (64 features,
// 62 classes, batch 8 — bench/README.md).
func benchMLP(h int) (*Network, [][]float64, []int) {
	rng := rand.New(rand.NewSource(15))
	n := NewMLP(64, []int{h}, 62)
	n.InitWeights(rng)
	xs, ys := kernelBatch(rng, 64, 62, denseStage)
	return n, xs, ys
}

// BenchmarkMeanLossGrad and BenchmarkMeanLoss run the three BENCHMARK.json
// model shapes: engine_adaptive (H=786), tcp_* (156), pop_routed_100k (16).
func BenchmarkMeanLossGrad(b *testing.B) {
	for _, h := range []int{786, 156, 16} {
		b.Run(fmt.Sprintf("H=%d", h), func(b *testing.B) {
			n, xs, ys := benchMLP(h)
			n.MeanLossGrad(xs, ys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = n.MeanLossGrad(xs, ys)
			}
		})
	}
}

func BenchmarkMeanLoss(b *testing.B) {
	for _, h := range []int{786, 156, 16} {
		b.Run(fmt.Sprintf("H=%d", h), func(b *testing.B) {
			n, xs, ys := benchMLP(h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = n.MeanLoss(xs, ys)
			}
		})
	}
}
