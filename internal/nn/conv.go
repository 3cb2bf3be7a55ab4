package nn

import (
	"math"
	"math/rand"

	"fedsparse/internal/tensor"
)

// Conv2D is a 2-D convolution with stride 1 and no padding ("valid"), the
// same shape as the convolutional blocks in the paper's evaluation model.
// Activations are flattened channel-major: index (c, i, j) lives at
// c·H·W + i·W + j.
type Conv2D struct {
	inC, inH, inW int
	filters, k    int
	outH, outW    int

	w  []float64 // filters × inC × k × k
	b  []float64 // filters
	gw []float64
	gb []float64

	xs [][]float64 // the chunk's inputs (valid Forward→Backward)
	ys chunk
	gx []float64
}

// NewConv2D constructs a valid-padding stride-1 convolution over an input
// of shape (inC, inH, inW) with `filters` kernels of size k×k.
func NewConv2D(inC, inH, inW, filters, k int) *Conv2D {
	outH, outW := inH-k+1, inW-k+1
	if outH <= 0 || outW <= 0 {
		panic("nn: Conv2D kernel larger than input")
	}
	return &Conv2D{
		inC: inC, inH: inH, inW: inW,
		filters: filters, k: k,
		outH: outH, outW: outW,
	}
}

func (c *Conv2D) InSize() int      { return c.inC * c.inH * c.inW }
func (c *Conv2D) OutSize() int     { return c.filters * c.outH * c.outW }
func (c *Conv2D) NumParams() int   { return c.filters*c.inC*c.k*c.k + c.filters }
func (c *Conv2D) CacheFloats() int { return denseStage*c.OutSize() + c.InSize() }

func (c *Conv2D) BindCache(buf []float64) {
	c.gx = buf[:c.InSize()]
	c.ys.bind(buf[c.InSize():], c.OutSize())
}

func (c *Conv2D) Bind(params, grads []float64) {
	nw := c.filters * c.inC * c.k * c.k
	c.w, c.b = params[:nw], params[nw:]
	c.gw, c.gb = grads[:nw], grads[nw:]
}

func (c *Conv2D) Init(rng *rand.Rand) {
	fanIn := float64(c.inC * c.k * c.k)
	std := math.Sqrt(2 / fanIn)
	for i := range c.w {
		c.w[i] = rng.NormFloat64() * std
	}
	tensor.Zero(c.b)
}

// wAt returns the weight view for output filter f, input channel ch: a k×k
// kernel stored row-major.
func (c *Conv2D) wAt(w []float64, f, ch int) []float64 {
	kk := c.k * c.k
	base := (f*c.inC + ch) * kk
	return w[base : base+kk]
}

func (c *Conv2D) Forward(xs [][]float64) [][]float64 {
	c.xs = xs
	for s, x := range xs {
		c.forward(c.ys[s], x)
	}
	return c.ys[:len(xs)]
}

// forward is one sample's convolution into y.
func (c *Conv2D) forward(y, x []float64) {
	for f := 0; f < c.filters; f++ {
		out := y[f*c.outH*c.outW : (f+1)*c.outH*c.outW]
		bias := c.b[f]
		for i := range out {
			out[i] = bias
		}
		for ch := 0; ch < c.inC; ch++ {
			in := x[ch*c.inH*c.inW : (ch+1)*c.inH*c.inW]
			ker := c.wAt(c.w, f, ch)
			for oi := 0; oi < c.outH; oi++ {
				for oj := 0; oj < c.outW; oj++ {
					var s float64
					for ki := 0; ki < c.k; ki++ {
						inRow := in[(oi+ki)*c.inW+oj:]
						kerRow := ker[ki*c.k:]
						for kj := 0; kj < c.k; kj++ {
							s += inRow[kj] * kerRow[kj]
						}
					}
					out[oi*c.outW+oj] += s
				}
			}
		}
	}
}

func (c *Conv2D) Backward(s int, grad []float64) []float64 {
	x := c.xs[s]
	tensor.Zero(c.gx)
	for f := 0; f < c.filters; f++ {
		g := grad[f*c.outH*c.outW : (f+1)*c.outH*c.outW]
		var bsum float64
		for _, v := range g {
			bsum += v
		}
		c.gb[f] += bsum
		for ch := 0; ch < c.inC; ch++ {
			in := x[ch*c.inH*c.inW : (ch+1)*c.inH*c.inW]
			ginC := c.gx[ch*c.inH*c.inW : (ch+1)*c.inH*c.inW]
			ker := c.wAt(c.w, f, ch)
			gker := c.wAt(c.gw, f, ch)
			for oi := 0; oi < c.outH; oi++ {
				for oj := 0; oj < c.outW; oj++ {
					gv := g[oi*c.outW+oj]
					if gv == 0 {
						continue
					}
					for ki := 0; ki < c.k; ki++ {
						inRow := in[(oi+ki)*c.inW+oj:]
						gxRow := ginC[(oi+ki)*c.inW+oj:]
						kerRow := ker[ki*c.k:]
						gkerRow := gker[ki*c.k:]
						for kj := 0; kj < c.k; kj++ {
							gkerRow[kj] += gv * inRow[kj]
							gxRow[kj] += gv * kerRow[kj]
						}
					}
				}
			}
		}
	}
	return c.gx
}

// MaxPool2D is a 2×2, stride-2 max pooling over (C, H, W) activations.
// Odd trailing rows/columns are dropped, matching the common "floor" mode.
type MaxPool2D struct {
	c, inH, inW int
	outH, outW  int
	argmax      [denseStage][]int // per sample: the input index each output took
	ys          chunk
	gx          []float64
}

// NewMaxPool2D constructs a 2×2 stride-2 max-pool over an input of shape
// (c, inH, inW).
func NewMaxPool2D(c, inH, inW int) *MaxPool2D {
	outH, outW := inH/2, inW/2
	if outH == 0 || outW == 0 {
		panic("nn: MaxPool2D input too small")
	}
	p := &MaxPool2D{
		c: c, inH: inH, inW: inW,
		outH: outH, outW: outW,
	}
	n := c * outH * outW
	argmax := make([]int, denseStage*n)
	for s := range p.argmax {
		p.argmax[s] = argmax[s*n : (s+1)*n : (s+1)*n]
	}
	return p
}

func (p *MaxPool2D) InSize() int      { return p.c * p.inH * p.inW }
func (p *MaxPool2D) OutSize() int     { return p.c * p.outH * p.outW }
func (p *MaxPool2D) NumParams() int   { return 0 }
func (p *MaxPool2D) CacheFloats() int { return denseStage*p.OutSize() + p.InSize() }

func (p *MaxPool2D) BindCache(buf []float64) {
	p.gx = buf[:p.InSize()]
	p.ys.bind(buf[p.InSize():], p.OutSize())
}

func (p *MaxPool2D) Bind(_, _ []float64) {}
func (p *MaxPool2D) Init(_ *rand.Rand)   {}

func (p *MaxPool2D) Forward(xs [][]float64) [][]float64 {
	for s, x := range xs {
		p.forward(p.ys[s], p.argmax[s], x)
	}
	return p.ys[:len(xs)]
}

// forward is one sample's pooling into y, recording each output's source
// in argmax.
func (p *MaxPool2D) forward(y []float64, argmax []int, x []float64) {
	for ch := 0; ch < p.c; ch++ {
		in := x[ch*p.inH*p.inW : (ch+1)*p.inH*p.inW]
		outBase := ch * p.outH * p.outW
		for oi := 0; oi < p.outH; oi++ {
			for oj := 0; oj < p.outW; oj++ {
				i0, j0 := 2*oi, 2*oj
				best := i0*p.inW + j0
				for _, cand := range [4]int{
					i0*p.inW + j0, i0*p.inW + j0 + 1,
					(i0+1)*p.inW + j0, (i0+1)*p.inW + j0 + 1,
				} {
					if in[cand] > in[best] {
						best = cand
					}
				}
				o := outBase + oi*p.outW + oj
				y[o] = in[best]
				argmax[o] = ch*p.inH*p.inW + best
			}
		}
	}
}

func (p *MaxPool2D) Backward(s int, grad []float64) []float64 {
	tensor.Zero(p.gx)
	for o, g := range grad {
		p.gx[p.argmax[s][o]] += g
	}
	return p.gx
}
