package fl

import (
	"math/rand"
	"slices"

	"fedsparse/internal/dataset"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// This file is Algorithm 1's participant side, written once: the engine's
// phase A (round.go) and every wire participant (internal/transport's
// runClientRounds) run a Member through a Step, and fold what the server
// consumed back out of its residual with Settle.

// ClientSeed is participant id's rng seed in a run seeded with base. A
// wire client or population member seeded this way draws exactly what
// fl.Run's client id draws.
func ClientSeed(base int64, id int) int64 { return base + 1000003*int64(id+1) }

// Member is one participant's private state. Everything else a step
// touches — the network holding the synchronized weights, the batch views,
// the top-k working memory — is shared by whoever runs the member.
type Member struct {
	Acc  []float64 // a_i, the error-feedback residual (nil in FedAvg)
	Rng  *rand.Rand
	Data *dataset.Dataset
}

// Step is one goroutine's participant step and its scratch. Nothing in
// the scratch outlives a call, so one Step serves every member its
// goroutine runs; it is not safe for concurrent use.
type Step struct {
	bits int
	xs   [][]float64 // batch views, len = the batch size
	ys   []int
	topk sparse.TopKScratch
}

// StepResult is one Run's output.
type StepResult struct {
	Pairs     sparse.Vec     // the upload, in buf's storage (or the mandate's)
	BatchLoss float64        // mean minibatch loss at the network's weights
	Scale     float64        // the b-bit grid's scale (0 when unquantized)
	H         dataset.Sample // the probe sample h, a read-only view
}

// NewStep returns a step drawing batches of batch samples and quantizing
// its uploads to bits (0 = off).
func NewStep(batch, bits int) *Step {
	return &Step{bits: bits, xs: make([][]float64, batch), ys: make([]int, batch)}
}

// batch draws m's minibatch into the step's views.
func (s *Step) batch(m *Member) ([][]float64, []int) {
	s.xs, s.ys = m.Data.BatchInto(s.xs, s.ys, m.Rng, len(s.xs))
	return s.xs, s.ys
}

// Run is member m's local step on net: the minibatch gradient added into
// the residual, the probe sample h (Section IV-E), and the upload — the
// residual at the mandated coordinates when mandated is non-nil (Pairs.Idx
// is then mandated itself), else its top-k — snapped onto the step's b-bit
// grid. The upload's own slices live in buf, which Run grows and keeps.
// m's rng gives the batch draws and then one Intn for h: that order lives
// here, and only here, which is what keeps the engine and every wire tier
// on one trajectory.
func (s *Step) Run(net *nn.Network, m *Member, mandated []int, k int, buf *sparse.Vec) StepResult {
	xs, ys := s.batch(m)
	r := StepResult{BatchLoss: net.MeanLossGrad(xs, ys)}
	tensor.AXPY(1, net.Grads(), m.Acc)
	h := m.Rng.Intn(len(xs))
	r.H = dataset.Sample{X: xs[h], Y: ys[h]}
	if mandated != nil {
		buf.Val = slices.Grow(buf.Val[:0], len(mandated))[:len(mandated)]
		for vi, j := range mandated {
			buf.Val[vi] = m.Acc[j]
		}
		r.Pairs = sparse.Vec{Idx: mandated, Val: buf.Val}
	} else {
		*buf = sparse.TopKInto(*buf, &s.topk, m.Acc, k)
		r.Pairs = *buf
	}
	if s.bits > 0 {
		r.Scale = sparse.QuantizeInPlace(r.Pairs.Val, s.bits)
	}
	return r
}

// JSet is the index set J of the last applied broadcast, as a membership
// byte map over the coordinate space: j ∈ J where in[j]&gs.InB != 0, the
// bit the server's selection marks B with (gs.AggScratch.Membership). So one
// Settle serves a wire participant's J and the engine's B alike.
// Replacing J clears the previous members' bytes and allocates nothing
// once warm.
type JSet struct {
	in      []byte
	members []int
}

// NewJSet returns an empty J over d coordinates.
func NewJSet(d int) JSet { return JSet{in: make([]byte, d)} }

// Stamp makes indices the current J.
func (s *JSet) Stamp(indices []int) {
	for _, j := range s.members {
		s.in[j] = 0
	}
	s.members = append(s.members[:0], indices...)
	for _, j := range indices {
		s.in[j] = gs.InB
	}
}

// In returns J's membership map, for Settle.
func (s *JSet) In() []byte { return s.in }

// Settle is Algorithm 1 lines 16–17: it subtracts from the residual acc
// the uploaded pairs the server consumed, those in J, which inJ holds as
// a membership map (j ∈ J where inJ[j]&gs.InB != 0). Subtracting rather
// than zeroing is identical for exact uploads (x − x = 0), and with
// quantization it keeps the quantization error accumulated — error
// feedback extends to the combined GS+quantization case.
func Settle(acc []float64, pairs sparse.Vec, inJ []byte) {
	for vi, j := range pairs.Idx {
		if inJ[j]&gs.InB != 0 {
			acc[j] -= pairs.Val[vi]
		}
	}
}
