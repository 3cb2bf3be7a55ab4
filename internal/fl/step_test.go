package fl

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// stepFixture is one member with a non-zero residual, a small network
// holding the synchronized weights, and a twin of the member's rng that
// the checks advance by hand.
type stepFixture struct {
	net  *nn.Network
	m    Member
	acc0 []float64 // the residual before the step
	twin *rand.Rand
}

const stepBatch, stepK = 4, 7

func newStepFixture() *stepFixture {
	rng := rand.New(rand.NewSource(3))
	net := nn.NewMLP(6, []int{5}, 3)
	net.InitWeights(rng)
	data := &dataset.Dataset{Dim: 6, NumClasses: 3}
	for i := 0; i < 9; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		data.Samples = append(data.Samples, dataset.Sample{X: x, Y: rng.Intn(3)})
	}
	acc := make([]float64, net.D())
	for j := range acc {
		acc[j] = 0.1 * rng.NormFloat64()
	}
	return &stepFixture{
		net:  net,
		m:    Member{Acc: acc, Rng: rand.New(rand.NewSource(ClientSeed(3, 0))), Data: data},
		acc0: append([]float64(nil), acc...),
		twin: rand.New(rand.NewSource(ClientSeed(3, 0))),
	}
}

// replay advances the twin by the draws a step must make — one Intn per
// batch sample, then one Intn for h — and returns the batch's sample
// positions and h's position among them.
func (f *stepFixture) replay() (batch []int, h int) {
	for range stepBatch {
		batch = append(batch, f.twin.Intn(f.m.Data.Len()))
	}
	return batch, f.twin.Intn(stepBatch)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStepContract pins the participant step at its one home: what the
// engine's phase A and every wire client upload, which rng draws they
// make, and what the settle leaves in the residual.
func TestStepContract(t *testing.T) {
	for _, row := range []struct {
		name  string
		check func(t *testing.T, f *stepFixture)
	}{
		{"top-k is TopK of the residual after the add", func(t *testing.T, f *stepFixture) {
			out := NewStep(stepBatch, 0).Run(f.net, &f.m, nil, stepK, &sparse.Vec{})
			want := sparse.TopK(f.m.Acc, stepK)
			if !slices.Equal(out.Pairs.Idx, want.Idx) || !sameBits(out.Pairs.Val, want.Val) || out.Scale != 0 {
				t.Fatalf("upload %v (scale %v), want %v", out.Pairs, out.Scale, want)
			}
			// The residual after the add is acc0 + ∇ of the twin's batch.
			batch, _ := f.replay()
			ref := nn.NewMLP(6, []int{5}, 3)
			ref.SetParams(f.net.Params())
			xs, ys := make([][]float64, stepBatch), make([]int, stepBatch)
			for i, s := range batch {
				xs[i], ys[i] = f.m.Data.Samples[s].X, f.m.Data.Samples[s].Y
			}
			loss := ref.MeanLossGrad(xs, ys)
			tensor.AXPY(1, ref.Grads(), f.acc0)
			if !sameBits(f.m.Acc, f.acc0) || math.Float64bits(loss) != math.Float64bits(out.BatchLoss) {
				t.Fatalf("residual or batch loss (%v, want %v) is not the twin batch's gradient added in", out.BatchLoss, loss)
			}
		}},
		{"mandated copies the residual in mandate order", func(t *testing.T, f *stepFixture) {
			mandated, buf := []int{9, 2, 17, 0}, &sparse.Vec{}
			out := NewStep(stepBatch, 0).Run(f.net, &f.m, mandated, stepK, buf)
			if &out.Pairs.Idx[0] != &mandated[0] || len(out.Pairs.Idx) != len(mandated) || buf.Idx != nil {
				t.Fatalf("mandated upload indices %v do not alias the mandate %v, or the buffer took it", out.Pairs.Idx, mandated)
			}
			for vi, j := range mandated {
				if math.Float64bits(out.Pairs.Val[vi]) != math.Float64bits(f.m.Acc[j]) {
					t.Fatalf("value %d = %v, want residual[%d] = %v", vi, out.Pairs.Val[vi], j, f.m.Acc[j])
				}
			}
		}},
		{"quantized returns QuantizeInPlace's scale, values on its grid", func(t *testing.T, f *stepFixture) {
			const bits = 4
			out := NewStep(stepBatch, bits).Run(f.net, &f.m, nil, stepK, &sparse.Vec{})
			want := sparse.TopK(f.m.Acc, stepK)
			scale := sparse.QuantizeInPlace(want.Val, bits)
			if scale == 0 || math.Float64bits(out.Scale) != math.Float64bits(scale) || !sameBits(out.Pairs.Val, want.Val) {
				t.Fatalf("quantized upload %v at scale %v, want %v at scale %v", out.Pairs.Val, out.Scale, want.Val, scale)
			}
			for _, v := range out.Pairs.Val {
				snapped := []float64{v}
				sparse.QuantizeToScale(snapped, bits, out.Scale)
				if snapped[0] != v {
					t.Fatalf("value %v is off the %d-bit grid of scale %v", v, bits, out.Scale)
				}
			}
		}},
		{"h is the sample drawn right after the batch", func(t *testing.T, f *stepFixture) {
			out := NewStep(stepBatch, 0).Run(f.net, &f.m, nil, stepK, &sparse.Vec{})
			batch, h := f.replay()
			s := f.m.Data.Samples[batch[h]]
			if &out.H.X[0] != &s.X[0] || out.H.Y != s.Y {
				t.Fatalf("h is not batch sample %d (dataset sample %d)", h, batch[h])
			}
		}},
		{"consumes the batch draws plus one Intn", func(t *testing.T, f *stepFixture) {
			NewStep(stepBatch, 0).Run(f.net, &f.m, nil, stepK, &sparse.Vec{})
			f.replay()
			if a, b := f.m.Rng.Int63(), f.twin.Int63(); a != b {
				t.Fatalf("member rng diverged from its hand-advanced twin (%d vs %d)", a, b)
			}
		}},
		{"settle subtracts J members only and keeps the quantization error", func(t *testing.T, f *stepFixture) {
			out := NewStep(stepBatch, 4).Run(f.net, &f.m, nil, stepK, &sparse.Vec{})
			before := append([]float64(nil), f.m.Acc...)
			j := NewJSet(f.net.D())
			inJ := out.Pairs.Idx[:stepK-2] // two uploaded coordinates miss J
			j.Stamp(inJ)
			Settle(f.m.Acc, out.Pairs, j.In())
			kept := 0
			for vi, c := range out.Pairs.Idx {
				want := before[c]
				if vi < len(inJ) {
					want -= out.Pairs.Val[vi]
				}
				if math.Float64bits(f.m.Acc[c]) != math.Float64bits(want) {
					t.Fatalf("coordinate %d settled to %v, want %v", c, f.m.Acc[c], want)
				}
				if vi < len(inJ) && f.m.Acc[c] != 0 {
					kept++
				}
				f.m.Acc[c] = before[c]
			}
			if !sameBits(f.m.Acc, before) {
				t.Fatal("settle touched a coordinate outside the upload")
			}
			if kept == 0 {
				t.Fatal("no quantization error stayed in the residual")
			}
		}},
		{"a warm Run allocates nothing", func(t *testing.T, f *stepFixture) {
			for _, mandated := range [][]int{nil, {9, 2, 17, 0}} {
				s, buf := NewStep(stepBatch, 8), &sparse.Vec{}
				s.Run(f.net, &f.m, mandated, stepK, buf)
				if n := testing.AllocsPerRun(20, func() {
					s.Run(f.net, &f.m, mandated, stepK, buf)
				}); n != 0 {
					t.Fatalf("mandated=%v: warm Run makes %v allocs/op, want 0", mandated, n)
				}
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) { row.check(t, newStepFixture()) })
	}
}

// TestJSetStamps exercises the downlink membership map the settle
// relies on: the next round's stamp clears the previous members' bytes,
// so no coordinate keeps a stale mark, and a warm stamp allocates nothing.
func TestJSetStamps(t *testing.T) {
	j := NewJSet(10)
	for round, members := range [][]int{{2, 7}, {4}, {}, {0, 9, 4, 5}} {
		j.Stamp(members)
		for c, m := range j.In() {
			if want := slices.Contains(members, c); (m&gs.InB != 0) != want || (m != 0) != want {
				t.Fatalf("round %d: coordinate %d holds %#x, want membership %v", round+1, c, m, want)
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { j.Stamp([]int{1, 3}) }); n != 0 {
		t.Fatalf("warm Stamp makes %v allocs/op, want 0", n)
	}
}

// TestTopKScratchIsPerWorker pins the ownership of the step working
// memory: the arena holds one Step (batch views and top-k scratch) per
// pool goroutine — not one per client — and sharing them between
// clients moves no bit of output, in the lockstep and in the
// bounded-staleness loop, under an adaptive controller whose varying k
// keeps re-slicing the same slabs.
func TestTopKScratchIsPerWorker(t *testing.T) {
	const nClients = 8 // smallConfig's
	for _, tc := range []struct{ workers, want int }{{0, 1}, {2, 2}, {8, 8}, {64, nClients}} {
		pool := poolSize(tc.workers, nClients)
		if ar := newRoundArena(nClients, pool, 4, 0); len(ar.steps) != tc.want {
			t.Fatalf("Workers=%d: arena holds %d steps for %d clients, want %d",
				tc.workers, len(ar.steps), nClients, tc.want)
		}
	}
	for _, staleness := range []int{0, 1} {
		run := func(workers int) *Result {
			cfg := diffConfig()
			d := cfg.Model().D()
			cfg.Controller = core.NewAdaptiveSignOGD(10, float64(d), float64(d), 1.5, 5, nil)
			cfg.Staleness = staleness
			cfg.Workers = workers
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		seq := run(0)
		for _, workers := range []int{2, 8} {
			requireBitIdentical(t, fmt.Sprintf("staleness=%d workers=%d", staleness, workers), seq, run(workers))
		}
	}
}
