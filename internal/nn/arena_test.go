package nn

import (
	"math/rand"
	"runtime"
	"testing"
)

// arenaModels builds one exercised instance of each architecture with a
// warm batch, shared by the arena and allocation-regression tests.
func arenaModels(t *testing.T) []struct {
	name string
	net  *Network
	xs   [][]float64
	ys   []int
} {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	build := func(name string, net *Network, classes, batch int) struct {
		name string
		net  *Network
		xs   [][]float64
		ys   []int
	} {
		net.InitWeights(rng)
		xs := make([][]float64, batch)
		ys := make([]int, batch)
		for i := range xs {
			xs[i] = make([]float64, net.InSize())
			for j := range xs[i] {
				xs[i][j] = rng.NormFloat64()
			}
			ys[i] = rng.Intn(classes)
		}
		return struct {
			name string
			net  *Network
			xs   [][]float64
			ys   []int
		}{name, net, xs, ys}
	}
	return []struct {
		name string
		net  *Network
		xs   [][]float64
		ys   []int
	}{
		build("mlp", NewMLP(30, []int{16}, 5), 5, 8),
		build("cnn", NewCNN(1, 12, 12, 4, 3, 16, 5), 5, 8),
		build("tanh-mlp", MustNew(NewDense(10, 8), NewTanh(8), NewDense(8, 3)), 3, 8),
		// The benchmark's TCP model at a batch the dense staging cannot
		// hold at once: the mid-batch flush must not allocate either.
		build("wide-mlp-batch-11", NewMLP(64, []int{156}, 62), 62, 11),
	}
}

// TestPerSampleAllocFree is the regression pin of the network arena:
// the forward/backward hot path — minibatch gradients, single-sample
// losses, backprop, prediction — performs zero allocations per call on
// every architecture. A reintroduced per-sample make([]float64, …) in a
// layer cache fails here, and so does dense staging sized on first use
// instead of carved from the arena at construction.
func TestPerSampleAllocFree(t *testing.T) {
	for _, m := range arenaModels(t) {
		t.Run(m.name, func(t *testing.T) {
			net, xs, ys := m.net, m.xs, m.ys
			net.MeanLossGrad(xs, ys) // warm any lazy state before measuring
			checks := []struct {
				name string
				fn   func()
			}{
				{"MeanLossGrad", func() { net.MeanLossGrad(xs, ys) }},
				{"Backprop", func() { net.Backprop(xs[0], ys[0]) }},
				{"Loss", func() { net.Loss(xs[0], ys[0]) }},
				{"MeanLoss", func() { net.MeanLoss(xs, ys) }},
				{"Predict", func() { net.Predict(xs[0]) }},
			}
			for _, c := range checks {
				if n := testing.AllocsPerRun(20, c.fn); n != 0 {
					t.Fatalf("%s allocates %v/op; the hot path must stay allocation-free", c.name, n)
				}
			}
		})
	}
}

// TestFirstBatchAllocFree pins that nothing is sized lazily: a network's
// very first MeanLossGrad allocates nothing. The benchmark counts a run's
// allocations from its first round on, so state set up "on first use"
// would land in allocs_per_round for every client of every repetition.
//
// MemStats counts the whole process, so a runtime or concurrent-test
// malloc can land inside the measured call. The test therefore runs at
// GOMAXPROCS 1 and takes the minimum over three freshly built networks
// per architecture: a lazily sized cache allocates in every one of them,
// a stray malloc does not.
func TestFirstBatchAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var fewest []uint64
	for rep := 0; rep < 3; rep++ {
		for i, m := range arenaModels(t) { // built, initialised, never run
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m.net.MeanLossGrad(m.xs, m.ys)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; rep == 0 {
				fewest = append(fewest, n)
			} else {
				fewest[i] = min(fewest[i], n)
			}
		}
	}
	for i, m := range arenaModels(t) {
		if fewest[i] != 0 {
			t.Errorf("%s: first MeanLossGrad made at least %d allocations on each of 3 fresh networks, want 0", m.name, fewest[i])
		}
	}
}

// TestNetworkArenaLayout pins the arena construction itself: parameters,
// gradients, the softmax scratch, and every layer cache are views into
// one contiguous slab, fully accounted for — no float cache lives
// outside the arena.
func TestNetworkArenaLayout(t *testing.T) {
	for _, m := range arenaModels(t) {
		t.Run(m.name, func(t *testing.T) {
			net := m.net
			d := net.D()
			cache := 0
			for _, l := range net.layers {
				cache += l.CacheFloats()
			}
			if want := d + d + net.NumClasses() + cache; len(net.arena) != want {
				t.Fatalf("arena holds %d floats, want %d (2·%d params/grads + %d probs + %d caches)",
					len(net.arena), want, d, net.NumClasses(), cache)
			}
			inArena := func(name string, view []float64) {
				if len(view) == 0 {
					return
				}
				if &view[0] != &net.arena[offsetOf(t, net.arena, view)] {
					t.Fatalf("%s does not alias the arena", name)
				}
			}
			inArena("params", net.params)
			inArena("grads", net.grads)
			inArena("probs", net.probs)
			// The training surface still behaves: a forward/backward pass
			// through arena-backed caches reproduces the bound views.
			if got := net.MeanLossGrad(m.xs, m.ys); got <= 0 {
				t.Fatalf("degenerate loss %v through arena-backed caches", got)
			}
		})
	}
}

// offsetOf locates view's backing position inside arena (fails the test
// when the view does not alias it).
func offsetOf(t *testing.T, arena, view []float64) int {
	t.Helper()
	for i := range arena {
		if &arena[i] == &view[0] {
			return i
		}
	}
	t.Fatal("view does not point into the arena")
	return -1
}
