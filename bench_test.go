// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section V), one benchmark per figure, plus the theoretical
// regret validation (Theorems 1–2) and the design-choice ablations. Each
// benchmark prints the figure's series and shape tables once, so `go test
// -bench=. -benchmem | tee bench_output.txt` captures the reproduced
// evaluation.
//
// Absolute numbers differ from the paper (synthetic data, scaled-down D,
// CPU instead of the authors' testbed); the shape — who wins, by what
// rough factor, where crossovers fall — is what these benches reproduce.
package fedsparse

import (
	"fmt"
	"math"
	"testing"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/experiments"
	"fedsparse/internal/metrics"
	"fedsparse/internal/nn"
)

// benchScale keeps benchmark runtime manageable on small CPU counts while
// preserving every figure's structure.
const benchScale = experiments.ScaleSmall

// runFigure executes the figure once per benchmark iteration, printing
// the rendered result on the first iteration.
func runFigure(b *testing.B, run func() (*experiments.FigureResult, error)) *experiments.FigureResult {
	b.Helper()
	var last *experiments.FigureResult
	for i := 0; i < b.N; i++ {
		fig, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(fig.Render())
		}
		last = fig
	}
	return last
}

// BenchmarkFig1Assumption1 regenerates Fig. 1: train at different k until
// the loss hits ψ, switch to a common k, and verify the post-switch
// trajectories coincide.
func BenchmarkFig1Assumption1(b *testing.B) {
	w := experiments.NewFEMNIST(benchScale)
	fig := runFigure(b, func() (*experiments.FigureResult, error) {
		return experiments.Fig1(w, experiments.Fig1Options{})
	})
	// Headline: worst post-switch deviation from the reference curve.
	worst := 0.0
	for _, row := range fig.Tables[0].Rows {
		var dev float64
		if _, err := fmt.Sscan(row[2], &dev); err == nil && dev > worst {
			worst = dev
		}
	}
	b.ReportMetric(worst, "max-post-switch-dev")
}

// BenchmarkFig4GSMethods regenerates Fig. 4: the six GS methods at equal
// time budget, plus the per-client contribution CDF.
func BenchmarkFig4GSMethods(b *testing.B) {
	w := experiments.NewFEMNIST(benchScale)
	fig := runFigure(b, func() (*experiments.FigureResult, error) {
		return experiments.Fig4(w, experiments.Fig4Options{})
	})
	report := func(name, unit string) {
		s := fig.Series["loss@"+name].MovingAverage(25)
		if s.Len() > 0 {
			_, y := s.Last()
			b.ReportMetric(y, unit)
		}
	}
	report("fab-top-k", "fab-final-loss")
	report("fedavg", "fedavg-final-loss")
}

// BenchmarkFig5OnlineMethods regenerates Fig. 5: Algorithm 3 against
// value-based descent, EXP3, and the continuous bandit.
func BenchmarkFig5OnlineMethods(b *testing.B) {
	w := experiments.NewFEMNIST(benchScale)
	fig := runFigure(b, func() (*experiments.FigureResult, error) {
		return experiments.Fig5(w, experiments.Fig5Options{})
	})
	s := fig.Series["loss@proposed"].MovingAverage(25)
	if s.Len() > 0 {
		_, y := s.Last()
		b.ReportMetric(y, "proposed-final-loss")
	}
}

// BenchmarkFig6Alg2vsAlg3 regenerates Fig. 6: the shrinking-interval
// extension against plain sign-OGD at communication time 100.
func BenchmarkFig6Alg2vsAlg3(b *testing.B) {
	w := experiments.NewFEMNIST(benchScale)
	fig := runFigure(b, func() (*experiments.FigureResult, error) {
		return experiments.Fig6(w, experiments.Fig6Options{})
	})
	std := func(name string) float64 {
		ks := fig.Series["k@"+name]
		return metrics.StdDev(ks.Y[len(ks.Y)/2:])
	}
	if s2 := std("alg2"); s2 > 0 {
		b.ReportMetric(std("alg3")/s2, "k-std-ratio-alg3/alg2")
	}
}

// BenchmarkFig7FEMNISTSweep regenerates Fig. 7: learned k sequences at
// four communication times, cross-applied (FEMNIST-like data).
func BenchmarkFig7FEMNISTSweep(b *testing.B) {
	w := experiments.NewFEMNIST(benchScale)
	fig := runFigure(b, func() (*experiments.FigureResult, error) {
		return experiments.Fig7(w, experiments.SweepOptions{})
	})
	reportKMonotonicity(b, fig)
}

// BenchmarkFig8CIFARSweep regenerates Fig. 8: the same grid on the
// one-class-per-client CIFAR-like data.
func BenchmarkFig8CIFARSweep(b *testing.B) {
	w := experiments.NewCIFAR(benchScale)
	fig := runFigure(b, func() (*experiments.FigureResult, error) {
		return experiments.Fig8(w, experiments.SweepOptions{})
	})
	reportKMonotonicity(b, fig)
}

// reportKMonotonicity reports mean-k(smallest β)/mean-k(largest β): > 1
// confirms the paper's "larger k for cheaper communication".
func reportKMonotonicity(b *testing.B, fig *experiments.FigureResult) {
	b.Helper()
	kTable := fig.Tables[len(fig.Tables)-1]
	if len(kTable.Rows) < 2 {
		return
	}
	var kLow, kHigh float64
	fmt.Sscan(kTable.Rows[0][1], &kLow)
	fmt.Sscan(kTable.Rows[len(kTable.Rows)-1][1], &kHigh)
	if kHigh > 0 {
		b.ReportMetric(kLow/kHigh, "k-ratio-cheap/dear-comm")
	}
}

// benchGSConfig builds a synthetic FAB-top-k run for the engine-scaling
// benchmarks: an MLP of ≈ dTarget parameters over n clients, k = D/100
// (the paper's k = 1000 at D ≈ 4×10⁵ sparsity ratio).
func benchGSConfig(dTarget, n, rounds, workers int) Config {
	const inDim = 64
	hidden := (dTarget - 10) / (inDim + 1 + 10)
	fed := dataset.GenerateFEMNIST(dataset.FEMNISTConfig{
		NumClients:       n,
		NumClasses:       10,
		Dim:              inDim,
		SamplesPerClient: 16,
		ClassesPerClient: 4,
		TestSamples:      10,
		Noise:            0.4,
		StyleShift:       0.2,
		Seed:             9,
	})
	model := func() *nn.Network { return nn.NewMLP(inDim, []int{hidden}, 10) }
	return Config{
		Data:         fed,
		Model:        model,
		LearningRate: 0.1,
		BatchSize:    4,
		Rounds:       rounds,
		Seed:         1,
		Strategy:     &FABTopK{},
		Controller:   NewFixedK(float64(model().D() / 100)),
		Beta:         10,
		Workers:      workers,
	}
}

// BenchmarkRunGSParallel measures the parallel round engine against the
// sequential legacy path (workers = 0) on the d ∈ {10⁴, 10⁵} ×
// N ∈ {10, 100} grid BENCH_fl.json tracks. The reported ns/round metric
// divides total Run time by round count, so it includes per-run client
// setup amortized over the rounds; speedup ratios across worker counts
// therefore slightly understate the pure per-round gain. Results are
// bit-identical across the workers axis (see internal/fl's differential
// tests), so every variant does identical numerical work.
func BenchmarkRunGSParallel(b *testing.B) {
	for _, grid := range []struct{ d, n int }{
		{10_000, 10}, {10_000, 100}, {100_000, 10}, {100_000, 100},
	} {
		const rounds = 3
		for _, workers := range []int{0, 2, 4, 8} {
			name := fmt.Sprintf("d=%d/N=%d/workers=%d", grid.d, grid.n, workers)
			b.Run(name, func(b *testing.B) {
				cfg := benchGSConfig(grid.d, grid.n, rounds, workers)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Stats) != rounds {
						b.Fatalf("got %d rounds", len(res.Stats))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
			})
		}
	}
}

// BenchmarkRegretSynthetic validates Theorems 1–2 at benchmark scale:
// Algorithm 2's measured regret against the G·H·B·√(2M) bound, with exact
// and noisy derivative signs.
func BenchmarkRegretSynthetic(b *testing.B) {
	const m = 20000
	for i := 0; i < b.N; i++ {
		env := core.NewSyntheticCostEnv(200, 1)
		exact := core.RunSynthetic(core.NewSignOGD(1, 1001, 1001, core.ExactSign{Env: env}), env, m, 1000, 1)

		envN := core.NewSyntheticCostEnv(200, 2)
		noisy := core.NoisySign{Inner: core.ExactSign{Env: envN}, FlipProb: 0.2, Rng: newBenchRand(3)}
		noisyRes := core.RunSynthetic(core.NewSignOGD(1, 1001, 1001, noisy), envN, m, 1000, noisy.H())

		if i == 0 {
			t := metrics.Table{
				Title:   "Theorems 1-2: regret vs bound (M=20000, B=1000)",
				Headers: []string{"estimator", "regret", "bound", "ratio"},
			}
			t.AddRow("exact sign (Thm 1)", metrics.F(exact.Regret), metrics.F(exact.Bound), metrics.F(exact.Regret/exact.Bound))
			t.AddRow("noisy sign p=0.2 (Thm 2)", metrics.F(noisyRes.Regret), metrics.F(noisyRes.Bound), metrics.F(noisyRes.Regret/noisyRes.Bound))
			fmt.Println(t.Render())
			b.ReportMetric(exact.Regret/exact.Bound, "regret/bound")
		}
		if exact.Regret > exact.Bound {
			b.Fatalf("Theorem 1 violated: regret %v > bound %v", exact.Regret, exact.Bound)
		}
	}
}

// BenchmarkSignVsValueOGD is the update-rule ablation: sign-based vs
// value-based updates on identical synthetic costs. The sign update's
// regret should be dramatically lower because the raw derivative is tiny
// (order β/D) and barely moves k.
func BenchmarkSignVsValueOGD(b *testing.B) {
	const m = 5000
	for i := 0; i < b.N; i++ {
		envA := core.NewSyntheticCostEnv(200, 4)
		sign := core.RunSynthetic(core.NewSignOGD(1, 1001, 1001, core.ExactSign{Env: envA}), envA, m, 1000, 1)

		envB := core.NewSyntheticCostEnv(200, 4)
		value := core.RunSynthetic(core.NewValueOGD(1, 1001, 1001), envB, m, 1000, 1)

		if i == 0 {
			t := metrics.Table{
				Title:   "ablation: sign-based (Alg 2) vs value-based updates (M=5000)",
				Headers: []string{"update rule", "regret"},
			}
			t.AddRow("sign(derivative)", metrics.F(sign.Regret))
			t.AddRow("raw derivative", metrics.F(value.Regret))
			fmt.Println(t.Render())
			if value.Regret > 0 {
				b.ReportMetric(sign.Regret/value.Regret, "regret-ratio-sign/value")
			}
		}
		if math.IsNaN(sign.Regret) || math.IsNaN(value.Regret) {
			b.Fatal("regret is NaN")
		}
	}
}
