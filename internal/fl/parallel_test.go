package fl

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"fedsparse/internal/core"
	"fedsparse/internal/gs"
)

// gridCase is one point of the differential grid: a config mutation whose
// parallel runs must be bit-identical to the sequential legacy path.
type gridCase struct {
	name   string
	mutate func(*Config)
}

// diffGrid spans both training-mode families (GS and FedAvg), every GS
// strategy, partial participation, quantization on/off, and an adaptive
// controller (which exercises the probe-loss path and the regret trace).
func diffGrid() []gridCase {
	return []gridCase{
		{"fab", func(c *Config) {}},
		{"fab+part+quant", func(c *Config) {
			c.Cohort = 4
			c.QuantBits = 8
		}},
		{"fab+adaptive", func(c *Config) {
			d := c.Model().D()
			c.Controller = core.NewAdaptiveSignOGD(10, float64(d), float64(d), 1.5, 5, nil)
			c.Cohort = 6
		}},
		{"fub+quant", func(c *Config) {
			c.Strategy = gs.FUBTopK{}
			c.QuantBits = 4
		}},
		{"uni+part", func(c *Config) {
			c.Strategy = gs.UniTopK{}
			c.Cohort = 4
		}},
		{"periodic", func(c *Config) { c.Strategy = gs.PeriodicK{} }},
		{"sendall+part", func(c *Config) {
			c.Strategy = gs.SendAll{}
			c.Cohort = 4
		}},
		{"fedavg", func(c *Config) {
			c.Strategy = nil
			c.Controller = nil
			c.FedAvg = true
			c.FedAvgKEquiv = 100
		}},
	}
}

// diffConfig is the shared base of the grid: short runs with every
// recording knob on, so the comparison sees eval losses, train losses,
// and per-client contribution counts too.
func diffConfig() Config {
	cfg := smallConfig()
	cfg.Rounds = 8
	cfg.EvalEvery = 4
	cfg.TrainLossEvery = 4
	cfg.RecordPerClient = true
	return cfg
}

// requireBitIdentical compares two Results field by field via the float
// bit patterns (== would treat the NaN placeholders as unequal).
func requireBitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	bits := math.Float64bits
	if len(want.Stats) != len(got.Stats) {
		t.Fatalf("%s: %d rounds vs %d", label, len(want.Stats), len(got.Stats))
	}
	for i := range want.Stats {
		a, b := want.Stats[i], got.Stats[i]
		if a.Round != b.Round || a.K != b.K || a.DownlinkElems != b.DownlinkElems ||
			a.Participants != b.Participants || a.WindowDepth != b.WindowDepth ||
			a.Population != b.Population || a.CohortSize != b.CohortSize || a.ChurnEvents != b.ChurnEvents {
			t.Fatalf("%s round %d: int fields diverged: %+v vs %+v", label, a.Round, a, b)
		}
		floats := [][2]float64{
			{a.KCont, b.KCont}, {a.RoundTime, b.RoundTime}, {a.Time, b.Time},
			{a.Loss, b.Loss}, {a.TestAcc, b.TestAcc}, {a.TestLoss, b.TestLoss},
			{a.TrainLoss, b.TrainLoss},
		}
		for fi, p := range floats {
			if bits(p[0]) != bits(p[1]) {
				t.Fatalf("%s round %d: float field %d diverged: %v vs %v", label, a.Round, fi, p[0], p[1])
			}
		}
		if len(a.PerClientUsed) != len(b.PerClientUsed) {
			t.Fatalf("%s round %d: PerClientUsed lengths %d vs %d", label, a.Round, len(a.PerClientUsed), len(b.PerClientUsed))
		}
		for ci := range a.PerClientUsed {
			if a.PerClientUsed[ci] != b.PerClientUsed[ci] {
				t.Fatalf("%s round %d: client %d contribution %d vs %d", label, a.Round, ci, a.PerClientUsed[ci], b.PerClientUsed[ci])
			}
		}
	}
	pw, pg := want.Final.Params(), got.Final.Params()
	if len(pw) != len(pg) {
		t.Fatalf("%s: final dimension %d vs %d", label, len(pw), len(pg))
	}
	for j := range pw {
		if bits(pw[j]) != bits(pg[j]) {
			t.Fatalf("%s: final weight %d diverged: %v vs %v", label, j, pw[j], pg[j])
		}
	}
}

// TestParallelBitIdenticalToSequential is the differential determinism
// guarantee: for every grid config, Run with Workers ∈ {2, 4, 8} produces
// a byte-identical Result — round stats, losses, regret trace (KCont),
// fairness counts, and final weights — to the Workers: 0 legacy path.
func TestParallelBitIdenticalToSequential(t *testing.T) {
	for _, tc := range diffGrid() {
		t.Run(tc.name, func(t *testing.T) {
			seqCfg := diffConfig()
			tc.mutate(&seqCfg)
			seqCfg.Workers = 0
			seq, err := Run(seqCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				cfg := diffConfig()
				tc.mutate(&cfg) // fresh controller: controllers are stateful
				cfg.Workers = workers
				par, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, tc.name, seq, par)
			}
		})
	}
}

// TestSealFanOutBitIdentical holds the seal's fan-outs — the sum of B and
// B′ beside the participant blocks' settles and f(w(r−1)) losses, then
// the broadcast — to the Workers: 0 run bit for bit, over every strategy,
// window depth and quantization, under the adaptive controller, so the
// probe selection is on in some rounds and off in others. The cohort of 5
// leaves some of the 8 replicas' blocks empty and splits the rest
// unevenly.
func TestSealFanOutBitIdentical(t *testing.T) {
	strategies := []gs.Strategy{&gs.FABTopK{}, gs.FUBTopK{}, gs.UniTopK{}, gs.PeriodicK{}, gs.SendAll{}}
	config := func(strat gs.Strategy, staleness, bits, workers int) Config {
		cfg := diffConfig()
		d := cfg.Model().D()
		cfg.Controller = core.NewAdaptiveSignOGD(10, float64(d), float64(d), 1.5, 5, nil)
		cfg.Strategy, cfg.Staleness, cfg.QuantBits, cfg.Workers = strat, staleness, bits, workers
		cfg.Cohort = 5
		return cfg
	}
	for _, strat := range strategies {
		for _, staleness := range []int{0, 1, 2} {
			for _, bits := range []int{0, 8} {
				name := fmt.Sprintf("%s/W=%d/q=%d", strat.Name(), staleness, bits)
				seq, err := Run(config(strat, staleness, bits, 0))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, workers := range []int{1, 2, 3, 8} {
					par, err := Run(config(strat, staleness, bits, workers))
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					requireBitIdentical(t, fmt.Sprintf("%s workers=%d", name, workers), seq, par)
				}
			}
		}
	}
}

// TestParallelEngineUnderContention drives the pool at maximal contention
// — more workers than participants, tiny rounds — in both training modes
// with sync checking on. Running the suite with -race makes this the
// engine's data-race probe.
func TestParallelEngineUnderContention(t *testing.T) {
	gsCfg := diffConfig()
	gsCfg.Rounds = 5
	gsCfg.Cohort = 3 // of 8
	gsCfg.Workers = 16
	gsCfg.CheckSync = true
	d := gsCfg.Model().D()
	gsCfg.Controller = core.NewAdaptiveSignOGD(10, float64(d), float64(d), 1.5, 3, nil)
	if _, err := Run(gsCfg); err != nil {
		t.Fatal(err)
	}

	favCfg := diffConfig()
	favCfg.Rounds = 5
	favCfg.Strategy = nil
	favCfg.Controller = nil
	favCfg.FedAvg = true
	favCfg.FedAvgKEquiv = 100
	favCfg.Workers = 16
	if _, err := Run(favCfg); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = -1
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("Workers: -1 not rejected: %v", err)
	}
}

func TestPoolSize(t *testing.T) {
	tests := []struct{ workers, n, want int }{
		{0, 10, 1}, {1, 10, 1}, {4, 10, 4}, {16, 3, 3}, {4, 0, 1}, {-2, 5, 1},
	}
	for _, tt := range tests {
		if got := poolSize(tt.workers, tt.n); got != tt.want {
			t.Fatalf("poolSize(%d, %d) = %d, want %d", tt.workers, tt.n, got, tt.want)
		}
	}
}

func TestParallelForCoversEachIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 33} {
		const n = 100
		hits := make([]int32, n)
		var badWorker atomic.Bool
		limit := poolSize(workers, n)
		parallelFor(workers, n, func(i, w int) {
			atomic.AddInt32(&hits[i], 1)
			if w < 0 || w >= limit {
				badWorker.Store(true)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
		if badWorker.Load() {
			t.Fatalf("workers=%d: worker id outside [0, %d)", workers, limit)
		}
	}
	// n = 0 must be a no-op.
	parallelFor(4, 0, func(int, int) { t.Fatal("called for n=0") })
}

func TestParallelForSequentialIsInOrder(t *testing.T) {
	var order []int
	parallelFor(0, 5, func(i, w int) {
		if w != 0 {
			t.Fatalf("sequential path used worker %d", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order %v", order)
		}
	}
}

func TestParallelForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	parallelFor(4, 50, func(i, _ int) {
		if i == 17 {
			panic("boom")
		}
	})
	t.Fatal("parallelFor returned without panicking")
}
