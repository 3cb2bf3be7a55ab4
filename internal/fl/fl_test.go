package fl

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
)

// smallConfig is a fast FEMNIST-like setup shared by the engine tests.
func smallConfig() Config {
	fed := dataset.GenerateFEMNIST(dataset.FEMNISTConfig{
		NumClients:       8,
		NumClasses:       62,
		Dim:              32,
		SamplesPerClient: 40,
		ClassesPerClient: 6,
		TestSamples:      200,
		Noise:            0.4,
		StyleShift:       0.2,
		Seed:             11,
	})
	return Config{
		Data:         fed,
		Model:        func() *nn.Network { return nn.NewMLP(32, []int{16}, 62) },
		LearningRate: 0.1,
		BatchSize:    8,
		Rounds:       60,
		Seed:         5,
		Strategy:     &gs.FABTopK{},
		Controller:   core.NewFixedK(100),
		Beta:         10,
	}
}

func TestRunDecreasesLoss(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 60 {
		t.Fatalf("got %d rounds", len(res.Stats))
	}
	first := meanLossWindow(res.Stats[:10])
	last := meanLossWindow(res.Stats[50:])
	if last >= first {
		t.Fatalf("loss did not decrease: %.3f -> %.3f", first, last)
	}
}

func meanLossWindow(stats []RoundEvent) float64 {
	var s float64
	for _, st := range stats {
		s += st.Loss
	}
	return s / float64(len(stats))
}

// TestWeightsSynchronizedAcrossStrategies checks the weight replicas
// after every round. At Workers 0 there is one replica and nothing to
// compare; at Workers 4 there are four.
func TestWeightsSynchronizedAcrossStrategies(t *testing.T) {
	rows := []struct {
		name     string
		strategy gs.Strategy
		cohort   int
	}{
		{"fab-top-k", &gs.FABTopK{}, 0},
		{"fub-top-k", gs.FUBTopK{}, 0},
		{"uni-top-k", gs.UniTopK{}, 0},
		{"periodic-k", gs.PeriodicK{}, 0},
		{"send-all", gs.SendAll{}, 0},
		// 3 participants over 4 replicas: replica 0's block is empty, and
		// it must still apply B.
		{"fab-top-k+cohort=3", &gs.FABTopK{}, 3},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, workers := range []int{0, 4} {
				cfg := smallConfig()
				cfg.Rounds = 15
				cfg.Strategy = row.strategy
				cfg.Cohort = row.cohort
				cfg.CheckSync = true
				cfg.Workers = workers
				if _, err := Run(cfg); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
			}
		})
	}
}

// TestCheckSyncNamesReplicaAndWeight: two replicas that differ in one
// weight fail the check with an error naming the replica and the
// coordinate.
func TestCheckSyncNamesReplicaAndWeight(t *testing.T) {
	a := nn.NewMLP(4, []int{3}, 2)
	a.InitWeights(rand.New(rand.NewSource(1)))
	b := nn.NewMLP(4, []int{3}, 2)
	b.SetParams(a.Params())
	if err := checkSync([]*nn.Network{a, b}); err != nil {
		t.Fatalf("identical replicas: %v", err)
	}
	b.Params()[5] += 1
	err := checkSync([]*nn.Network{a, b})
	if err == nil || !strings.Contains(err.Error(), "replica 1 desynchronized at weight 5") {
		t.Fatalf("err = %v, want replica 1 named at weight 5", err)
	}
}

func TestSyncHoldsUnderAdaptiveController(t *testing.T) {
	for _, workers := range []int{0, 4} {
		cfg := smallConfig()
		cfg.Rounds = 40
		cfg.CheckSync = true
		cfg.Workers = workers
		d := cfg.Model().D()
		cfg.Controller = core.NewAdaptiveSignOGD(0.002*float64(d), float64(d), float64(d), 1.5, 10, nil)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// k must stay within [1, D] after stochastic rounding.
		for _, st := range res.Stats {
			if st.K < 1 || st.K > d {
				t.Fatalf("workers=%d round %d: k = %d outside [1, %d]", workers, st.Round, st.K, d)
			}
		}
	}
}

// TestEngineMemoryPerClient pins what one more client costs a run, read
// as TotalAlloc growth from N = 8 to N = 40. GS keeps a residual per
// client and one model per worker; FedAvg keeps a private model per
// client and no residual. The model's layer caches are under D/4, so a
// model per client (params and grads alone are 2·D floats) cannot hide
// inside the GS budget, nor a residual beside FedAvg's model.
func TestEngineMemoryPerClient(t *testing.T) {
	model := func() *nn.Network { return nn.NewMLP(32, []int{256}, 62) }
	d := float64(model().D()) // 24 382
	measure := func(n int, fedAvg bool) (bytes float64, modelCalls int) {
		cfg := smallConfig()
		cfg.Data = dataset.GenerateFEMNIST(dataset.FEMNISTConfig{
			NumClients: n, NumClasses: 62, Dim: 32, SamplesPerClient: 40, ClassesPerClient: 6,
			TestSamples: 20, Noise: 0.4, StyleShift: 0.2, Seed: 11,
		})
		cfg.Model = func() *nn.Network { modelCalls++; return model() }
		cfg.Rounds = 1
		cfg.Workers = 2
		cfg.Controller = core.NewFixedK(16)
		if fedAvg {
			cfg.Strategy, cfg.Controller, cfg.FedAvg, cfg.FedAvgKEquiv = nil, nil, true, 16
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc), modelCalls
	}
	for _, tc := range []struct {
		name   string
		fedAvg bool
		budget float64 // bytes per added client, in units of D·8
	}{
		{"gs", false, 1.25},
		{"fedavg", true, 2.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small, smallCalls := measure(8, tc.fedAvg)
			large, largeCalls := measure(40, tc.fedAvg)
			perClient := (large - small) / 32 / (d * 8)
			t.Logf("each added client costs %.3f·D·8 bytes", perClient)
			if perClient > tc.budget {
				t.Errorf("each added client costs %.2f·D·8 bytes, budget %.2f·D·8", perClient, tc.budget)
			}
			if p := poolSize(2, 8); !tc.fedAvg && (smallCalls > p+1 || largeCalls > p+1) {
				t.Errorf("GS run called Config.Model %d times at N=8 and %d at N=40, want at most P+1 = %d",
					smallCalls, largeCalls, p+1)
			}
		})
	}
}

func TestAdaptiveControllerMovesK(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 80
	d := cfg.Model().D()
	cfg.Controller = core.NewAdaptiveSignOGD(10, float64(d), float64(d), 1.5, 10, nil)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kFirst, kLast := res.Stats[0].K, res.Stats[len(res.Stats)-1].K
	if kFirst == kLast {
		// At β=10 communication dominates; the controller should leave
		// k = D. Check it moved at some point at least.
		moved := false
		for _, st := range res.Stats {
			if st.K != kFirst {
				moved = true
				break
			}
		}
		if !moved {
			t.Fatal("adaptive controller never changed k in 80 rounds")
		}
	}
}

func TestFABFairnessRecorded(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 20
	cfg.RecordPerClient = true
	cfg.Controller = core.NewFixedK(64)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Data.NumClients()
	for _, st := range res.Stats {
		if len(st.PerClientUsed) != n {
			t.Fatalf("round %d: PerClientUsed has %d entries", st.Round, len(st.PerClientUsed))
		}
		guarantee := st.K / n
		for ci, used := range st.PerClientUsed {
			if used < guarantee {
				t.Fatalf("round %d: client %d used %d < ⌊k/N⌋ = %d", st.Round, ci, used, guarantee)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Stats {
		if a.Stats[i].Loss != b.Stats[i].Loss || a.Stats[i].K != b.Stats[i].K ||
			a.Stats[i].Time != b.Stats[i].Time {
			t.Fatalf("round %d: runs diverged with identical seeds", i+1)
		}
	}
}

func TestTimeAccountingZeroBeta(t *testing.T) {
	cfg := smallConfig()
	cfg.Beta = 0
	cfg.Rounds = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Stats {
		if math.Abs(st.Time-float64(i+1)) > 1e-9 {
			t.Fatalf("round %d: time %v, want %d (computation only)", st.Round, st.Time, i+1)
		}
	}
}

func TestTimeAccountingScalesWithK(t *testing.T) {
	run := func(k float64) float64 {
		cfg := smallConfig()
		cfg.Rounds = 5
		cfg.Controller = core.NewFixedK(k)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats[4].Time
	}
	small, large := run(20), run(500)
	if small >= large {
		t.Fatalf("k=20 time %v not below k=500 time %v", small, large)
	}
}

func TestSendAllCostsFullBeta(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 3
	cfg.Strategy = gs.SendAll{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dense payload: every round costs 1 + β.
	for _, st := range res.Stats {
		if math.Abs(st.RoundTime-(1+cfg.Beta)) > 1e-9 {
			t.Fatalf("send-all round time %v, want %v", st.RoundTime, 1+cfg.Beta)
		}
	}
}

func TestMaxTimeStopsEarly(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 1000
	cfg.MaxTime = 25
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) >= 1000 {
		t.Fatal("MaxTime did not stop the run")
	}
	last := res.Stats[len(res.Stats)-1]
	if last.Time < 25 {
		t.Fatalf("stopped at %v before reaching MaxTime", last.Time)
	}
}

func TestEvalCadence(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 20
	cfg.EvalEvery = 5
	cfg.TrainLossEvery = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stats {
		evalRound := st.Round%5 == 0 || st.Round == 1
		if evalRound && math.IsNaN(st.TestAcc) {
			t.Fatalf("round %d: missing test accuracy", st.Round)
		}
		if !evalRound && !math.IsNaN(st.TestAcc) {
			t.Fatalf("round %d: unexpected test accuracy", st.Round)
		}
		trainRound := st.Round%10 == 0 || st.Round == 1
		if trainRound && math.IsNaN(st.TrainLoss) {
			t.Fatalf("round %d: missing train loss", st.Round)
		}
	}
}

func TestFedAvgMode(t *testing.T) {
	cfg := smallConfig()
	cfg.Strategy = nil
	cfg.FedAvg = true
	cfg.FedAvgKEquiv = 100
	cfg.Rounds = 60
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.Model().D()
	period := d / (2 * cfg.FedAvgKEquiv) // ⌊2094/200⌋ = 10
	if period < 1 {
		period = 1
	}
	for _, st := range res.Stats {
		wantComm := st.Round%period == 0
		if wantComm && math.Abs(st.RoundTime-(1+cfg.Beta)) > 1e-9 {
			t.Fatalf("round %d: aggregation round time %v, want %v", st.Round, st.RoundTime, 1+cfg.Beta)
		}
		if !wantComm && math.Abs(st.RoundTime-1) > 1e-9 {
			t.Fatalf("round %d: local round time %v, want 1", st.Round, st.RoundTime)
		}
	}
	first := meanLossWindow(res.Stats[:10])
	last := meanLossWindow(res.Stats[50:])
	if last >= first {
		t.Fatalf("FedAvg loss did not decrease: %.3f -> %.3f", first, last)
	}
}

func TestThresholdControllerSwitches(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 120
	th := &core.ThresholdK{Before: 2000, After: 50, Threshold: 3.0}
	cfg.Controller = th
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if th.SwitchRound == 0 {
		t.Skip("threshold not reached in 120 rounds; config too hard")
	}
	for _, st := range res.Stats {
		if st.Round > th.SwitchRound && st.KCont != 50 {
			t.Fatalf("round %d after switch: k = %v, want 50", st.Round, st.KCont)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	base := smallConfig()
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no data", func(c *Config) { c.Data = nil }, "Data"},
		{"no model", func(c *Config) { c.Model = nil }, "Model"},
		{"bad lr", func(c *Config) { c.LearningRate = 0 }, "LearningRate"},
		{"bad batch", func(c *Config) { c.BatchSize = 0 }, "BatchSize"},
		{"bad rounds", func(c *Config) { c.Rounds = 0 }, "Rounds"},
		{"negative beta", func(c *Config) { c.Beta = -1 }, "Beta"},
		{"no mode", func(c *Config) { c.Strategy = nil }, "Strategy"},
		{"both modes", func(c *Config) { c.FedAvg = true }, "mutually exclusive"},
		{"fedavg no k", func(c *Config) { c.Strategy = nil; c.FedAvg = true }, "FedAvgKEquiv"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestDownlinkBounded(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 10
	cfg.Controller = core.NewFixedK(40)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stats {
		if st.DownlinkElems > st.K {
			t.Fatalf("round %d: FAB downlink %d > k %d", st.Round, st.DownlinkElems, st.K)
		}
	}
	// Unidirectional may exceed k.
	cfg.Strategy = gs.UniTopK{}
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exceeded := false
	for _, st := range res.Stats {
		if st.DownlinkElems > st.K {
			exceeded = true
		}
	}
	if !exceeded {
		t.Fatal("unidirectional downlink never exceeded k with 8 non-iid clients")
	}
}

func TestFinalModelUsable(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 40
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := cfg.Data.Test.XY()
	acc := res.Final.Accuracy(xs, ys)
	if math.IsNaN(acc) || acc < 0 || acc > 1 {
		t.Fatalf("final accuracy = %v", acc)
	}
}
