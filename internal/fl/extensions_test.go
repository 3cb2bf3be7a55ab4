package fl

import (
	"math"
	"strings"
	"testing"

	"fedsparse/internal/core"
)

func TestParticipationSubsetSize(t *testing.T) {
	for _, workers := range []int{0, 4} {
		cfg := smallConfig()
		cfg.Rounds = 30
		cfg.Cohort = 4
		cfg.CheckSync = true // replicas must stay synchronized
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := 4
		for _, st := range res.Stats {
			if st.Participants != want {
				t.Fatalf("workers=%d round %d: %d participants, want %d", workers, st.Round, st.Participants, want)
			}
		}
	}
}

func TestParticipationFullByDefault(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stats {
		if st.Participants != cfg.Data.NumClients() {
			t.Fatalf("default participation should include everyone, got %d", st.Participants)
		}
	}
}

func TestParticipationStillLearns(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 80
	cfg.Cohort = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := meanLossWindow(res.Stats[:10])
	last := meanLossWindow(res.Stats[70:])
	if last >= first {
		t.Fatalf("partial participation failed to learn: %.3f -> %.3f", first, last)
	}
}

func TestParticipationRotatesClients(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 40
	cfg.Cohort = 2 // of 8 per round
	cfg.RecordPerClient = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	everParticipated := make([]bool, cfg.Data.NumClients())
	for _, st := range res.Stats {
		if len(st.PerClientUsed) != cfg.Data.NumClients() {
			t.Fatalf("PerClientUsed length %d", len(st.PerClientUsed))
		}
		active := 0
		for ci, used := range st.PerClientUsed {
			if used > 0 {
				everParticipated[ci] = true
				active++
			}
		}
		if active > 2 {
			t.Fatalf("round %d: %d active clients, cap is 2", st.Round, active)
		}
	}
	for ci, ever := range everParticipated {
		if !ever {
			t.Fatalf("client %d never selected over 40 rounds at a cohort of 2", ci)
		}
	}
}

func TestQuantizationStillLearnsAndStaysSynchronized(t *testing.T) {
	for _, workers := range []int{0, 4} {
		cfg := smallConfig()
		cfg.Rounds = 80
		cfg.QuantBits = 8
		cfg.CheckSync = true
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		first := meanLossWindow(res.Stats[:10])
		last := meanLossWindow(res.Stats[70:])
		if last >= first {
			t.Fatalf("workers=%d: 8-bit quantized training failed to learn: %.3f -> %.3f", workers, first, last)
		}
	}
}

func TestQuantizationReducesCommTime(t *testing.T) {
	run := func(bits int) float64 {
		cfg := smallConfig()
		cfg.Rounds = 5
		cfg.QuantBits = bits
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats[4].Time
	}
	full, quant := run(0), run(8)
	if quant >= full {
		t.Fatalf("8-bit quantization time %v not below full-precision %v", quant, full)
	}
	// Wire cost per element: 1 + 8/64 = 1.125 vs 2 → comm shrinks ~44%.
	commFull, commQuant := full-5, quant-5 // computation is 1/round
	ratio := commQuant / commFull
	if ratio < 0.5 || ratio > 0.65 {
		t.Fatalf("quantized comm ratio = %v, want ≈ 1.125/2 = 0.5625", ratio)
	}
}

func TestQuantizationValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.QuantBits = 1
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "QuantBits") {
		t.Fatalf("err = %v", err)
	}
	cfg.QuantBits = 65
	if _, err := Run(cfg); err == nil {
		t.Fatal("QuantBits=65 accepted")
	}
}

func TestQuantizationKeepsErrorFeedback(t *testing.T) {
	// With aggressive 3-bit quantization the residual accumulator must
	// retain the quantization error rather than dropping it: training
	// still converges, just slower.
	cfg := smallConfig()
	cfg.Rounds = 120
	cfg.QuantBits = 3
	cfg.Controller = core.NewFixedK(100)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := meanLossWindow(res.Stats[:10])
	last := meanLossWindow(res.Stats[110:])
	if math.IsNaN(last) || last >= first {
		t.Fatalf("3-bit quantized training diverged: %.3f -> %.3f", first, last)
	}
}

func TestAdaptiveControllerWithParticipationAndQuantization(t *testing.T) {
	// The full stack composed: Algorithm 3 + client sampling + 8-bit
	// quantization must run, stay in bounds, and keep weights in sync.
	for _, workers := range []int{0, 4} {
		cfg := smallConfig()
		cfg.Rounds = 60
		cfg.Cohort = 6
		cfg.QuantBits = 8
		cfg.CheckSync = true
		cfg.Workers = workers
		d := cfg.Model().D()
		cfg.Controller = core.NewAdaptiveSignOGD(10, float64(d), float64(d), 1.5, 10, nil)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, st := range res.Stats {
			if st.K < 1 || st.K > d {
				t.Fatalf("workers=%d: k = %d escaped [1, D]", workers, st.K)
			}
			if st.Participants != 6 {
				t.Fatalf("workers=%d: participants = %d, want 6", workers, st.Participants)
			}
		}
	}
}
