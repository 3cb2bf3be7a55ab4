package fl

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestAsyncDeterministicUnderWindow pins the W ≥ 1 contract: given the
// same seeds, two windowed runs are bit-identical at any worker count —
// with a sampled cohort drawn W rounds ahead of its seal, so the engine
// rng stream is part of what must not race.
func TestAsyncDeterministicUnderWindow(t *testing.T) {
	for _, w := range []int{1, 2} {
		mk := func(workers int) Config {
			cfg := diffConfig()
			cfg.Staleness, cfg.Cohort, cfg.Workers = w, 5, workers
			return cfg
		}
		ref, err := Run(mk(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 4, 8} {
			got, err := Run(mk(workers))
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("W=%d workers=%d", w, workers), ref, got)
		}
	}
}

// TestAsyncStaleAccounting checks the window's bookkeeping: every round
// reports the realized pipeline overlap as WindowDepth (W until the
// drain, then one less per round down to 0 at the last), and training
// still converges on W-rounds-old weights.
func TestAsyncStaleAccounting(t *testing.T) {
	for _, w := range []int{1, 2} {
		cfg := diffConfig()
		cfg.Staleness = w
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stats) != cfg.Rounds {
			t.Fatalf("W=%d: got %d rounds, want %d", w, len(res.Stats), cfg.Rounds)
		}
		for _, st := range res.Stats {
			if want := min(w, cfg.Rounds-st.Round); st.WindowDepth != want {
				t.Fatalf("W=%d round %d: WindowDepth = %d, want %d", w, st.Round, st.WindowDepth, want)
			}
		}
		first, last := res.Stats[0].Loss, res.Stats[len(res.Stats)-1].Loss
		if !(last < first) {
			t.Fatalf("W=%d: loss did not decrease under staleness: %v -> %v", w, first, last)
		}
	}
}

// TestAsyncCheckSyncHolds runs the windowed path with weight-sync
// checking on: every replica applies the same broadcasts in the same
// order even though their uploads were produced W rounds earlier.
func TestAsyncCheckSyncHolds(t *testing.T) {
	for _, w := range []int{1, 2} {
		cfg := diffConfig()
		cfg.Staleness = w
		cfg.Workers = 8
		cfg.CheckSync = true
		if _, err := Run(cfg); err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
	}
}

// TestAsyncValidation is the window's refusal table: a Staleness outside
// [0, MaxStaleness] fails with ErrStaleness — one beyond any ring the
// engine could allocate included — and a window is GS-only and not
// journaled.
func TestAsyncValidation(t *testing.T) {
	for _, w := range []int{-1, MaxStaleness + 1, 1 << 40} {
		cfg := smallConfig()
		cfg.Staleness = w
		if _, err := Run(cfg); !errors.Is(err, ErrStaleness) {
			t.Fatalf("Staleness = %d: error = %v, want ErrStaleness", w, err)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"fedavg", func(c *Config) {
			c.Strategy, c.FedAvg, c.FedAvgKEquiv, c.Staleness = nil, true, 50, 1
		}, "GS mode only"},
		{"wal", func(c *Config) { c.Staleness, c.WALDir = 1, t.TempDir() }, "WALDir"},
	} {
		cfg := smallConfig()
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
	}
	cfg := smallConfig()
	cfg.Rounds, cfg.Staleness = 2, MaxStaleness
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Staleness = MaxStaleness refused: %v", err)
	}
}

// TestAsyncMaxTimeStopsEarly mirrors the synchronous MaxTime contract
// on the pipelined path.
func TestAsyncMaxTimeStopsEarly(t *testing.T) {
	ref := diffConfig()
	full, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Stats) < 3 {
		t.Fatalf("fixture too short: %d rounds", len(full.Stats))
	}
	cut := full.Stats[2].Time

	cfg := diffConfig()
	cfg.Staleness = 1
	cfg.MaxTime = cut
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Stats); n >= len(full.Stats) {
		t.Fatalf("MaxTime did not stop the async run early: %d rounds", n)
	}
	last := res.Stats[len(res.Stats)-1]
	if last.Time < cut {
		t.Fatalf("stopped before reaching MaxTime: %v < %v", last.Time, cut)
	}
	if math.IsNaN(last.Loss) {
		t.Fatalf("final round has NaN loss")
	}
}
