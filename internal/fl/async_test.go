package fl

import (
	"math"
	"strings"
	"testing"
)

// zeroDelays is the all-on-time admission schedule: a run with it must
// equal the run with no schedule at all — the W=0 differential fixture.
func zeroDelays(int, int) int { return 0 }

// TestAsyncWindowZeroBitIdenticalToSync: at W=0 an all-zero Delays
// schedule (every upload runs the admit-or-fold step and is admitted)
// is bit-identical to no schedule, across the full differential grid —
// every GS strategy × Workers ∈ {0, 4}. Since the fold both runs share
// one round body, so this pins the admission step as a no-op; the
// absolute trajectories are pinned by TestEngineGoldenTrajectories.
func TestAsyncWindowZeroBitIdenticalToSync(t *testing.T) {
	for _, tc := range diffGrid() {
		if strings.Contains(tc.name, "fedavg") {
			continue // Staleness/Delays are GS-only (validated)
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{0, 4} {
				syncCfg := diffConfig()
				tc.mutate(&syncCfg)
				syncCfg.Workers = workers
				ref, err := Run(syncCfg)
				if err != nil {
					t.Fatal(err)
				}
				asyncCfg := diffConfig()
				tc.mutate(&asyncCfg) // fresh controller: controllers are stateful
				asyncCfg.Workers = workers
				asyncCfg.Delays = zeroDelays
				got, err := Run(asyncCfg)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, tc.name, ref, got)
			}
		})
	}
}

// TestAsyncDeterministicUnderDelays pins the W ≥ 1 contract: given the
// same seeds and the same delay schedule, two async runs are
// bit-identical — the admission decisions are part of the trajectory,
// not a race.
func TestAsyncDeterministicUnderDelays(t *testing.T) {
	mk := func(workers int) Config {
		cfg := diffConfig()
		cfg.Staleness = 1
		cfg.Delays = func(client, round int) int {
			if client == 2 && round%3 == 0 {
				return 2 // misses even the relaxed window
			}
			if client == 5 {
				return 1 // always admitted at W=1
			}
			return 0
		}
		cfg.Workers = workers
		return cfg
	}
	ref, err := Run(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		got, err := Run(mk(workers))
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "async-determinism", ref, got)
	}
}

// TestAsyncStaleAccounting checks the fold-back bookkeeping at W = 1:
// rounds where a client misses the window report its slice as stale
// with positive residual mass, on-time rounds report zero, and
// WindowDepth reflects the realized pipeline overlap (W until the
// drain, 0 at the last round).
func TestAsyncStaleAccounting(t *testing.T) {
	cfg := diffConfig()
	cfg.Staleness = 1
	cfg.Participation = 0 // all 8 clients participate every round
	cfg.Delays = func(client, round int) int {
		if client == 3 && round%2 == 0 {
			return 5
		}
		return 0
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != cfg.Rounds {
		t.Fatalf("got %d rounds, want %d", len(res.Stats), cfg.Rounds)
	}
	for _, st := range res.Stats {
		wantDepth := 1
		if st.Round == cfg.Rounds {
			wantDepth = 0
		}
		if st.WindowDepth != wantDepth {
			t.Fatalf("round %d: WindowDepth = %d, want %d", st.Round, st.WindowDepth, wantDepth)
		}
		if st.Round%2 == 0 {
			if st.StaleSlices != 1 {
				t.Fatalf("round %d: StaleSlices = %d, want 1", st.Round, st.StaleSlices)
			}
			if !(st.ResidualNorm > 0) {
				t.Fatalf("round %d: ResidualNorm = %v, want > 0", st.Round, st.ResidualNorm)
			}
		} else {
			if st.StaleSlices != 0 || st.ResidualNorm != 0 {
				t.Fatalf("round %d: stale accounting %d/%v on an on-time round",
					st.Round, st.StaleSlices, st.ResidualNorm)
			}
		}
	}
	// The folded mass re-enters via error feedback: training still
	// converges rather than silently dropping client 3's gradient.
	first, last := res.Stats[0].Loss, res.Stats[len(res.Stats)-1].Loss
	if !(last < first) {
		t.Fatalf("loss did not decrease under staleness: %v -> %v", first, last)
	}
}

// TestAsyncCheckSyncHolds runs the async path with weight-sync checking
// on: clients all apply the same broadcasts in the same order even
// though their uploads were produced W rounds earlier.
func TestAsyncCheckSyncHolds(t *testing.T) {
	cfg := diffConfig()
	cfg.Staleness = 2
	cfg.Workers = 8
	cfg.CheckSync = true
	cfg.Delays = func(client, round int) int { return (client + round) % 4 }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Staleness = -1
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "Staleness") {
		t.Fatalf("negative Staleness not rejected: %v", err)
	}

	cfg = smallConfig()
	cfg.Strategy = nil
	cfg.FedAvg = true
	cfg.FedAvgKEquiv = 50
	cfg.Staleness = 1
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "GS mode only") {
		t.Fatalf("FedAvg + Staleness not rejected: %v", err)
	}

	cfg = smallConfig()
	cfg.Staleness = 1
	cfg.WALDir = t.TempDir()
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "WALDir") {
		t.Fatalf("Staleness + WALDir not rejected: %v", err)
	}

	cfg = smallConfig()
	cfg.Delays = zeroDelays
	cfg.WALDir = t.TempDir()
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "WALDir") {
		t.Fatalf("Delays + WALDir not rejected: %v", err)
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
