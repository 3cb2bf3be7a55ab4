package fl

import (
	"strings"
	"testing"

	"fedsparse/internal/gs"
)

// TestCohortEqualsPopulationBitIdenticalToPlain: a run with Cohort = N
// samples nothing, so the roster draw consumes zero rng and the whole
// trajectory is bit-identical to the plain run's.
func TestCohortEqualsPopulationBitIdenticalToPlain(t *testing.T) {
	plain := diffConfig()
	ref, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	cfg := diffConfig()
	cfg.Cohort = cfg.Data.NumClients()
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "cohort=N", ref, got)
}

// TestChurnRestrictsDraw runs a churn schedule and checks that drawn
// participants always come from the active set, that the stats expose
// the population trajectory, and that churned runs are deterministic.
func TestChurnRestrictsDraw(t *testing.T) {
	churn := func(round int) (join, leave []int) {
		switch round {
		case 3:
			return nil, []int{0, 5} // two clients leave before round 3
		case 5:
			return []int{5}, []int{7} // 5 rejoins, 7 leaves
		}
		return nil, nil
	}
	run := func() *Result {
		cfg := diffConfig()
		cfg.Cohort = 4
		cfg.Churn = churn
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	active := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true}
	for _, st := range res.Stats {
		switch st.Round {
		case 3:
			delete(active, 0)
			delete(active, 5)
			if st.ChurnEvents != 2 {
				t.Fatalf("round 3: ChurnEvents = %d, want 2", st.ChurnEvents)
			}
		case 5:
			active[5] = true
			delete(active, 7)
			if st.ChurnEvents != 2 {
				t.Fatalf("round 5: ChurnEvents = %d, want 2", st.ChurnEvents)
			}
		default:
			if st.ChurnEvents != 0 {
				t.Fatalf("round %d: ChurnEvents = %d, want 0", st.Round, st.ChurnEvents)
			}
		}
		if st.Population != len(active) {
			t.Fatalf("round %d: Population = %d, want %d", st.Round, st.Population, len(active))
		}
		wantCohort := 4
		if len(active) < 4 {
			wantCohort = len(active)
		}
		if st.CohortSize != wantCohort || st.Participants != wantCohort {
			t.Fatalf("round %d: cohort %d participants %d, want %d", st.Round, st.CohortSize, st.Participants, wantCohort)
		}
		// RecordPerClient gives per-client contribution counts; inactive
		// clients must have contributed nothing.
		for ci, used := range st.PerClientUsed {
			if used > 0 && !active[ci] {
				t.Fatalf("round %d: inactive client %d contributed %d elements", st.Round, ci, used)
			}
		}
	}
	requireBitIdentical(t, "churn-determinism", res, run())
}

// TestDropoutFiltersCohort pins the deadline-dropout contract: dropped
// members are excluded after the draw without perturbing any rng, the
// schedule is deterministic, and an emptied round errors.
func TestDropoutFiltersCohort(t *testing.T) {
	run := func() *Result {
		cfg := diffConfig()
		cfg.Cohort = 4
		cfg.Dropout = func(client, round int) bool { return round == 4 && client%2 == 1 }
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	for _, st := range res.Stats {
		if st.CohortSize != 4 {
			t.Fatalf("round %d: CohortSize = %d, want 4", st.Round, st.CohortSize)
		}
		if st.Round != 4 && st.Participants != 4 {
			t.Fatalf("round %d: Participants = %d, want 4", st.Round, st.Participants)
		}
		if st.Round == 4 && st.Participants >= 4 {
			t.Fatalf("round 4: Participants = %d, want < 4 (odd members dropped)", st.Participants)
		}
	}
	requireBitIdentical(t, "dropout-determinism", res, run())

	all := diffConfig()
	all.Dropout = func(int, int) bool { return true }
	if _, err := Run(all); err == nil || !strings.Contains(err.Error(), "dropped out") {
		t.Fatalf("all-dropout run error = %v, want empty-cohort error", err)
	}
}

// TestPopulationValidation covers the new knobs' validation rules.
func TestPopulationValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative cohort", func(c *Config) { c.Cohort = -1 }, "Cohort must be non-negative"},
		{"cohort over population", func(c *Config) { c.Cohort = c.Data.NumClients() + 1 }, "exceeds the client population"},
		{"churn with fedavg", func(c *Config) {
			c.Strategy = nil
			c.FedAvg = true
			c.FedAvgKEquiv = 100
			c.Churn = func(int) ([]int, []int) { return nil, nil }
		}, "GS mode only"},
		{"churn with wal", func(c *Config) {
			c.WALDir = t.TempDir()
			c.Churn = func(int) ([]int, []int) { return nil, nil }
		}, "incompatible with WALDir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := diffConfig()
			tc.mutate(&cfg)
			_, err := Run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestChurnValidationErrors covers the strict churn-schedule checks.
func TestChurnValidationErrors(t *testing.T) {
	cases := []struct {
		name  string
		churn func(int) ([]int, []int)
		want  string
	}{
		{"join active", func(round int) ([]int, []int) {
			if round == 2 {
				return []int{0}, nil
			}
			return nil, nil
		}, "already active"},
		{"leave inactive", func(round int) ([]int, []int) {
			switch round {
			case 2:
				return nil, []int{0}
			case 3:
				return nil, []int{0}
			}
			return nil, nil
		}, "not active"},
		{"out of range", func(round int) ([]int, []int) {
			if round == 2 {
				return nil, []int{99}
			}
			return nil, nil
		}, "out-of-range"},
		{"emptied", func(round int) ([]int, []int) {
			if round == 2 {
				return nil, []int{0, 1, 2, 3, 4, 5, 6, 7}
			}
			return nil, nil
		}, "may not be emptied"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := diffConfig()
			cfg.Churn = tc.churn
			_, err := Run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestPopulationComposesWithWindow covers the combination the single
// round pipeline makes legal: a sampled cohort under churn and deadline
// dropouts, drawn in phase A, with a bounded-staleness window between
// the draw and the seal. The run is bit-identical across worker
// counts, keeps every client's weights synchronized, and publishes the
// population fields and the window fields on the same RoundEvent.
func TestPopulationComposesWithWindow(t *testing.T) {
	mk := func(workers int) Config {
		cfg := diffConfig()
		cfg.Cohort = 3
		cfg.Churn = goldenChurn
		cfg.Dropout = func(client, round int) bool { return round == 4 && client%2 == 1 }
		cfg.Staleness = 1
		cfg.CheckSync = true
		cfg.Workers = workers
		return cfg
	}
	ref, err := Run(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "cohort+churn+dropout+window", ref, got)

	var sawChurn, sawDropout bool
	for _, st := range ref.Stats {
		wantPop := 8
		switch {
		case st.Round >= 5:
			wantPop = 6 // 0 and 7 out, 5 back
		case st.Round >= 3:
			wantPop = 6 // 0 and 5 out
		}
		if st.Population != wantPop || st.CohortSize != 3 {
			t.Fatalf("round %d: population %d cohort %d, want %d and 3", st.Round, st.Population, st.CohortSize, wantPop)
		}
		wantDepth := 1
		if st.Round == len(ref.Stats) {
			wantDepth = 0
		}
		if st.WindowDepth != wantDepth {
			t.Fatalf("round %d: WindowDepth = %d, want %d", st.Round, st.WindowDepth, wantDepth)
		}
		sawChurn = sawChurn || st.ChurnEvents > 0 && st.WindowDepth > 0
		sawDropout = sawDropout || st.Participants < st.CohortSize
	}
	if !sawChurn || !sawDropout {
		t.Fatalf("no round carried churn with a window (%v), a dropout (%v)", sawChurn, sawDropout)
	}
}

// TestScheduleKnobsLeaveParticipationDrawAlone: Churn and Dropout are
// documented to consume no rng, so schedules that never fire must not
// move a Cohort run, sampled or full. Periodic-k's mandated draw
// exposes the rng stream.
func TestScheduleKnobsLeaveParticipationDrawAlone(t *testing.T) {
	for _, cohort := range []int{4, 7, 8} {
		mk := func() Config {
			cfg := diffConfig()
			cfg.Strategy = gs.PeriodicK{}
			cfg.Cohort = cohort
			return cfg
		}
		ref, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		cfg := mk()
		cfg.Churn = func(int) ([]int, []int) { return nil, nil }
		cfg.Dropout = func(int, int) bool { return false }
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "idle schedules", ref, got)
	}
}
