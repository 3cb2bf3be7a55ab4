package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	tests := []struct {
		name string
		call func() error
		want string
	}{
		{
			name: "bad dataset",
			call: func() error {
				return run(io.Discard, "imagenet", "tiny", "fab", "none", 0, 10, 5, 0, 0, 1, 0, 0, 0, 0, "", false, "", 0, 0, 0, 0)
			},
			want: "unknown dataset",
		},
		{
			name: "bad strategy",
			call: func() error {
				return run(io.Discard, "femnist", "tiny", "topsecret", "none", 0, 10, 5, 0, 0, 1, 0, 0, 0, 0, "", false, "", 0, 0, 0, 0)
			},
			want: "unknown strategy",
		},
		{
			name: "bad controller",
			call: func() error {
				return run(io.Discard, "femnist", "tiny", "fab", "oracle", 0, 10, 5, 0, 0, 1, 0, 0, 0, 0, "", false, "", 0, 0, 0, 0)
			},
			want: "unknown adaptive controller",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.call()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want mention of %q", err, tt.want)
			}
		})
	}
}

func TestRunEmitsCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	// A tiny run through every strategy keeps the CLI paths covered; the
	// worker pool is exercised through the -workers value.
	for _, strat := range []string{"fab", "fub", "uni", "periodic", "sendall", "fedavg"} {
		if err := run(io.Discard, "femnist", "tiny", strat, "none", 20, 10, 5, 0, 0, 1, 0, 2, 0, 0, "", false, "", 0, 0, 0, 0); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
	}
	// Adaptive controllers over the CLI.
	for _, ctrl := range []string{"alg2", "alg3", "value", "exp3", "bandit"} {
		if err := run(io.Discard, "cifar", "tiny", "fab", ctrl, 0, 10, 5, 0, 0, 1, 0, 2, 0, 0, "", false, "", 0, 0, 0, 0); err != nil {
			t.Fatalf("%s: %v", ctrl, err)
		}
	}
	// Quantized uploads over the CLI.
	if err := run(io.Discard, "femnist", "tiny", "fab", "none", 20, 10, 5, 0, 0, 1, 0, 0, 8, 0, "", false, "", 0, 0, 0, 0); err != nil {
		t.Fatalf("quantbits=8: %v", err)
	}
}

// TestRunDurableSim is the CLI face of the engine WAL: -wal-dir must
// not move a byte of the CSV, a halted run must resume to the same
// bytes (exercised through the library's HaltAfter in internal/fl; the
// CLI covers the cold resume of a completed prefix here by re-running
// with -resume after the log exists), and the self-randomizing
// controllers must be refused up front.
func TestRunDurableSim(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	var plain, durable, resumed strings.Builder
	if err := run(&plain, "femnist", "tiny", "fab", "alg3", 20, 10, 6, 0, 0, 1, 0, 0, 0, 0, "", false, "", 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := run(&durable, "femnist", "tiny", "fab", "alg3", 20, 10, 6, 0, 0, 1, 0, 0, 0, 0, dir, false, "", 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if plain.String() != durable.String() {
		t.Fatalf("-wal-dir moved the CSV:\n--- plain ---\n%s--- durable ---\n%s", plain.String(), durable.String())
	}
	// Resuming a run whose log is already complete replays it to the
	// same bytes without recomputing.
	if err := run(&resumed, "femnist", "tiny", "fab", "alg3", 20, 10, 6, 0, 0, 1, 0, 0, 0, 0, dir, true, "", 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if plain.String() != resumed.String() {
		t.Fatalf("-resume moved the CSV:\n--- plain ---\n%s--- resumed ---\n%s", plain.String(), resumed.String())
	}
	err := run(io.Discard, "femnist", "tiny", "fab", "exp3", 20, 10, 6, 0, 0, 1, 0, 0, 0, 0, t.TempDir(), false, "", 0, 0, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "self-randomizing") {
		t.Fatalf("exp3 with -wal-dir: %v", err)
	}
}

// TestRunStalenessSim is the CLI face of the bounded-staleness
// window: -staleness W deepens the engine's ring of in-flight rounds,
// whose trajectory is deterministic (two windowed runs are
// byte-identical) but diverges from the lockstep run — the pipelined
// clients compute against a model up to W rounds old, so a moved CSV
// is the proof the window actually reached the engine; -cohort 4
// -staleness 1 covers the sampled roster under a window.
func TestRunStalenessSim(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	var sync, win1, win2 strings.Builder
	if err := run(&sync, "femnist", "tiny", "fab", "none", 20, 10, 5, 0, 0, 1, 0, 0, 0, 0, "", false, "", 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, out := range []*strings.Builder{&win1, &win2} {
		if err := run(out, "femnist", "tiny", "fab", "none", 20, 10, 5, 0, 0, 1, 0, 0, 0, 2, "", false, "", 0, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if win1.String() != win2.String() {
		t.Fatalf("windowed sim is nondeterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", win1.String(), win2.String())
	}
	if win1.String() == sync.String() {
		t.Fatal("-staleness 2 CSV identical to the synchronous CSV — the window did not reach the engine")
	}

	cohortRun := func(staleness int) string {
		var b strings.Builder
		if err := run(&b, "femnist", "tiny", "fab", "none", 20, 10, 5, 0, 0, 1, 0, 0, 0, staleness, "", false, "", 0, 4, 0, 0); err != nil {
			t.Fatalf("-cohort 4 -staleness %d: %v", staleness, err)
		}
		return b.String()
	}
	if a, b := cohortRun(1), cohortRun(1); a != b {
		t.Fatalf("-cohort 4 -staleness 1 is nondeterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if cohortRun(1) == cohortRun(0) {
		t.Fatal("-cohort 4 -staleness 1 CSV identical to -cohort 4 alone — the window did not reach the sampled engine")
	}
}

func TestCSVFloat(t *testing.T) {
	if got := csvFloat(1.5); got != "1.500000" {
		t.Fatalf("csvFloat(1.5) = %q", got)
	}
	nan := 0.0
	nan /= nan
	if got := csvFloat(nan); got != "" {
		t.Fatalf("csvFloat(NaN) = %q", got)
	}
}

func TestWithProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	ran := false
	if err := withProfiles(cpu, mem, func() error {
		ran = true
		// Burn a little CPU so the profile has samples to encode.
		s := 0.0
		for i := 0; i < 1_000_000; i++ {
			s += float64(i)
		}
		_ = s
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("withProfiles did not invoke fn")
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// Disabled profiles and propagated errors.
	wantErr := errors.New("boom")
	if err := withProfiles("", "", func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

// TestAdminDoesNotMoveCSV pins the observer-passivity contract at the
// CLI surface: running with -admin-addr (sim and coordinator roles)
// must emit a CSV byte-identical to the run without it.
func TestAdminDoesNotMoveCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	var plain, admin strings.Builder
	if err := run(&plain, "femnist", "tiny", "fab", "alg3", 20, 10, 6, 0, 0, 1, 3, 0, 0, 0, "", false, "", 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(&admin, "femnist", "tiny", "fab", "alg3", 20, 10, 6, 0, 0, 1, 3, 0, 0, 0, "", false, "127.0.0.1:0", 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if plain.String() != admin.String() {
		t.Fatalf("-admin-addr moved the sim CSV:\n--- plain ---\n%s--- admin ---\n%s", plain.String(), admin.String())
	}
}

// TestRunPopulationSim is the CLI face of the population tier. It pins
// three contracts: a -population/-cohort/-churn run is deterministic
// (two identical invocations emit byte-identical CSVs), -cohort equal
// to the native client count is bit-identical to the default full-
// participation run (the draw consumes no rng at full cohort), and
// -noniid moves the CSV (the re-partition actually reached the engine).
func TestRunPopulationSim(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	popRun := func(population, cohort int, churn, noniid float64) string {
		var b strings.Builder
		if err := run(&b, "femnist", "tiny", "fab", "none", 20, 10, 6, 0, 0, 1, 0, 0, 0, 0, "", false, "",
			population, cohort, churn, noniid); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := popRun(500, 4, 0.1, 0), popRun(500, 4, 0.1, 0); a != b {
		t.Fatalf("population run is not deterministic:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if full, plain := popRun(0, 6, 0, 0), popRun(0, 0, 0, 0); full != plain {
		t.Fatalf("-cohort 6 over 6 clients moved the CSV:\n--- cohort ---\n%s--- plain ---\n%s", full, plain)
	}
	if skewed, plain := popRun(0, 0, 0, 0.3), popRun(0, 0, 0, 0); skewed == plain {
		t.Fatal("-noniid 0.3 did not move the CSV (the Dirichlet re-partition never reached the engine)")
	}
}
