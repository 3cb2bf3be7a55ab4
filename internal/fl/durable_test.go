package fl

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedsparse/internal/core"
	"fedsparse/internal/wal"
)

// durableConfig is smallConfig shrunk for the durability tests, with an
// adaptive controller (so controller state is genuinely exercised),
// a sampled cohort (so the engine rng stream matters), and eval cadence
// (so NaN and non-NaN metrics both round-trip the log).
func durableConfig(dir string) Config {
	cfg := smallConfig()
	cfg.Rounds = 20
	cfg.Controller = core.NewAdaptiveSignOGD(10, 32, 32, 1.5, 5, nil)
	cfg.Cohort = 5
	cfg.EvalEvery = 7
	cfg.WALDir = dir
	cfg.SnapshotEvery = 4
	return cfg
}

// statsCSV renders stats the way cmd/flsim writes its output file, so
// equality here is byte-identity of the user-visible artifact.
func statsCSV(stats []RoundEvent) string {
	var b strings.Builder
	for _, st := range stats {
		fmt.Fprintf(&b, "%d,%.6f,%d\n", st.Round, st.Loss, st.DownlinkElems)
	}
	return b.String()
}

// assertSameStats requires two runs to match bit-exactly on every field
// the Finish record carries.
func assertSameStats(t *testing.T, got, want []RoundEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rounds, want %d", len(got), len(want))
	}
	for i := range want {
		if err := sameStats(&got[i], &want[i]); err != nil {
			t.Fatalf("round %d: %v", i+1, err)
		}
	}
	if g, w := statsCSV(got), statsCSV(want); g != w {
		t.Fatalf("CSV rendering diverged:\n%s\nvs\n%s", g, w)
	}
}

// TestDurableRunMatchesPlain pins that turning the WAL on does not
// perturb the trajectory: counted rng streams must be the exact streams
// of the plain run.
func TestDurableRunMatchesPlain(t *testing.T) {
	plain := durableConfig("")
	plain.WALDir, plain.SnapshotEvery = "", 0
	ref, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameStats(t, res.Stats, ref.Stats)
}

// TestHaltResumeByteIdentical is the durability contract end to end:
// halt mid-run at every interesting point relative to the snapshot
// cadence (just after a snapshot, just before the next, and between),
// resume, and require the concatenated result — stats, CSV bytes, and
// final weights — to be bit-identical to the uninterrupted run.
func TestHaltResumeByteIdentical(t *testing.T) {
	plain := durableConfig("")
	plain.WALDir, plain.SnapshotEvery = "", 0
	ref, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, halt := range []int{3, 8, 11, 17} {
		t.Run(fmt.Sprintf("halt-after-%d", halt), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.HaltAfter = halt
			partial, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(partial.Stats) != halt {
				t.Fatalf("halted run reports %d rounds, want %d", len(partial.Stats), halt)
			}
			cfg = durableConfig(dir)
			cfg.Resume = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameStats(t, res.Stats, ref.Stats)
			final, refFinal := res.Final.Params(), ref.Final.Params()
			for j := range refFinal {
				if math.Float64bits(final[j]) != math.Float64bits(refFinal[j]) {
					t.Fatalf("resumed weights diverge at coordinate %d: %v != %v", j, final[j], refFinal[j])
				}
			}
		})
	}
}

// TestResumeTwice halts, resumes with a further halt, and resumes
// again — state carried across two generations of snapshots and logs.
func TestResumeTwice(t *testing.T) {
	plain := durableConfig("")
	plain.WALDir, plain.SnapshotEvery = "", 0
	ref, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.HaltAfter = 6
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg = durableConfig(dir)
	cfg.Resume = true
	cfg.HaltAfter = 13
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg = durableConfig(dir)
	cfg.Resume = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStats(t, res.Stats, ref.Stats)
}

// TestResumeValidation pins the refusal paths: wrong configuration,
// wrong seed (a different run id), non-resumable controller, and the
// flag-combination errors.
func TestResumeValidation(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.HaltAfter = 5
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	bad := durableConfig(dir)
	bad.Resume = true
	bad.LearningRate = 0.2
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("resume under a different configuration: %v", err)
	}

	bad = durableConfig(dir)
	bad.Resume = true
	bad.Seed = 6
	if _, err := Run(bad); err == nil {
		t.Fatal("resume under a different seed (run id) succeeded")
	}

	bad = durableConfig(t.TempDir())
	bad.Controller = core.NewEXP3(10, 32, 0, bad.Rounds, nil)
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "Resumable") {
		t.Fatalf("WAL with a non-resumable controller: %v", err)
	}

	bad = durableConfig("")
	bad.WALDir = ""
	bad.Resume = true
	if _, err := Run(bad); err == nil {
		t.Fatal("Resume without WALDir succeeded")
	}

	bad = durableConfig(t.TempDir())
	bad.RecordPerClient = true
	if _, err := Run(bad); err == nil {
		t.Fatal("WALDir with RecordPerClient succeeded")
	}

	bad = durableConfig(t.TempDir())
	bad.Resume = true
	if _, err := Run(bad); err == nil {
		t.Fatal("resume from an empty directory succeeded")
	}
}

// TestResumeRefusesDivergence corrupts one logged loss and checks the
// replay verification catches it instead of silently forking the run.
func TestResumeRefusesDivergence(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.HaltAfter = 7
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// Rewrite the log with round 6's loss perturbed (rounds 5–7 are
	// after the round-4 snapshot, so round 6 gets recomputed on resume).
	path := filepath.Join(dir, engineWALName)
	runID := wal.RunID(cfg.Seed)
	log, recs, err := wal.Open(path, runID, false)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	rs := recs[0].(*wal.RunStart)
	log, err = wal.Create(path, *rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[1:] {
		if f, ok := r.(*wal.Finish); ok && f.Round == 6 {
			f.Floats[3] += 1e-9
		}
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	cfg = durableConfig(dir)
	cfg.Resume = true
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "divergent resume at round 6") {
		t.Fatalf("tampered log resumed: %v", err)
	}
}

// TestResumeRefusesDifferentCohort: the cohort size shapes every round's
// draw, so it is part of the log's fingerprint — a run halted at a
// snapshot round must not resume under another Cohort.
func TestResumeRefusesDifferentCohort(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Cohort, cfg.HaltAfter = 3, 8
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg = durableConfig(dir)
	cfg.Cohort, cfg.Resume = 5, true
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("resume under a different Cohort: %v", err)
	}
}
