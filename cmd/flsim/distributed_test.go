package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsparse"
)

// The deployment every end-to-end role test runs.
const (
	roleDataset = "femnist"
	roleScale   = "tiny"
	roleK       = 20
	roleRounds  = 8
	roleSeed    = int64(3)
)

// runRolesEndToEnd executes the full multi-process topology in-process
// over loopback TCP — one coordinator, nShards aggregation shards, and
// every workload client, all through the same role entry points the CLI
// dispatches to — and returns the coordinator's CSV. With shards, each
// serves its own ingest listener and the clients upload straight to
// them; without, the coordinator aggregates (the routed plane).
func runRolesEndToEnd(t *testing.T, nShards, quantBits int) string {
	return runRolesDurable(t, quantBits, 0, "", nShards, "")
}

// runRolesDurable is runRolesEndToEnd with an optional -wal-dir: a
// non-empty walDir runs the durable coordinator and makes every shard
// and client speak the recovery protocol, exactly as the CLI wires
// -wal-dir / -durable.
func runRolesDurable(t *testing.T, quantBits, staleness int, walDir string, nShards int, adminAddr string) string {
	t.Helper()
	w, err := buildWorkload(roleDataset, roleScale)
	if err != nil {
		t.Fatal(err)
	}
	n := w.Data.NumClients()

	ln, err := fedsparse.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	durable := walDir != ""

	var out bytes.Buffer
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- coordinate(&out, ln, w, roleK, roleRounds, roleSeed, n, nShards, quantBits, staleness, time.Minute, walDir, false, adminAddr)
	}()

	var wg sync.WaitGroup
	shardErrs := make([]error, nShards)
	// Launch shards in reverse id order with a stagger so durable shards
	// provably enroll out of id order: the coordinator must seat them by
	// their declared -id (SeatShardPeers), never by arrival.
	for s := nShards - 1; s >= 0; s-- {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// A shard needs its own ingest listener, exactly as the CLI
			// wires it with -listen.
			shardErrs[s] = runShardRole(addr, "127.0.0.1:0", time.Minute, durable, false, s, roleSeed)
		}(s)
		time.Sleep(20 * time.Millisecond)
	}
	clientErrs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			clientErrs[id] = runClientRole(roleDataset, roleScale, id, roleSeed, 0, 0, addr, durable)
		}(id)
	}

	if err := <-coordDone; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	for s, err := range shardErrs {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	for id, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Header + one line per round.
	if len(lines) != roleRounds+1 {
		t.Fatalf("coordinator CSV has %d lines, want %d:\n%s", len(lines), roleRounds+1, out.String())
	}
	if lines[0] != "round,loss,downlink_elems" {
		t.Fatalf("bad CSV header %q", lines[0])
	}
	return out.String()
}

// TestDistributedRolesEndToEnd covers the routed topology end to end.
func TestDistributedRolesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	runRolesEndToEnd(t, 0, 0)
}

// TestDirectRolesEndToEnd covers the direct topology end to end over
// real loopback TCP — clients dialing the shard directory, shards
// serving their own ingest listeners — and requires the per-round CSV
// (losses, downlink sizes) to be byte-identical to the unsharded routed
// topology with the same seeds: moving the aggregation onto shards that
// the clients dial must not move a single bit of the trajectory.
func TestDirectRolesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	direct := runRolesEndToEnd(t, 2, 0)
	routed := runRolesEndToEnd(t, 0, 0)
	if direct != routed {
		t.Fatalf("direct CSV differs from routed CSV:\n--- direct ---\n%s--- routed ---\n%s", direct, routed)
	}
}

// TestQuantizedRolesEndToEnd is the multi-process face of on-wire
// quantization: with -quantbits 8 the direct and unsharded routed
// topologies must still emit byte-identical per-round CSVs (values
// travel packed on the binary codec's wire in both), and the trajectory
// must differ from the full-precision run — proof the width actually
// reached the protocol.
func TestQuantizedRolesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	direct := runRolesEndToEnd(t, 2, 8)
	routed := runRolesEndToEnd(t, 0, 8)
	if direct != routed {
		t.Fatalf("quantized direct CSV differs from routed CSV:\n--- direct ---\n%s--- routed ---\n%s", direct, routed)
	}
	full := runRolesEndToEnd(t, 0, 0)
	if routed == full {
		t.Fatal("quantized CSV identical to full-precision CSV — -quantbits did not reach the wire")
	}
}

// TestWindowedRolesEndToEnd is the multi-process face of bounded
// staleness over real loopback TCP: a -staleness 1 deployment is a pure
// function of the seeds — two -shards 2 runs emit byte-identical CSVs,
// equal to the -shards 1 CSV — and the window reached the wire: the
// CSV differs from the lockstep one.
func TestWindowedRolesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	first := runRolesDurable(t, 0, 1, "", 2, "")
	if again := runRolesDurable(t, 0, 1, "", 2, ""); again != first {
		t.Fatalf("-staleness 1 CSV is nondeterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", first, again)
	}
	if one := runRolesDurable(t, 0, 1, "", 1, ""); one != first {
		t.Fatalf("-shards 1 CSV differs from -shards 2 at -staleness 1:\n--- 1 shard ---\n%s--- 2 shards ---\n%s", one, first)
	}
	if lockstep := runRolesEndToEnd(t, 2, 0); lockstep == first {
		t.Fatal("-staleness 1 CSV identical to the lockstep CSV — the window did not reach the wire")
	}
}

// TestDurableRolesEndToEnd is the CLI face of the durable control
// plane: a -wal-dir coordinator with -durable shards and clients must
// complete and emit the exact CSV of the plain deployment — journaling
// and the recovery protocol change no trajectory bit — in both the
// routed (unsharded) and the direct sharded topologies.
func TestDurableRolesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	t.Run("routed", func(t *testing.T) {
		durable := runRolesDurable(t, 0, 0, t.TempDir(), 0, "")
		plain := runRolesDurable(t, 0, 0, "", 0, "")
		if durable != plain {
			t.Fatalf("durable CSV differs from plain CSV:\n--- durable ---\n%s--- plain ---\n%s", durable, plain)
		}
	})
	t.Run("direct", func(t *testing.T) {
		durable := runRolesDurable(t, 0, 0, t.TempDir(), 2, "")
		plain := runRolesDurable(t, 0, 0, "", 2, "")
		if durable != plain {
			t.Fatalf("durable CSV differs from plain CSV:\n--- durable ---\n%s--- plain ---\n%s", durable, plain)
		}
	})
}

// TestDurableRolesResumeFinishedLog restarts the coordinator role with
// -resume over the log of a finished -wal-dir run, with no peer
// connected: the resume replays every logged round through the CSV and
// has nothing left to run, so its CSV is byte-identical to the run's —
// in the routed and the direct sharded topologies.
func TestDurableRolesResumeFinishedLog(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	for _, nShards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			walDir := t.TempDir()
			run := runRolesDurable(t, 0, 0, walDir, nShards, "")
			w, err := buildWorkload(roleDataset, roleScale)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := fedsparse.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			var out bytes.Buffer
			if err := coordinate(&out, ln, w, roleK, roleRounds, roleSeed, w.Data.NumClients(), nShards, 0, 0, time.Minute, walDir, true, ""); err != nil {
				t.Fatalf("resumed coordinator: %v", err)
			}
			if out.String() != run {
				t.Fatalf("resumed CSV differs from the run's:\n--- resumed ---\n%s--- run ---\n%s", out.String(), run)
			}
		})
	}
}

// TestRoleValidation covers the role plumbing that needs no network.
func TestRoleValidation(t *testing.T) {
	if err := runShardRole("", "", 0, false, false, 0, 1); err == nil {
		t.Fatal("shard role without -connect accepted")
	}
	if err := runClientRole("femnist", "tiny", 0, 1, 0, 0, "", false); err == nil {
		t.Fatal("client role without -connect accepted")
	}
	if err := runClientRole("imagenet", "tiny", 0, 1, 0, 0, "x", false); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := runClientRole("femnist", "tiny", -3, 1, 0, 0, "127.0.0.1:1", false); err == nil {
		t.Fatal("negative client id accepted")
	}
}

// TestValidateFlags is the table over incoherent -role/-shards/
// -clients/-connect/-listen/-id combinations: each must die with a
// one-line actionable error instead of a mid-round hang.
func TestValidateFlags(t *testing.T) {
	mk := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name      string
		role      string
		set       map[string]bool
		shards    int
		staleness int
		durable   bool
		resume    bool
		walDir    string
		connect   string
		wantErr   string // "" = valid
	}{
		{"sim default", "sim", mk(), 0, 0, false, false, "", "", ""},
		{"sim sharded", "sim", mk("shards"), 4, 0, false, false, "", "", "-shards applies to -role coordinator"},
		{"sim with connect", "sim", mk("connect"), 0, 0, false, false, "", "x", "-connect"},
		{"sim with id", "sim", mk("id"), 0, 0, false, false, "", "", "-id"},
		{"sim with clients", "sim", mk("clients"), 0, 0, false, false, "", "", "-clients"},
		{"sim with listen", "sim", mk("listen"), 0, 0, false, false, "", "", "-listen"},
		{"sim durable", "sim", mk("wal-dir"), 0, 0, false, false, "d", "", ""},
		{"sim resume", "sim", mk("wal-dir", "resume"), 0, 0, false, true, "d", "", ""},
		{"sim resume without wal-dir", "sim", mk("resume"), 0, 0, false, true, "", "", "-wal-dir"},
		{"sim with durable", "sim", mk("durable"), 0, 0, true, false, "", "", "-durable"},
		{"sim with admin-addr", "sim", mk("admin-addr"), 0, 0, false, false, "", "", ""},
		{"coordinator routed", "coordinator", mk("listen"), 0, 0, false, false, "", "", ""},
		{"coordinator direct", "coordinator", mk("listen", "shards"), 2, 0, false, false, "", "", ""},
		{"coordinator with connect", "coordinator", mk("connect"), 0, 0, false, false, "", "x", "-connect"},
		{"coordinator with id", "coordinator", mk("id"), 0, 0, false, false, "", "", "-id"},
		{"coordinator with workers", "coordinator", mk("workers"), 0, 0, false, false, "", "", "-workers"},
		{"coordinator durable unsharded", "coordinator", mk("listen", "wal-dir"), 0, 0, false, false, "d", "", ""},
		{"coordinator durable direct", "coordinator", mk("listen", "shards", "wal-dir"), 2, 0, false, false, "d", "", ""},
		{"coordinator resume", "coordinator", mk("listen", "wal-dir", "resume"), 0, 0, false, true, "d", "", ""},
		{"coordinator resume without wal-dir", "coordinator", mk("listen", "resume"), 0, 0, false, true, "", "", "-wal-dir"},
		{"coordinator with durable", "coordinator", mk("listen", "durable"), 0, 0, true, false, "", "", "-durable"},
		{"coordinator with admin-addr", "coordinator", mk("listen", "admin-addr"), 0, 0, false, false, "", "", ""},
		{"shard without connect", "shard", mk(), 0, 0, false, false, "", "", "-connect"},
		{"shard with shards", "shard", mk("connect", "shards"), 2, 0, false, false, "", "x", "-shards"},
		{"shard with clients", "shard", mk("connect", "clients"), 0, 0, false, false, "", "x", "-clients"},
		{"shard with id", "shard", mk("connect", "id"), 0, 0, false, false, "", "x", "-id"},
		{"shard direct", "shard", mk("connect", "listen"), 0, 0, false, false, "", "x", ""},
		{"shard with quantbits", "shard", mk("connect", "quantbits"), 0, 0, false, false, "", "x", "-quantbits"},
		{"shard direct without listen", "shard", mk("connect"), 0, 0, false, false, "", "x", "-listen"},
		{"shard durable", "shard", mk("connect", "listen", "durable", "id"), 0, 0, true, false, "", "x", ""},
		{"shard durable fresh restart", "shard", mk("connect", "listen", "durable", "id", "resume"), 0, 0, true, true, "", "x", ""},
		{"shard durable without id", "shard", mk("connect", "listen", "durable"), 0, 0, true, false, "", "x", "-id"},
		{"shard resume without durable", "shard", mk("connect", "listen", "resume"), 0, 0, false, true, "", "x", "-durable"},
		{"shard with wal-dir", "shard", mk("connect", "wal-dir"), 0, 0, false, false, "d", "x", "-wal-dir"},
		{"shard with admin-addr", "shard", mk("connect", "admin-addr"), 0, 0, false, false, "", "x", "-admin-addr"},
		{"client", "client", mk("connect", "id"), 0, 0, false, false, "", "x", ""},
		{"client without connect", "client", mk("id"), 0, 0, false, false, "", "", "-connect"},
		{"client with shards", "client", mk("connect", "shards"), 2, 0, false, false, "", "x", "-shards"},
		{"client with clients", "client", mk("connect", "clients"), 0, 0, false, false, "", "x", "-clients"},
		{"client with quantbits", "client", mk("connect", "quantbits"), 0, 0, false, false, "", "x", "-quantbits"},
		{"client with listen", "client", mk("connect", "listen"), 0, 0, false, false, "", "x", "-listen"},
		{"client durable", "client", mk("connect", "id", "durable"), 0, 0, true, false, "", "x", ""},
		{"client with wal-dir", "client", mk("connect", "wal-dir"), 0, 0, false, false, "d", "x", "-durable"},
		{"client with resume", "client", mk("connect", "resume"), 0, 0, false, true, "", "x", "-durable"},
		{"client with admin-addr", "client", mk("connect", "admin-addr"), 0, 0, false, false, "", "x", "-admin-addr"},
		{"sim staleness", "sim", mk("staleness"), 0, 2, false, false, "", "", ""},
		{"sim negative staleness", "sim", mk("staleness"), 0, -1, false, false, "", "", "-staleness"},
		{"sim staleness with wal-dir", "sim", mk("staleness", "wal-dir"), 0, 1, false, false, "d", "", "-wal-dir"},
		{"coordinator staleness direct", "coordinator", mk("listen", "shards", "staleness"), 2, 1, false, false, "", "", ""},
		{"coordinator staleness routed", "coordinator", mk("listen", "staleness"), 0, 1, false, false, "", "", "-shards"},
		{"coordinator negative staleness", "coordinator", mk("listen", "staleness"), 0, -1, false, false, "", "", "-staleness"},
		{"coordinator staleness with wal-dir", "coordinator", mk("listen", "shards", "staleness", "wal-dir"), 2, 1, false, false, "d", "", "-wal-dir"},
		{"shard with staleness", "shard", mk("connect", "staleness"), 0, 1, false, false, "", "x", "-staleness"},
		{"client with staleness", "client", mk("connect", "staleness"), 0, 1, false, false, "", "x", "-staleness"},
		{"unknown role", "proxy", mk(), 0, 0, false, false, "", "", "unknown role"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.role, tc.set, tc.shards, tc.staleness, tc.durable, tc.resume, tc.walDir, tc.connect, 0, 0, 0, 0)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error is not one line: %q", err.Error())
			}
		})
	}
}

// TestValidateFlagsPopulation is the table over the population-tier
// flags (-population/-cohort/-churn/-noniid): sim-only, and mutually
// constrained so a misconfiguration dies before any training starts.
func TestValidateFlagsPopulation(t *testing.T) {
	mk := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name       string
		role       string
		set        map[string]bool
		staleness  int
		walDir     string
		population int
		cohort     int
		churn      float64
		noniid     float64
		wantErr    string // "" = valid
	}{
		{"cohort alone", "sim", mk("cohort"), 0, "", 0, 4, 0, 0, ""},
		{"population with cohort", "sim", mk("population", "cohort"), 0, "", 100000, 32, 0, 0, ""},
		{"churn with cohort", "sim", mk("cohort", "churn"), 0, "", 0, 2, 0.25, 0, ""},
		{"full stack", "sim", mk("population", "cohort", "churn"), 0, "", 100000, 32, 0.1, 0, ""},
		{"noniid alone", "sim", mk("noniid"), 0, "", 0, 0, 0, 0.5, ""},
		{"negative population", "sim", mk("population"), 0, "", -1, 0, 0, 0, "-population"},
		{"negative cohort", "sim", mk("cohort"), 0, "", 0, -1, 0, 0, "-cohort"},
		{"population without cohort", "sim", mk("population"), 0, "", 100000, 0, 0, 0, "-cohort"},
		{"churn over half", "sim", mk("churn"), 0, "", 0, 0, 0.6, 0, "-churn"},
		{"negative churn", "sim", mk("churn"), 0, "", 0, 0, -0.1, 0, "-churn"},
		{"zero noniid", "sim", mk("noniid"), 0, "", 0, 0, 0, 0, "-noniid"},
		{"noniid with population", "sim", mk("population", "cohort", "noniid"), 0, "", 1000, 8, 0, 0.5, "-noniid"},
		{"cohort with staleness", "sim", mk("cohort", "staleness"), 1, "", 0, 4, 0, 0, ""},
		{"churn with wal-dir", "sim", mk("churn", "wal-dir"), 0, "d", 0, 0, 0.25, 0, "-wal-dir"},
		{"coordinator with population", "coordinator", mk("listen", "population"), 0, "", 1000, 0, 0, 0, "-role sim"},
		{"shard with cohort", "shard", mk("connect", "cohort"), 0, "", 0, 4, 0, 0, "-role sim"},
		{"client with churn", "client", mk("connect", "churn"), 0, "", 0, 0, 0.1, 0, "-role sim"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			connect := ""
			if tc.role == "shard" || tc.role == "client" {
				connect = "x"
			}
			err := validateFlags(tc.role, tc.set, 0, tc.staleness, false, false, tc.walDir, connect,
				tc.population, tc.cohort, tc.churn, tc.noniid)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestChurnSchedule pins the rotating-block schedule's contract: no
// churn before round 2, a leave-only round 2, disjoint join/leave
// blocks from round 3 on, and validation of degenerate fractions.
func TestChurnSchedule(t *testing.T) {
	churn, err := churnSchedule(0.25, 8)
	if err != nil {
		t.Fatal(err)
	}
	if j, l := churn(1); j != nil || l != nil {
		t.Fatalf("round 1 churned: join %v leave %v", j, l)
	}
	if j, l := churn(2); j != nil || len(l) != 2 {
		t.Fatalf("round 2: join %v leave %v, want leave-only block of 2", j, l)
	}
	active := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true}
	for round := 2; round <= 20; round++ {
		join, leave := churn(round)
		for _, id := range join {
			if active[id] {
				t.Fatalf("round %d: %d rejoined while active", round, id)
			}
			active[id] = true
		}
		for _, id := range leave {
			if !active[id] {
				t.Fatalf("round %d: %d left while inactive", round, id)
			}
			active[id] = false
		}
		n := 0
		for _, a := range active {
			if a {
				n++
			}
		}
		if n != 6 {
			t.Fatalf("round %d: %d active, want 6 (one block of 2 out at a time)", round, n)
		}
	}
	if _, err := churnSchedule(0.01, 8); err == nil {
		t.Fatal("accepted a fraction that churns no one")
	}
	if _, err := churnSchedule(0.7, 3); err == nil {
		t.Fatal("accepted a fraction with no stable block")
	}
}

// TestAdminCoordinatorDoesNotMoveCSV is TestAdminDoesNotMoveCSV for
// the coordinator role: the admin observer must not move a byte of the
// distributed per-round CSV.
func TestAdminCoordinatorDoesNotMoveCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	withAdmin := runRolesDurable(t, 0, 0, "", 0, "127.0.0.1:0")
	plain := runRolesDurable(t, 0, 0, "", 0, "")
	if withAdmin != plain {
		t.Fatalf("-admin-addr moved the coordinator CSV:\n--- admin ---\n%s--- plain ---\n%s", withAdmin, plain)
	}
}
