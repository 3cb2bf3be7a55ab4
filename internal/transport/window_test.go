package transport

// Tests for the bounded-staleness window on the wire. The window is a
// pipeline depth on the lockstep loops, not a separate tier: a client
// uploads round m before it receives round m−W, and a shard answers
// that fetch only after sealing round m. Nothing is ever late, so a
// W-deep run is the fl.Run twin with the same Staleness bit for bit on
// either plane (TestSameSeedSameBytes's windowed rows). What this file
// pins around that: a straggler paces the fleet without moving a bit,
// the fl.MaxStaleness cap cannot deadlock over TCP, and every order
// violation on a shard link fails by name instead of wedging a barrier.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
)

// requireClean fails unless the coordinator, every client and every
// shard finished without error.
func (h *directHarness) requireClean(t testing.TB) {
	t.Helper()
	if h.srvErr != nil {
		t.Fatalf("server: %v", h.srvErr)
	}
	for id, err := range h.cliErrs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	for s, err := range h.shardErr {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
}

// TestWindowedDirectCompletes runs the direct plane W rounds deep at
// every window depth x shard count x quantization of the matrix's
// windowed rows: every role completes every round. That each such run
// equals fl.Run with the same Staleness is TestSameSeedSameBytes's
// fab/q*/all/w1 and w2 rows.
func TestWindowedDirectCompletes(t *testing.T) {
	const rounds, k = 10, 40
	for _, w := range []int{1, 2} {
		for _, nShards := range []int{1, 2} {
			for _, qb := range []int{0, 8} {
				t.Run(fmt.Sprintf("w=%d/shards=%d/q=%d", w, nShards, qb), func(t *testing.T) {
					h := runDirectHarness(t, rounds, k, nShards, ServerConfig{QuantBits: qb, Staleness: w}, nil, nil, nil, nil)
					h.requireClean(t)
					if len(h.records) != rounds {
						t.Fatalf("ran %d rounds, want %d", len(h.records), rounds)
					}
				})
			}
		}
	}
}

// The straggler scenario: 2 shards x 12 rounds at k = 20.
const stragglerRounds, stragglerK, stragglerShards = 12, 20, 2

// runStragglerAt deploys the straggler scenario at window W = staleness
// with seeded jitter (up to 4ms per operation) injected on every
// connection of client 0 — both the control plane and the data plane —
// and returns the run's wall clock alongside the harness.
func runStragglerAt(t testing.TB, staleness int) (time.Duration, *directHarness) {
	t.Helper()
	const maxDelay = 4 * time.Millisecond
	wrapCoord := func(id int, c Conn) Conn {
		if id != 0 {
			return c
		}
		return NewFaultConn(c, FaultDelay, 0, 11).WithMaxDelay(maxDelay)
	}
	wrapData := func(id, s int, c Conn) Conn {
		if id != 0 {
			return c
		}
		return NewFaultConn(c, FaultDelay, 0, int64(17+s)).WithMaxDelay(maxDelay)
	}
	start := time.Now()
	h := runDirectHarness(t, stragglerRounds, stragglerK, stragglerShards, ServerConfig{Staleness: staleness},
		wrapCoord, wrapData, nil, nil)
	return time.Since(start), h
}

// TestWindowedStragglerCompletesBitExact: a delayed client paces a
// W = 1 fleet — the ordered links are the window's credit, so nobody
// runs more than one round ahead of it — but it is never evicted and
// moves no bit: every role completes, and the records equal the
// no-fault run's.
func TestWindowedStragglerCompletesBitExact(t *testing.T) {
	_, slow := runStragglerAt(t, 1)
	slow.requireClean(t)
	fast := runDirectHarness(t, stragglerRounds, stragglerK, stragglerShards, ServerConfig{Staleness: 1}, nil, nil, nil, nil)
	fast.requireClean(t)
	if len(fast.records) != stragglerRounds {
		t.Fatalf("recorded %d rounds, want %d", len(fast.records), stragglerRounds)
	}
	requireSameTrajectory(t, slow.records, fast.records)
}

// BenchmarkStragglerWallClock tracks the straggler scenario's
// end-to-end wall clock at W = 1 (2 shards, 12 rounds, one client with
// seeded 4ms jitter): the fleet is paced by the straggler, with one
// round of slack. Tracked in BENCH_fl.json.
func BenchmarkStragglerWallClock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, h := runStragglerAt(b, 1)
		if h.srvErr != nil {
			b.Fatal(h.srvErr)
		}
	}
}

// capRun deploys engine's run over loopback TCP (newNet) at the window
// cap and requires it to finish as fl.Run does, on the routed plane and
// the direct one with two shards: once with a client per member, and
// once (the pop/ subtests) with one virtual host holding every member,
// whose downlink carries a CohortAssign as well each round.
func capRun(t *testing.T, engine fl.Config, w workload, newNet func(testing.TB) *testNet) {
	t.Helper()
	want := engineEvents(t, engine)
	everyone := make([]int, w.members)
	for i := range everyone {
		everyone[i] = i
	}
	for _, pop := range []bool{false, true} {
		cfg, err := wireConfig(engine, pop)
		if err != nil {
			t.Fatal(err)
		}
		prefix, hosts := "", [][]int(nil)
		if pop {
			prefix, hosts = "pop/", [][]int{everyone}
		}
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%sshards=%d", prefix, shards), func(t *testing.T) {
				net := newNet(t)
				defer net.teardown()
				got, err := deploy(t, net, cfg, layout{shards: shards, hosts: hosts, work: w})
				if err != nil {
					t.Fatal(err)
				}
				requireSameTrajectory(t, got, want)
			})
		}
	}
}

// TestWindowedCapOverTCP is the deadlock-freedom check for the cap: at
// W = fl.MaxStaleness, with every coordinate in every upload (k = D), a
// client or host has fl.MaxStaleness+1 rounds of full uploads (and,
// direct, a fetch) in flight on each loopback socket before anything
// answers it — and the run still completes as the fl.Run twin.
func TestWindowedCapOverTCP(t *testing.T) {
	engine := runSpec{rounds: fl.MaxStaleness + 4, staleness: fl.MaxStaleness}.config(0)
	engine.Controller = core.NewFixedK(float64(engine.Model().D()))
	capRun(t, engine, testWorkload(), tcpNet)
}

// socketBuf is the kernel buffer cappedNet sets on each end of a
// socket, each way.
const socketBuf = 128 << 10

// cappedNet is tcpNet over raw loopback sockets whose kernel buffers
// are capped at socketBuf on both ends, so a few frames fill a link.
func cappedNet(t testing.TB) *testNet {
	capped := func(c net.Conn) Conn {
		tc := c.(*net.TCPConn)
		if err := tc.SetReadBuffer(socketBuf); err != nil {
			t.Error(err)
		}
		if err := tc.SetWriteBuffer(socketBuf); err != nil {
			t.Error(err)
		}
		return NewBinConn(tc)
	}
	var mu sync.Mutex
	var lns []net.Listener
	listen := func(string) (string, func() (Conn, error)) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		lns = append(lns, ln)
		mu.Unlock()
		return ln.Addr().String(), func() (Conn, error) {
			c, err := ln.Accept()
			if err != nil {
				return nil, err
			}
			return capped(c), nil
		}
	}
	dial := func(addr string) (Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return capped(c), nil
	}
	coordAddr, coordAccept := listen("coordinator")
	hub := make(chan Conn, 256)
	go func() {
		for {
			conn, err := coordAccept()
			if err != nil {
				close(hub)
				return
			}
			hub <- conn
		}
	}()
	return &testNet{
		coordConns: hub,
		dialCoord:  func() (Conn, error) { return dial(coordAddr) },
		dialData:   dial,
		addData:    listen,
		teardown: func() {
			mu.Lock()
			defer mu.Unlock()
			for _, ln := range lns {
				ln.Close()
			}
		},
	}
}

// TestRoutedWindowOutgrowsSocketBuffers is the same over sockets whose
// buffers fl.MaxStaleness+1 uploads outgrow: a routed coordinator that
// sent a broadcast in line would wait on a client (or host) that is
// itself waiting to send it an upload. Its outboxes (plainLinks) are
// what let the run finish.
func TestRoutedWindowOutgrowsSocketBuffers(t *testing.T) {
	fed := dataset.GenerateFEMNIST(dataset.FEMNISTConfig{NumClients: 2, NumClasses: 10, Dim: 64,
		SamplesPerClient: 20, ClassesPerClient: 5, TestSamples: 10, Noise: 0.4, Seed: 11})
	model := func() *nn.Network { return nn.NewMLP(64, []int{128}, 10) }
	d := model().D()
	engine := fl.Config{Data: fed, Model: model, LearningRate: 0.1, BatchSize: 8, Rounds: fl.MaxStaleness + 2, Seed: 5,
		Strategy: &gs.FABTopK{}, Controller: core.NewFixedK(float64(d)), Staleness: fl.MaxStaleness}

	// A direction of a link holds both ends' kernel buffers (Linux
	// doubles a set size) and the reader's 64 KiB bufio (NewBinConn); a
	// client's W+1 uploads of every coordinate must outgrow that.
	up := Upload{Idx: make([]int, d), Val: make([]float64, d)}
	for j := range d {
		up.Idx[j], up.Val[j] = j, 1+float64(j)/7
	}
	frame, err := appendFrame(nil, up)
	if err != nil {
		t.Fatal(err)
	}
	if link := 2*socketBuf + 2*socketBuf + 1<<16; (fl.MaxStaleness+1)*len(frame) <= link {
		t.Fatalf("%d uploads of %d bytes fit a link that holds %d", fl.MaxStaleness+1, len(frame), link)
	}
	capRun(t, engine, workload{members: 2, data: func(member int) *dataset.Dataset { return &fed.Clients[member] },
		model: model, batch: 8}, cappedNet)
}

// TestWindowedShardRejectsMalformed covers a W-deep shard's ingest
// order: each client link must carry SliceUpload(m), SliceFetch(m−W),
// SliceUpload(m+1), … and nothing else. Client 0 runs a script, client
// 1 and the coordinator behave; every deviation — a fetch before the
// upload it must follow, an upload two rounds ahead or repeated, a
// fetch for the wrong round, forged identities, a quantization
// mismatch, a corrupt payload — must fail as a named protocol error
// (the harness returning at all proves no barrier wedges).
func TestWindowedShardRejectsMalformed(t *testing.T) {
	// Shard 0 of 2 over dim 10 owns [0, 5); two clients, one round deep.
	const rounds = 5
	assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: rounds, Weights: []float64{1, 2}, Window: 1}
	up := func(ci, round int) SliceUpload {
		return SliceUpload{ClientID: ci, Round: round, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}}
	}
	fetch := func(ci, round int) SliceFetch { return SliceFetch{ClientID: ci, Round: round} }
	// inOrder is client ci's whole run: step m sends up(m), then fetch(m−1).
	inOrder := func(ci int) []any {
		var msgs []any
		for m := 1; m <= rounds+1; m++ {
			if m <= rounds {
				msgs = append(msgs, up(ci, m))
			}
			if m > 1 {
				msgs = append(msgs, fetch(ci, m-1))
			}
		}
		return msgs
	}
	cases := []struct {
		name string
		msgs []any
		want string // "" = the run completes
	}{
		{"in-order pipeline completes", inOrder(0), ""},
		{"fetch before the upload it must follow", []any{up(0, 1), fetch(0, 1)}, "shard 0 round 2: client 0 sent transport.SliceFetch, want SliceUpload"},
		{"round beyond the admission window", []any{up(0, 1), up(0, 3)}, "shard 0 round 2: stale slice from client 0 (round 3)"},
		{"duplicate slice in the window", []any{up(0, 1), up(0, 1)}, "shard 0 round 2: stale slice from client 0 (round 1)"},
		{"round zero", []any{SliceUpload{ClientID: 0}}, "shard 0 round 1: stale slice from client 0 (round 0)"},
		{"round beyond the run", append(inOrder(0)[:9:9], up(0, rounds+1)), "shard 0 round 5: client 0 sent transport.SliceUpload, want SliceFetch"},
		{"fetch for the wrong round", []any{up(0, 1), up(0, 2), fetch(0, 2)}, "shard 0 round 1: stale fetch from client 0 (round 2)"},
		{"fetch outside the run", []any{up(0, 1), up(0, 2), fetch(0, 9)}, "shard 0 round 1: stale fetch from client 0 (round 9)"},
		{"identity forgery on upload", []any{up(1, 1)}, "shard 0 round 1: slice on client 0's connection claims client 1"},
		{"identity forgery on fetch", []any{up(0, 1), up(0, 2), fetch(1, 1)}, "shard 0 round 1: fetch on client 0's connection claims client 1"},
		{"quantization mismatch", []any{SliceUpload{ClientID: 0, Round: 1, Bits: 8, Scale: 1}}, "shard 0 round 1: client 0 slice at 8-bit quantization, run uses 0"},
		{"non-slice message", []any{Hello{ClientID: 0}}, "shard 0 round 1: client 0 sent transport.Hello, want SliceUpload"},
		{"corrupt payload caught at admission", []any{SliceUpload{ClientID: 0, Round: 1, Idx: []int{3, 3}, Val: []float64{1, 2}, Rank: []int{0, 1}}},
			"shard 0 round 1: client 0 slice: gs: duplicate index 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := directShardHarness(t, assign, nil, func(clients []Conn, coord Conn) {
				// The coordinator seals every round with an empty member
				// set until the shard exits and the harness closes it.
				go func() {
					for {
						msg, err := coord.Recv()
						if err != nil {
							return
						}
						if res, ok := msg.(ShardResult); ok {
							_ = coord.Send(RoundSeal{Round: res.Round})
						}
					}
				}()
				for _, m := range inOrder(1) {
					_ = clients[1].Send(m)
				}
				for _, m := range tc.msgs {
					_ = clients[0].Send(m)
				}
			})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("in-order run failed: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestWindowedRogueSliceFailsRunWithoutWedging injects protocol abuse
// into a live W = 1 deployment: a rogue client's very first message is
// a slice tagged for the run's final round. Shard 0 must fail as a
// protocol error naming it, the coordinator must surface the failure,
// and every goroutine must join.
func TestWindowedRogueSliceFailsRunWithoutWedging(t *testing.T) {
	const rounds = 8
	h := runDirectHarness(t, rounds, 20, 2, ServerConfig{Staleness: 1}, nil, nil, nil,
		func(id int, coord Conn, dial func(addr string) (Conn, error)) error {
			if err := coord.Send(Hello{ClientID: id, Members: []int{id}, Weights: []float64{30}}); err != nil {
				return err
			}
			msg, err := coord.Recv()
			if err != nil {
				return err
			}
			init := msg.(Init)
			conns := make([]Conn, len(init.Shards))
			for s, addr := range init.Shards {
				conn, err := dial(addr)
				if err != nil {
					return err
				}
				conns[s] = conn
				if err := conn.Send(DataHello{ClientID: id, ShardID: s, NumShards: len(init.Shards), Dim: len(init.Params), Members: []int{id}}); err != nil {
					return err
				}
			}
			rogue := SliceUpload{ClientID: id, Round: rounds, Idx: []int{0}, Val: []float64{1}, Rank: []int{0}}
			if err := conns[0].Send(rogue); err != nil {
				return err
			}
			for _, c := range conns {
				_ = c.Close()
			}
			return errors.New("impostor tagged the final round at start of run")
		})
	if h.srvErr == nil {
		t.Fatal("server completed despite a rogue slice")
	}
	if h.shardErr[0] == nil || !strings.Contains(h.shardErr[0].Error(), "stale slice from client 0 (round 8)") {
		t.Fatalf("shard 0 error %v, want the rogue slice named", h.shardErr[0])
	}
}

// TestStalenessConfigValidation pins the configuration boundary: the
// window runs on either plane up to a hard cap, the durable coordinator
// refuses it loudly, and a client refuses an Init it cannot run.
func TestStalenessConfigValidation(t *testing.T) {
	peerOf := func() []Peer {
		a, _ := NewMemPair()
		return []Peer{{Conn: a, Hello: &Hello{ClientID: 0, Members: []int{0}, Weights: []float64{1}}}}
	}
	base := ServerConfig{K: 2, Rounds: 1, InitialParams: []float64{0}}

	t.Run("negative window", func(t *testing.T) {
		cfg := base
		cfg.Staleness = -1
		if _, err := RunServerPeers(peerOf(), cfg); err == nil || !strings.Contains(err.Error(), "Staleness must be in") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("window above the cap", func(t *testing.T) {
		cfg := base
		cfg.Staleness = fl.MaxStaleness + 1
		if _, err := RunServerPeers(peerOf(), cfg); err == nil || !strings.Contains(err.Error(), "Staleness must be in") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("routed coordinator accepts a window", func(t *testing.T) {
		cfg := base
		cfg.Staleness = fl.MaxStaleness
		if err := cfg.check(1); err != nil {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("durable coordinator refuses a window", func(t *testing.T) {
		cfg := base
		cfg.Direct = true
		cfg.Staleness = 1
		cfg.Durable = &DurableServerConfig{}
		if _, err := RunServerPeers(nil, cfg); err == nil || !strings.Contains(err.Error(), "bounded staleness") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("client refuses an oversized init window", func(t *testing.T) {
		fed, model, initParams := buildWorkload()
		srv, cli := NewMemPair()
		go func() {
			_, _ = srv.Recv() // the hello
			_ = srv.Send(Init{Params: initParams, K: 2, Rounds: 1, Window: fl.MaxStaleness + 1, Shards: []string{"s0"}})
		}()
		err := RunClient(cli, ClientConfig{
			ID: 0, Data: &fed.Clients[0], Model: model, LearningRate: 0.1, BatchSize: 8, Seed: 1,
			DialShard: func(string) (Conn, error) { a, _ := NewMemPair(); return a, nil },
		})
		if err == nil || !strings.Contains(err.Error(), "staleness window") {
			t.Fatalf("err = %v", err)
		}
		_ = cli.Close()
		_ = srv.Close()
	})
	// fl.Run trains a k below 1 at k = 1; a client told one trains
	// nothing, so it refuses the Init instead.
	for _, k := range []int{0, -3} {
		t.Run(fmt.Sprintf("client refuses an init k of %d", k), func(t *testing.T) {
			fed, model, initParams := buildWorkload()
			srv, cli := NewMemPair()
			go func() {
				_, _ = srv.Recv() // the hello
				_ = srv.Send(Init{Params: initParams, K: k, Rounds: 1})
				_, _ = srv.Recv() // an upload, had the client trained
				_ = srv.Close()
			}()
			err := RunClient(cli, ClientConfig{ID: 0, Data: &fed.Clients[0], Model: model, LearningRate: 0.1, BatchSize: 8, Seed: 1})
			if want := fmt.Sprintf("init sparsity k = %d", k); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want %q", err, want)
			}
			_ = cli.Close()
		})
	}
}
