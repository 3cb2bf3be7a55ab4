package transport

// Tests for the bounded-staleness (windowed) direct data plane. The
// synchronous differential guarantees live in direct_test.go and must
// not move (W = 0 never enters window.go); what this file pins is the
// windowed protocol's own contract: completion across the small
// configuration grid, the straggler overlap that is the feature's
// reason to exist, the seal-miss NACK semantics, eviction of clients
// that fall out of the window, and the trust boundary — malformed or
// misbehaving traffic errors the run instead of wedging a barrier.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// runWindowedHarness is runDirectHarness with a staleness window on the
// coordinator and an extra hook for wrapping a client's control conn
// (the straggler tests inject delays on both planes of one client).
func runWindowedHarness(t testing.TB, rounds, k, nShards, quantBits, staleness int,
	wrapCoord func(clientID int, c Conn) Conn,
	wrapData func(clientID, shardID int, c Conn) Conn,
	impostor func(id int, coord Conn, dial func(addr string) (Conn, error)) error) *directHarness {
	t.Helper()
	fed, model, initParams := buildWorkload()
	n := fed.NumClients()

	shardAccept := make([]chan Conn, nShards)
	for s := range shardAccept {
		shardAccept[s] = make(chan Conn, n)
	}
	addrOf := func(s int) string { return fmt.Sprintf("mem-shard-%d", s) }
	dialHook := func(clientID int) func(addr string) (Conn, error) {
		return func(addr string) (Conn, error) {
			for s := 0; s < nShards; s++ {
				if addr == addrOf(s) {
					shardSide, clientSide := NewMemPair()
					var out Conn = clientSide
					if wrapData != nil {
						out = wrapData(clientID, s, clientSide)
					}
					shardAccept[s] <- shardSide
					return out, nil
				}
			}
			return nil, fmt.Errorf("unknown shard address %q", addr)
		}
	}

	h := &directHarness{cliErrs: make([]error, n), shardErr: make([]error, nShards)}
	shardCoordConns := make([]Conn, nShards)
	coordShardConns := make([]Conn, nShards)
	addrs := make([]string, nShards)
	for s := 0; s < nShards; s++ {
		coordShardConns[s], shardCoordConns[s] = NewMemPair()
		addrs[s] = addrOf(s)
	}
	h.serverCs = make([]Conn, n)
	clientCs := make([]Conn, n)
	for i := range h.serverCs {
		h.serverCs[i], clientCs[i] = NewMemPair()
	}

	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h.shardErr[s] = RunDirectShard(shardCoordConns[s], func(nClients int) ([]Peer, error) {
				peers := make([]Peer, 0, nClients)
				for len(peers) < nClients {
					conn := <-shardAccept[s]
					peer, err := AcceptPeer(conn)
					if err != nil {
						return nil, err
					}
					peers = append(peers, peer)
				}
				return peers, nil
			})
		}(s)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			coord := clientCs[id]
			if wrapCoord != nil {
				coord = wrapCoord(id, coord)
			}
			if impostor != nil && id == 0 {
				h.cliErrs[id] = impostor(id, coord, dialHook(id))
			} else {
				h.cliErrs[id] = RunClient(coord, ClientConfig{
					ID:           id,
					Data:         &fed.Clients[id],
					Model:        model,
					LearningRate: 0.1,
					BatchSize:    8,
					Seed:         5 + 1000003*int64(id+1),
					DialShard:    dialHook(id),
				})
			}
			_ = clientCs[id].Close()
			_ = h.serverCs[id].Close()
		}(i)
	}
	h.records, h.srvErr = RunServer(h.serverCs, ServerConfig{
		K: k, Rounds: rounds, InitialParams: initParams, QuantBits: quantBits,
		ShardConns: coordShardConns, Direct: true, ShardAddrs: addrs,
		Staleness: staleness,
	})
	for _, c := range h.serverCs {
		_ = c.Close()
	}
	for _, c := range coordShardConns {
		_ = c.Close()
	}
	wg.Wait()
	return h
}

// TestWindowedDirectCompletes runs the full windowed deployment across
// the small grid — window depth x shard count x quantization — and
// requires a clean completion: no errors anywhere, every round
// recorded in order, and a non-empty downlink each round (window
// pressure can only cut a front on behalf of a client whose own slice
// for that front was already admitted, so at least one upload is
// always aggregated).
func TestWindowedDirectCompletes(t *testing.T) {
	const rounds, k = 10, 40
	for _, w := range []int{1, 2} {
		for _, nShards := range []int{1, 2} {
			for _, qb := range []int{0, 8} {
				t.Run(fmt.Sprintf("w=%d/shards=%d/q=%d", w, nShards, qb), func(t *testing.T) {
					h := runWindowedHarness(t, rounds, k, nShards, qb, w, nil, nil, nil)
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
					if len(h.records) != rounds {
						t.Fatalf("recorded %d rounds, want %d", len(h.records), rounds)
					}
					for i, rec := range h.records {
						if rec.Round != i+1 {
							t.Fatalf("record %d is round %d", i, rec.Round)
						}
						if rec.DownlinkElems <= 0 || rec.DownlinkElems > k {
							t.Fatalf("round %d downlink has %d elements, want (0, %d]", rec.Round, rec.DownlinkElems, k)
						}
					}
				})
			}
		}
	}
}

// runStragglerAt deploys 2 shards x 12 rounds with seeded jitter (up to
// 4ms per operation) injected on every connection of client 0 — both
// the control plane and the data plane — and returns the run's wall
// clock alongside the harness.
func runStragglerAt(t testing.TB, staleness int) (time.Duration, *directHarness) {
	t.Helper()
	const rounds, k, nShards = 12, 20, 2
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
	h := runWindowedHarness(t, rounds, k, nShards, 0, staleness, wrapCoord, wrapData, nil)
	return time.Since(start), h
}

// TestWindowedStragglerDoesNotStallFleet is the tentpole's acceptance
// check. At W = 0 the lockstep protocol completes but every round is
// gated on the delayed client (the stall this feature kills); at W = 1
// the window lets the fleet pipeline past it, the laggard falls out of
// the window and is evicted with ErrStaleClient, and the run's wall
// clock must come in under half the lockstep time with the identical
// delay schedule.
func TestWindowedStragglerDoesNotStallFleet(t *testing.T) {
	lockstep, h0 := runStragglerAt(t, 0)
	if h0.srvErr != nil {
		t.Fatalf("lockstep server: %v", h0.srvErr)
	}
	for id, err := range h0.cliErrs {
		if err != nil {
			t.Fatalf("lockstep client %d: %v", id, err)
		}
	}
	for s, err := range h0.shardErr {
		if err != nil {
			t.Fatalf("lockstep shard %d: %v", s, err)
		}
	}

	windowed, h1 := runStragglerAt(t, 1)
	if h1.srvErr != nil {
		t.Fatalf("windowed server: %v", h1.srvErr)
	}
	for s, err := range h1.shardErr {
		if err != nil {
			t.Fatalf("windowed shard %d: %v", s, err)
		}
	}
	for id, err := range h1.cliErrs[1:] {
		if err != nil {
			t.Fatalf("windowed client %d: %v", id+1, err)
		}
	}
	if !errors.Is(h1.cliErrs[0], ErrStaleClient) {
		t.Fatalf("straggler error %v, want eviction (ErrStaleClient)", h1.cliErrs[0])
	}
	if len(h1.records) != len(h0.records) {
		t.Fatalf("windowed run recorded %d rounds, lockstep %d", len(h1.records), len(h0.records))
	}
	if 2*windowed >= lockstep {
		t.Fatalf("windowed run took %v, lockstep %v: want < 0.5x — the straggler still stalls the fleet", windowed, lockstep)
	}
}

// BenchmarkStragglerWallClock tracks the windowed straggler scenario's
// end-to-end wall clock (2 shards, 12 rounds, one client with seeded
// 4ms jitter, W = 1): the time the fleet needs to pipeline past a
// straggler and finish. Tracked in BENCH_fl.json.
func BenchmarkStragglerWallClock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, h := runStragglerAt(b, 1)
		if h.srvErr != nil {
			b.Fatal(h.srvErr)
		}
	}
}

// TestWindowedShardNacksMissedSeal scripts the seal-miss path at the
// shard: a fast client's round-2 slice is the window pressure that cuts
// round 1 without the slow client; the slow client's late round-1 slice
// is refused with a SliceNack (so its residual mass stays in its error
// feedback) and is never aggregated, yet the same client's round-2
// slice is admitted and the shard completes cleanly.
func TestWindowedShardNacksMissedSeal(t *testing.T) {
	// Shard 0 of 2 over dim 10 owns [0, 5); two clients, window 1.
	assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 2, Weights: []float64{1, 2}, Window: 1}
	wantIdx := func(t *testing.T, got []int, want ...int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("reduced indices %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("reduced indices %v, want %v", got, want)
			}
		}
	}
	err := directShardHarness(t, assign, nil, func(clients []Conn, coord Conn) {
		// The fast client pipelines both rounds up front; its round-2
		// slice forces the round-1 cut with client 0 still missing.
		_ = clients[1].Send(SliceUpload{ClientID: 1, Round: 1, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}})
		_ = clients[1].Send(SliceUpload{ClientID: 1, Round: 2, Idx: []int{3}, Val: []float64{2}, Rank: []int{0}})
		msg, err := coord.Recv()
		if err != nil {
			t.Errorf("no round-1 result: %v", err)
			return
		}
		res, ok := msg.(ShardResult)
		if !ok || res.Round != 1 {
			t.Errorf("round-1 control message %T %+v, want ShardResult round 1", msg, msg)
			return
		}
		wantIdx(t, res.Idx, 3)
		_ = coord.Send(RoundSeal{Round: 1, Members: []int{3}})

		// Round 1 is cut: the slow client's slice arrives late and must
		// be refused with a NACK, not a protocol error.
		_ = clients[0].Send(SliceUpload{ClientID: 0, Round: 1, Idx: []int{3}, Val: []float64{5}, Rank: []int{0}})
		msg, err = clients[0].Recv()
		if err != nil {
			t.Errorf("no NACK for the missed seal: %v", err)
			return
		}
		nack, ok := msg.(SliceNack)
		if !ok || nack.ClientID != 0 || nack.Round != 1 || nack.Sealed != 1 || nack.Evicted {
			t.Errorf("late slice answered with %T %+v, want SliceNack{ClientID: 0, Round: 1, Sealed: 1}", msg, msg)
			return
		}

		// The same client rejoins the window at round 2.
		_ = clients[0].Send(SliceUpload{ClientID: 0, Round: 2, Idx: []int{2}, Val: []float64{1}, Rank: []int{0}})
		msg, err = coord.Recv()
		if err != nil {
			t.Errorf("no round-2 result: %v", err)
			return
		}
		res, ok = msg.(ShardResult)
		if !ok || res.Round != 2 {
			t.Errorf("round-2 control message %T %+v, want ShardResult round 2", msg, msg)
			return
		}
		// Both round-2 slices, and only those: the refused round-1
		// slice was never aggregated anywhere.
		wantIdx(t, res.Idx, 2, 3)
		_ = coord.Send(RoundSeal{Round: 2, Members: []int{2, 3}})

		// Drain: both clients fetch both broadcasts so the shard's exit
		// condition (everyone served the final round) is met.
		for ci, c := range clients {
			for r := 1; r <= 2; r++ {
				_ = c.Send(SliceFetch{ClientID: ci, Round: r})
				msg, err := c.Recv()
				if err != nil {
					t.Errorf("client %d round %d fetch: %v", ci, r, err)
					return
				}
				if bc, ok := msg.(SliceBroadcast); !ok || bc.Round != r {
					t.Errorf("client %d round %d fetch answered with %T %+v", ci, r, msg, msg)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("windowed shard: %v", err)
	}
}

// TestWindowedShardRejectsMalformed covers the windowed ingest trust
// boundary: traffic a correct client can never produce — duplicates
// inside the window, tags outside it, identity forgery, quantization
// mismatches — must error the round as a protocol failure (the harness
// returning at all proves no barrier wedges), while payload-level
// corruption is still caught at reduce time.
func TestWindowedShardRejectsMalformed(t *testing.T) {
	// Shard 0 of 2 over dim 10 owns [0, 5); two clients, window 1,
	// five rounds (so an over-eager tag is inside the run but outside
	// the admission window).
	assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 5, Weights: []float64{1, 2}, Window: 1}
	up := func(ci, round int) SliceUpload {
		return SliceUpload{ClientID: ci, Round: round, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}}
	}
	cases := []struct {
		name string
		msgs []any
		want string
	}{
		{"duplicate slice in the window", []any{up(0, 1), up(0, 1)}, "sent two slices"},
		{"round beyond the admission window", []any{up(0, 3)}, "outside admission window"},
		{"round zero", []any{SliceUpload{ClientID: 0, Round: 0}}, "outside admission window"},
		{"round beyond the run", []any{up(0, 6)}, "outside admission window"},
		{"identity forgery on upload", []any{up(1, 1)}, "claims client"},
		{"quantization mismatch", []any{SliceUpload{ClientID: 0, Round: 1, Bits: 8, Scale: 1}}, "quantization"},
		{"non-slice message", []any{Hello{ClientID: 0}}, "want SliceUpload or SliceFetch"},
		{"identity forgery on fetch", []any{SliceFetch{ClientID: 1, Round: 1}}, "claims client"},
		{"fetch outside the run", []any{SliceFetch{ClientID: 0, Round: 9}}, "fetched round"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := directShardHarness(t, assign, nil, func(clients []Conn, _ Conn) {
				for _, m := range tc.msgs {
					_ = clients[0].Send(m)
				}
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}

	t.Run("corrupt payload caught at reduce time", func(t *testing.T) {
		// Admission only checks identity and the window; coordinate
		// validation happens when the front is cut, on the reducing
		// goroutine.
		err := directShardHarness(t, assign, nil, func(clients []Conn, _ Conn) {
			_ = clients[0].Send(SliceUpload{ClientID: 0, Round: 1, Idx: []int{3, 3}, Val: []float64{1, 2}, Rank: []int{0, 1}})
			_ = clients[1].Send(SliceUpload{ClientID: 1, Round: 1})
		})
		if err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("error %v, want duplicate-coordinate complaint", err)
		}
	})
}

// TestWindowedRogueSliceFailsRunWithoutWedging injects protocol abuse
// into a live windowed deployment: a rogue client's very first message
// is a slice tagged for the run's final round — far beyond the
// admission window (a tag can only be W+1 rounds past the cut, and the
// cut cannot have advanced yet: it needs six more rounds of uploads).
// The shard must fail as a protocol error, the coordinator must
// surface the failure (the shard closes its control conn on the way
// out — the windowed round loop has no other way to observe a dead
// shard), and every goroutine must join. The duplicate-slice variant
// is pinned at the shard level in TestWindowedShardRejectsMalformed —
// end to end it is racy by design: a duplicate arriving after the cut
// is indistinguishable from a late slice and is NACKed instead (still
// never double-counted).
func TestWindowedRogueSliceFailsRunWithoutWedging(t *testing.T) {
	const rounds = 8
	h := runWindowedHarness(t, rounds, 20, 2, 0, 1, nil, nil,
		func(id int, coord Conn, dial func(addr string) (Conn, error)) error {
			if err := coord.Send(Hello{ClientID: id, Weight: 30}); err != nil {
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
				if err := conn.Send(DataHello{ClientID: id, ShardID: s, NumShards: len(init.Shards), Dim: len(init.Params)}); err != nil {
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
		t.Fatal("server completed despite an out-of-window slice")
	}
	if h.shardErr[0] == nil || !strings.Contains(h.shardErr[0].Error(), "outside admission window") {
		t.Fatalf("shard 0 error %v, want admission-window complaint", h.shardErr[0])
	}
}

// TestStalenessConfigValidation pins the configuration boundary: the
// window is a direct-plane coordinator feature, with a hard cap, and
// every other tier refuses it loudly.
func TestStalenessConfigValidation(t *testing.T) {
	peerOf := func() []Peer {
		a, _ := NewMemPair()
		return []Peer{{Conn: a, Hello: &Hello{ClientID: 0, Weight: 1}}}
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
		cfg.Staleness = MaxStaleness + 1
		if _, err := RunServerPeers(peerOf(), cfg); err == nil || !strings.Contains(err.Error(), "Staleness must be in") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("routed coordinator refuses a window", func(t *testing.T) {
		cfg := base
		cfg.Staleness = 1
		if _, err := RunServerPeers(peerOf(), cfg); err == nil || !strings.Contains(err.Error(), "direct data plane") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("durable coordinator refuses a window", func(t *testing.T) {
		cfg := base
		cfg.Direct = true
		cfg.Staleness = 1
		if _, err := RunDurableServerPeers(nil, cfg, DurableServerConfig{}); err == nil || !strings.Contains(err.Error(), "bounded staleness") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("client refuses an oversized init window", func(t *testing.T) {
		fed, model, initParams := buildWorkload()
		srv, cli := NewMemPair()
		go func() {
			_, _ = srv.Recv() // the hello
			_ = srv.Send(Init{Params: initParams, K: 2, Rounds: 1, Window: MaxStaleness + 1, Shards: []string{"s0"}})
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
}
