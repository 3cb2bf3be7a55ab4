package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsparse/internal/core"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
)

// shardStrategies is every built-in strategy the shard tier must
// aggregate bit-identically.
func shardStrategies() []gs.Strategy {
	return []gs.Strategy{
		&gs.FABTopK{}, gs.FUBTopK{}, gs.UniTopK{}, gs.PeriodicK{}, gs.SendAll{},
	}
}

// randomRankedUploads builds n rank-ordered top-k uploads over dimension d
// (the producer contract every real uplink satisfies).
func randomRankedUploads(rng *rand.Rand, n, d, k int) []gs.ClientUpload {
	ups := make([]gs.ClientUpload, n)
	for i := range ups {
		dense := make([]float64, d)
		for j := range dense {
			dense[j] = rng.NormFloat64()
		}
		ki := k
		if rng.Intn(3) == 0 {
			ki = 1 + rng.Intn(k) // stragglers with shorter top-k lists
		}
		ups[i] = gs.ClientUpload{Pairs: sparse.TopK(dense, ki), Weight: 1 + rng.Float64()*9}
	}
	return ups
}

// startShards launches one RunShard goroutine per connection pair built
// by the factory, returning the coordinator-side conns and a join
// function that closes them and reports every shard's exit error.
func startShards(t *testing.T, nShards int, pair func() (server, shard Conn)) ([]Conn, func() []error) {
	t.Helper()
	serverConns := make([]Conn, nShards)
	shardConns := make([]Conn, nShards)
	for s := range serverConns {
		serverConns[s], shardConns[s] = pair()
	}
	errs := make([]error, nShards)
	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = RunShard(shardConns[s])
		}(s)
	}
	return serverConns, func() []error {
		for _, c := range serverConns {
			_ = c.Close()
		}
		wg.Wait()
		return errs
	}
}

// tcpPairFactory builds connection pairs over loopback TCP, with the
// shard side going through the real DialShard/AcceptPeer handshake.
func tcpPairFactory(t *testing.T) (func() (Conn, Conn), func()) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pair := func() (Conn, Conn) {
		type accepted struct {
			conn Conn
			err  error
		}
		ch := make(chan accepted, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				ch <- accepted{nil, err}
				return
			}
			peer, err := AcceptPeer(conn)
			if err == nil && peer.Hello != nil {
				err = errors.New("shard classified as client")
			}
			ch <- accepted{peer.Conn, err}
		}()
		shardSide, err := DialShard(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		acc := <-ch
		if acc.err != nil {
			t.Fatal(acc.err)
		}
		return acc.conn, shardSide
	}
	return pair, func() { _ = ln.Close() }
}

// TestShardedAggregationDifferential is the acceptance grid: sharded
// aggregation over real connections is bit-identical to the
// single-process engine across shard counts {1, 2, 4} × all five
// strategies × single-process worker counts {0, 4}, over both in-memory
// and loopback-TCP conns, across multiple rounds with probe selections.
func TestShardedAggregationDifferential(t *testing.T) {
	const n, d, k, rounds = 9, 600, 40, 4
	for _, conn := range []string{"mem", "tcp"} {
		t.Run(conn, func(t *testing.T) {
			var pair func() (Conn, Conn)
			if conn == "tcp" {
				var stop func()
				pair, stop = tcpPairFactory(t)
				defer stop()
			} else {
				pair = func() (Conn, Conn) { return NewMemPair() }
			}
			for _, nShards := range []int{1, 2, 4} {
				for _, workers := range []int{0, 4} {
					t.Run(fmt.Sprintf("shards=%d/workers=%d", nShards, workers), func(t *testing.T) {
						rng := rand.New(rand.NewSource(41 + int64(nShards)*10 + int64(workers)))
						weights := make([]float64, n)
						roundUploads := make([][]gs.ClientUpload, rounds)
						for m := range roundUploads {
							roundUploads[m] = randomRankedUploads(rng, n, d, k)
							if m == 0 {
								for ci, u := range roundUploads[m] {
									weights[ci] = u.Weight
								}
							} else {
								for ci := range roundUploads[m] {
									roundUploads[m][ci].Weight = weights[ci]
								}
							}
						}
						for _, strat := range shardStrategies() {
							serverConns, join := startShards(t, nShards, pair)
							group, err := NewShardGroup(serverConns, d, rounds, weights)
							if err != nil {
								t.Fatal(err)
							}
							single := gs.NewAggScratch(workers)
							for m := 1; m <= rounds; m++ {
								ups := roundUploads[m-1]
								probeK := 0
								if m%2 == 0 {
									probeK = k / 2
								}
								gotMain, gotProbe, err := group.Aggregate(strat.(gs.DirectSelector), ups, m, k, probeK)
								if err != nil {
									t.Fatalf("%s round %d: %v", strat.Name(), m, err)
								}
								wantMain, wantProbe := strat.(gs.ScratchAggregator).AggregateInto(single, ups, k, probeK)
								requireSameAgg(t, strat.Name(), m, wantMain, gotMain)
								if probeK > 0 {
									requireSameAgg(t, strat.Name()+"/probe", m, wantProbe, gotProbe)
								}
							}
							for s, err := range join() {
								if err != nil {
									t.Fatalf("%s: shard %d: %v", strat.Name(), s, err)
								}
							}
						}
					})
				}
			}
		})
	}
}

func requireSameAgg(t *testing.T, label string, round int, want, got gs.Aggregate) {
	t.Helper()
	if len(want.Indices) != len(got.Indices) {
		t.Fatalf("%s round %d: |J| %d vs %d", label, round, len(want.Indices), len(got.Indices))
	}
	for i := range want.Indices {
		if want.Indices[i] != got.Indices[i] || want.Values[i] != got.Values[i] {
			t.Fatalf("%s round %d: entry %d: (%d, %v) vs (%d, %v)", label, round, i,
				want.Indices[i], want.Values[i], got.Indices[i], got.Values[i])
		}
	}
	if len(want.PerClientUsed) != len(got.PerClientUsed) {
		t.Fatalf("%s round %d: PerClientUsed %d vs %d", label, round, len(want.PerClientUsed), len(got.PerClientUsed))
	}
	for ci := range want.PerClientUsed {
		if want.PerClientUsed[ci] != got.PerClientUsed[ci] {
			t.Fatalf("%s round %d: client %d used %d vs %d", label, round, ci,
				want.PerClientUsed[ci], got.PerClientUsed[ci])
		}
	}
}

// TestDistributedShardedMatchesReferenceEngine runs the full protocol —
// clients, coordinator, and a 2-shard aggregation tier — and requires the
// training trajectory to be bit-identical to the in-process simulation
// engine with the same seeds.
func TestDistributedShardedMatchesReferenceEngine(t *testing.T) {
	fed, model, initParams := buildWorkload()
	const k, rounds, nShards = 40, 15, 2

	serverConns, join := startShards(t, nShards, func() (Conn, Conn) { return NewMemPair() })
	n := fed.NumClients()
	clientServerConns := make([]Conn, n)
	clientConns := make([]Conn, n)
	for i := range clientServerConns {
		clientServerConns[i], clientConns[i] = NewMemPair()
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = RunClient(clientConns[id], ClientConfig{
				ID:           id,
				Data:         &fed.Clients[id],
				Model:        model,
				LearningRate: 0.1,
				BatchSize:    8,
				Seed:         5 + 1000003*int64(id+1),
			})
		}(i)
	}
	records, err := RunServer(clientServerConns, ServerConfig{
		K: k, Rounds: rounds, InitialParams: initParams, ShardConns: serverConns,
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	for s, err := range join() {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}

	ref, err := fl.Run(fl.Config{
		Data:         fed,
		Model:        model,
		LearningRate: 0.1,
		BatchSize:    8,
		Rounds:       rounds,
		Seed:         5,
		Strategy:     &gs.FABTopK{},
		Controller:   core.NewFixedK(k),
		Beta:         10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(ref.Stats) {
		t.Fatalf("sharded run %d rounds, reference %d", len(records), len(ref.Stats))
	}
	for i := range records {
		if records[i].Loss != ref.Stats[i].Loss {
			t.Fatalf("round %d: sharded loss %v != reference %v", i+1, records[i].Loss, ref.Stats[i].Loss)
		}
		if records[i].DownlinkElems != ref.Stats[i].DownlinkElems {
			t.Fatalf("round %d: downlink %d != %d", i+1, records[i].DownlinkElems, ref.Stats[i].DownlinkElems)
		}
	}
}

// TestShardDisconnectMidRound kills a shard between rounds: the
// coordinator's next Aggregate must surface a transport error rather
// than hang or return a partial aggregate.
func TestShardDisconnectMidRound(t *testing.T) {
	const n, d, k = 4, 100, 8
	rng := rand.New(rand.NewSource(51))
	ups := randomRankedUploads(rng, n, d, k)
	weights := make([]float64, n)
	for ci, u := range ups {
		weights[ci] = u.Weight
	}
	serverConns, join := startShards(t, 2, func() (Conn, Conn) { return NewMemPair() })
	group, err := NewShardGroup(serverConns, d, 5, weights)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := group.Aggregate(&gs.FABTopK{}, ups, 1, k, 0); err != nil {
		t.Fatalf("healthy round: %v", err)
	}
	_ = serverConns[1].Close() // shard 1 dies after round 1
	if _, _, err := group.Aggregate(&gs.FABTopK{}, ups, 2, k, 0); err == nil {
		t.Fatal("aggregate succeeded with a dead shard")
	}
	join()
}

// shardHarness drives RunShard directly over a mem pair: send the assign
// plus one upload and return the shard's exit error.
func shardHarness(t *testing.T, assign ShardAssign, up *ShardUpload) error {
	t.Helper()
	server, shard := NewMemPair()
	done := make(chan error, 1)
	go func() { done <- RunShard(shard) }()
	if err := server.Send(assign); err != nil {
		t.Fatal(err)
	}
	if up != nil {
		if err := server.Send(*up); err != nil {
			t.Fatal(err)
		}
	}
	err := <-done
	_ = server.Close()
	return err
}

// TestRunShardRejectsMalformed covers the shard-side validation of the
// routed uploads: every malformed shape must fail as a protocol error.
func TestRunShardRejectsMalformed(t *testing.T) {
	assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 1, Weights: []float64{1, 2}}
	// Shard 0 of 2 over dim 10 owns [0, 5).
	cases := []struct {
		name string
		up   ShardUpload
		want string
	}{
		{"out of range", ShardUpload{Round: 1, Off: []int{0, 1, 1}, Idx: []int{7}, Val: []float64{1}, Rank: []int{0}}, "outside range"},
		{"negative index", ShardUpload{Round: 1, Off: []int{0, 1, 1}, Idx: []int{-1}, Val: []float64{1}, Rank: []int{0}}, "outside range"},
		{"duplicate index", ShardUpload{Round: 1, Off: []int{0, 2, 2}, Idx: []int{3, 3}, Val: []float64{1, 2}, Rank: []int{0, 1}}, "duplicate"},
		{"ragged lengths", ShardUpload{Round: 1, Off: []int{0, 2, 2}, Idx: []int{3, 4}, Val: []float64{1}, Rank: []int{0, 1}}, "inconsistent"},
		{"bad offsets", ShardUpload{Round: 1, Off: []int{0, 2, 1}, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}}, "bad offsets"},
		{"offsets out of order", ShardUpload{Round: 1, Off: []int{0, 1, 0}, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}}, "inconsistent"},
		{"ranks not ascending", ShardUpload{Round: 1, Off: []int{0, 2, 2}, Idx: []int{3, 4}, Val: []float64{1, 2}, Rank: []int{1, 0}}, "ranks not ascending"},
		{"stale round", ShardUpload{Round: 7, Off: []int{0, 0, 0}}, "stale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := shardHarness(t, assign, &tc.up)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRunShardRejectsBadAssign covers the assignment validation.
func TestRunShardRejectsBadAssign(t *testing.T) {
	cases := []struct {
		name   string
		assign ShardAssign
	}{
		{"id out of range", ShardAssign{ShardID: 3, NumShards: 2, Dim: 10, Rounds: 1, Weights: []float64{1}}},
		{"no shards", ShardAssign{ShardID: 0, NumShards: 0, Dim: 10, Rounds: 1, Weights: []float64{1}}},
		{"no clients", ShardAssign{ShardID: 0, NumShards: 1, Dim: 10, Rounds: 1}},
		{"bad dim", ShardAssign{ShardID: 0, NumShards: 1, Dim: 0, Rounds: 1, Weights: []float64{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := shardHarness(t, tc.assign, nil); err == nil {
				t.Fatal("bad assignment accepted")
			}
		})
	}
}

// TestRunShardRejectsNonAssignFirst pins the handshake ordering.
func TestRunShardRejectsNonAssignFirst(t *testing.T) {
	server, shard := NewMemPair()
	done := make(chan error, 1)
	go func() { done <- RunShard(shard) }()
	if err := server.Send(Hello{ClientID: 0, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "ShardAssign") {
		t.Fatalf("error %v, want ShardAssign complaint", err)
	}
	_ = server.Close()
}

// TestGobConnCloseSemantics pins the wire conn to memConn's contract:
// idempotent Close, ErrClosed sends, io.EOF recvs — both for a local
// close and for a peer close.
func TestGobConnCloseSemantics(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptedCh := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptedCh <- c
		}
	}()
	dialed, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted := <-acceptedCh

	// Local close: Send reports ErrClosed, Recv reports io.EOF, double
	// close is fine.
	if err := dialed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dialed.Send(Hello{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on locally closed conn = %v, want ErrClosed", err)
	}
	if _, err := dialed.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("recv on locally closed conn = %v, want io.EOF", err)
	}
	if err := dialed.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}

	// Peer close: the surviving endpoint sees io.EOF on Recv.
	if _, err := accepted.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("recv after peer close = %v, want io.EOF", err)
	}
	if err := accepted.Close(); err != nil {
		t.Fatal(err)
	}
	if err := accepted.Send(Hello{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

// TestAcceptPeerClassifies pins the shared-listener demux.
func TestAcceptPeerClassifies(t *testing.T) {
	a, b := NewMemPair()
	go func() { _ = b.Send(Hello{ClientID: 2, Weight: 3}) }()
	peer, err := AcceptPeer(a)
	if err != nil || peer.Hello == nil || peer.Hello.ClientID != 2 {
		t.Fatalf("client peer = %+v, %v", peer, err)
	}

	c, d := NewMemPair()
	go func() { _ = d.Send(ShardHello{}) }()
	peer, err = AcceptPeer(c)
	if err != nil || peer.Hello != nil {
		t.Fatalf("shard peer = %+v, %v", peer, err)
	}

	e, f := NewMemPair()
	go func() { _ = f.Send(Broadcast{Round: 1}) }()
	if _, err := AcceptPeer(e); err == nil {
		t.Fatal("unclassifiable first message accepted")
	}
}

// netDial opens a raw TCP connection that never completes a handshake.
func netDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// TestShardGroupRejectsBadResult pins the coordinator-side validation of
// shard replies: a malformed ShardResult (here a min rank no upload
// position could produce) must fail as a protocol error, not panic the
// selection.
func TestShardGroupRejectsBadResult(t *testing.T) {
	server, fake := NewMemPair()
	go func() {
		if _, err := fake.Recv(); err != nil { // ShardAssign
			return
		}
		if _, err := fake.Recv(); err != nil { // ShardUpload
			return
		}
		_ = fake.Send(ShardResult{Round: 1, ShardID: 0, Idx: []int{2}, Sum: []float64{1}, MinRank: []int{-1}})
	}()
	g, err := NewShardGroup([]Conn{server}, 10, 1, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	ups := []gs.ClientUpload{{Pairs: sparse.Vec{Idx: []int{2}, Val: []float64{1}}, Weight: 1}}
	if _, _, err := g.Aggregate(&gs.FABTopK{}, ups, 1, 1, 0); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("bad MinRank accepted: %v", err)
	}
	_ = g.Close()
}

// TestAcceptPeersToleratesStrays pins the concurrent handshake: a silent
// TCP connection and a junk first message must not stall or poison the
// peer collection.
func TestAcceptPeersToleratesStrays(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	// A peer that connects and never speaks (health check, port scan).
	silent, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// A peer whose first message classifies as neither role.
	junk, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer junk.Close()
	if err := junk.Send(Broadcast{Round: 1}); err != nil {
		t.Fatal(err)
	}
	// The real peers.
	go func() {
		conn, err := Dial(addr)
		if err != nil {
			return
		}
		_ = conn.Send(Hello{ClientID: 0, Weight: 3})
	}()
	go func() {
		_, _ = DialShard(addr)
	}()

	clients, shards, err := AcceptPeers(ln, 1, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(clients) != 1 || clients[0].Hello == nil || clients[0].Hello.ClientID != 0 {
		t.Fatalf("clients = %+v", clients)
	}
	if len(shards) != 1 {
		t.Fatalf("got %d shards, want 1", len(shards))
	}
}

// TestAcceptPeersTimesOut pins the bounded wait: a missing peer surfaces
// as a loud error reporting the partial progress, not a hang.
func TestAcceptPeersTimesOut(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The shard arrives (a small handshake buffers in the kernel even
	// before Accept); the client never does.
	shard, err := DialShard(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	_, _, err = AcceptPeers(ln, 1, 1, 300*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
	if !strings.Contains(err.Error(), "0/1 clients") || !strings.Contains(err.Error(), "1/1 shards") {
		t.Fatalf("timeout error does not report progress: %v", err)
	}
}

// TestRunServerPeersRejectsShardAsClient pins the role split.
func TestRunServerPeersRejectsShardAsClient(t *testing.T) {
	a, _ := NewMemPair()
	_, err := RunServerPeers([]Peer{{Conn: a}}, ServerConfig{K: 2, Rounds: 1, InitialParams: []float64{0}})
	if err == nil || !strings.Contains(err.Error(), "ShardConns") {
		t.Fatalf("shard peer accepted as client: %v", err)
	}
}

// Durable shards declare a stable identity in their hello; the
// coordinator must seat them by declaration, not by the (racy, across
// real processes) order their connections happened to arrive in.
func TestSeatShardPeers(t *testing.T) {
	declared := func(id int) Peer {
		return Peer{Shard: &ShardHello{Addr: "x", ID: id, HasID: true}}
	}
	anon := Peer{Shard: &ShardHello{Addr: "y"}}

	// Reverse arrival order: every declared peer lands on its own index.
	seated, err := SeatShardPeers([]Peer{declared(2), declared(1), declared(0)})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range seated {
		if p.Shard.ID != i {
			t.Fatalf("slot %d seated shard %d", i, p.Shard.ID)
		}
	}

	// Undeclared peers fill the unclaimed slots in arrival order.
	seated, err = SeatShardPeers([]Peer{anon, declared(1), anon})
	if err != nil {
		t.Fatal(err)
	}
	if seated[1].Shard.ID != 1 || seated[0].Shard.HasID || seated[2].Shard.HasID {
		t.Fatalf("mixed seating wrong: %+v", seated)
	}

	if _, err := SeatShardPeers([]Peer{declared(0), declared(0)}); err == nil {
		t.Fatal("duplicate declared id not rejected")
	}
	if _, err := SeatShardPeers([]Peer{declared(3), declared(0)}); err == nil {
		t.Fatal("out-of-range declared id not rejected")
	}
}
