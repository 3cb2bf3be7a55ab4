package transport

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsparse/internal/fl"
	"fedsparse/internal/wal"
)

// assertSameTrajectory requires a recovered run's events to equal the
// engine's round by round — including through the CSV formatting the
// simulator emits, so a recovered run's output file is byte-for-byte
// the uninterrupted one.
func assertSameTrajectory(t *testing.T, got, want []fl.RoundEvent) {
	t.Helper()
	requireSameTrajectory(t, got, want)
	for i := range want {
		g := fmt.Sprintf("%d,%.6f,%d", got[i].Round, got[i].Loss, got[i].DownlinkElems)
		w := fmt.Sprintf("%d,%.6f,%d", want[i].Round, want[i].Loss, want[i].DownlinkElems)
		if g != w {
			t.Fatalf("round %d: %s != reference %s", i+1, g, w)
		}
	}
}

// durableRun deploys a 6-round fixed-k run over net on the durable
// plane with the given layout and requires it to finish as fl.Run did.
func durableRun(t *testing.T, net *testNet, lay layout) {
	t.Helper()
	spec := runSpec{rounds: 6}
	cfg, err := wireConfig(spec.config(0), false)
	if err != nil {
		t.Fatal(err)
	}
	lay.durable = true
	events, err := deploy(t, net, cfg, lay)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, events, engineEvents(t, spec.config(0)))
}

// TestCoordinatorCrashRecovery is the crash matrix of the durable
// control plane: the coordinator is killed at each WAL decision
// boundary in the middle of a run — {routed, direct} × {mem, TCP} —
// restarted from the log, and the finished run's events (and their
// CSV rendering) must be byte-identical to fl.Run with the same seeds.
// The routed resume re-derives the crashed round's broadcast from
// re-sent uploads; the direct resume re-issues the logged seal
// verbatim.
func TestCoordinatorCrashRecovery(t *testing.T) {
	boundaries := []Boundary{BoundarySealLogged, BoundarySealSent, BoundaryReleaseLogged, BoundaryFinishLogged}
	for _, topo := range []struct {
		name    string
		nShards int
	}{
		{"routed", 0},
		{"direct", 2},
	} {
		for _, kind := range []string{"mem", "tcp"} {
			for _, b := range boundaries {
				t.Run(fmt.Sprintf("%s/%s/%s", topo.name, kind, b), func(t *testing.T) {
					net := netFor(t, kind == "tcp")
					defer net.teardown()
					durableRun(t, net, layout{shards: topo.nShards, crash: b, crashRound: 3})
				})
			}
		}
	}
}

// TestCoordinatorCrashAtFinalFinish crashes after the last round is
// fully logged: the resume has nothing to re-issue and must return the
// complete event set without touching any peer.
func TestCoordinatorCrashAtFinalFinish(t *testing.T) {
	net := memNet()
	defer net.teardown()
	durableRun(t, net, layout{crash: BoundaryFinishLogged, crashRound: 6})
}

// TestDirectShardKillFreshRejoin kills one shard after it fully served
// a mid-run round and restarts it with no state at a new ingest
// address. The fresh process rejoins with Rejoin{Fresh}, the
// coordinator re-assigns it at the round in progress and Redo-points
// every client at the new address, the clients re-feed the barrier
// from their resend rings — and the trajectory is still bit-identical
// to fl.Run. The coordinator itself never restarts here.
func TestDirectShardKillFreshRejoin(t *testing.T) {
	for _, kind := range []string{"mem", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			net := netFor(t, kind == "tcp")
			defer net.teardown()
			durableRun(t, net, layout{shards: 2, killShard: 1, killRound: 3})
		})
	}
}

// TestDataDeskCloseDrainsStagedConns stages two ingest connections for
// one client — a redial queued behind its first link — and closes the
// desk: neither may stay open for its peer to keep sending on.
func TestDataDeskCloseDrainsStagedConns(t *testing.T) {
	acc := make(chan Conn, 2)
	defer close(acc)
	assign := ShardAssign{ShardID: 0, NumShards: 1, Dim: 4, Rounds: 1, Weights: []float64{1}}
	d := newDataDesk(func() (Conn, error) {
		conn, ok := <-acc
		if !ok {
			return nil, errors.New("ingest closed")
		}
		return conn, nil
	}, assign, time.Second)
	peers := make([]Conn, 2)
	for i := range peers {
		shardSide, clientSide := NewMemPair()
		peers[i] = clientSide
		if err := clientSide.Send(DataHello{ClientID: 0, ShardID: 0, NumShards: 1, Dim: 4, Members: []int{0}}); err != nil {
			t.Fatal(err)
		}
		acc <- shardSide
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(d.ch[0]) < len(peers) {
		if time.Now().After(deadline) {
			t.Fatalf("desk staged %d of %d connections", len(d.ch[0]), len(peers))
		}
		time.Sleep(time.Millisecond)
	}
	d.close()
	for i, c := range peers {
		if err := c.Send(SliceUpload{Round: 1}); err == nil {
			t.Errorf("staged connection %d still open after close", i)
		}
	}
}

// TestDataDeskReseatsReplayingClient scripts the durable shard's
// ingest rule: a client whose data link breaks redials and
// conservatively replays its ring, and the shard drops every replayed
// slice whose round it already consumed. In round 1 the link breaks
// before the fetch; in round 2 it breaks under the shard's reply, which
// re-seats the link and answers the fetch the client replays there.
func TestDataDeskReseatsReplayingClient(t *testing.T) {
	assign := ShardAssign{ShardID: 0, NumShards: 1, Dim: 4, Rounds: 2, Weights: []float64{1, 1}}
	coordServer, coordShard := NewMemPair()
	acc := make(chan Conn, 4)
	defer close(acc)
	dial := func(ci int) Conn {
		shardSide, clientSide := NewMemPair()
		_ = clientSide.Send(DataHello{ClientID: ci, ShardID: 0, NumShards: 1, Dim: 4, Members: []int{ci}})
		acc <- shardSide
		return clientSide
	}
	clients := []Conn{dial(0), dial(1)}
	done := make(chan error, 1)
	go func() {
		done <- RunDurableDirectShard(DurableShardConfig{RunID: 7, ShardID: 0, Addr: "mem",
			Dial: func() (Conn, error) { return coordShard, nil },
			AcceptData: func() (Conn, error) {
				conn, ok := <-acc
				if !ok {
					return nil, errors.New("ingest closed")
				}
				return conn, nil
			}})
	}()
	if _, err := coordServer.Recv(); err != nil { // the ShardHello
		t.Fatal(err)
	}
	_ = coordServer.Send(assign)
	for r := 1; r <= 2; r++ {
		slices := []SliceUpload{{ClientID: 0, Round: r, Idx: []int{1}, Val: []float64{1}, Rank: []int{0}}, {ClientID: 1, Round: r}}
		for ci, c := range clients {
			_ = c.Send(slices[ci])
		}
		if msg, err := coordServer.Recv(); err != nil {
			t.Fatalf("no round-%d result: %v (%T)", r, err, msg)
		}
		fetch := SliceFetch{ClientID: 0, Round: r}
		if r == 2 {
			// The fetch lands, the link dies before the reply.
			_ = clients[0].Send(fetch)
		}
		_ = clients[0].Close()
		clients[0] = dial(0)
		_ = clients[0].Send(slices[0])
		_ = clients[0].Send(fetch)
		_ = coordServer.Send(RoundSeal{Round: r, Members: []int{1}})
		_ = clients[1].Send(SliceFetch{ClientID: 1, Round: r})
		for ci, c := range clients {
			msg, err := c.Recv()
			if sb, ok := msg.(SliceBroadcast); err != nil || !ok || sb.Round != r || len(sb.Idx) != 1 || sb.Idx[0] != 1 {
				t.Fatalf("round %d: client %d got %+v, %v; want its broadcast slice", r, ci, msg, err)
			}
		}
	}
	if err := awaitShard(t, done, append(clients, coordServer)...); err != nil {
		t.Fatalf("durable shard: %v", err)
	}
}

// TestDurableShardAwaitsLateAssign pins a fresh durable shard's wait for
// its assignment: the coordinator sends it only once its whole quota has
// enrolled, so the shard must wait past the handshake deadline and then
// serve the round.
func TestDurableShardAwaitsLateAssign(t *testing.T) {
	saved := handshakeTimeout.Swap(int64(100 * time.Millisecond))
	defer handshakeTimeout.Store(saved)

	coordServer, coordShard := NewMemPair()
	acc := make(chan Conn, 1)
	defer close(acc)
	done := make(chan error, 1)
	go func() {
		done <- RunDurableDirectShard(DurableShardConfig{RunID: 7, ShardID: 0, Addr: "mem",
			Dial: func() (Conn, error) { return coordShard, nil },
			AcceptData: func() (Conn, error) {
				conn, ok := <-acc
				if !ok {
					return nil, errors.New("ingest closed")
				}
				return conn, nil
			}})
	}()
	if _, err := coordServer.Recv(); err != nil { // the ShardHello
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // the rest of the quota enrolls
	_ = coordServer.Send(ShardAssign{ShardID: 0, NumShards: 1, Dim: 4, Rounds: 1, Weights: []float64{1}})
	shardSide, client := NewMemPair()
	_ = client.Send(DataHello{ClientID: 0, ShardID: 0, NumShards: 1, Dim: 4, Members: []int{0}})
	acc <- shardSide
	_ = client.Send(SliceUpload{ClientID: 0, Round: 1, Idx: []int{1}, Val: []float64{1}, Rank: []int{0}})
	if _, err := coordServer.Recv(); err != nil { // the ShardResult
		t.Fatalf("no round-1 result: %v", err)
	}
	_ = coordServer.Send(RoundSeal{Round: 1, Members: []int{1}})
	_ = client.Send(SliceFetch{ClientID: 0, Round: 1})
	if msg, err := client.Recv(); err != nil {
		t.Fatalf("no round-1 broadcast slice: %v (%T)", err, msg)
	}
	if err := awaitShard(t, done, client, coordServer); err != nil {
		t.Fatalf("durable shard: %v", err)
	}
}

// TestResumeRejectsBadLog pins the refusal paths of a durable resume: a
// log written under a different configuration, by a different writer
// kind, or for a different run must never be replayed.
func TestResumeRejectsBadLog(t *testing.T) {
	dir := t.TempDir()
	mkLog := func(name string, rs wal.RunStart, recs ...wal.Record) (string, uint64) {
		path := filepath.Join(dir, name)
		log, err := wal.Create(path, rs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := log.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		return path, rs.RunID
	}
	cfg := ServerConfig{K: 4, Rounds: 6, InitialParams: make([]float64, 10)}
	conf := coordConf(cfg, 2, 0)
	weights := []float64{1, 1}
	resume := func(path string, runID uint64) error {
		desk := NewRejoinDesk(func() (Conn, error) { return nil, errors.New("closed") })
		defer desk.Close()
		rcfg := cfg
		rcfg.Durable = &DurableServerConfig{RunID: runID, WALPath: path, Desk: desk, Resume: true}
		_, err := RunServerPeers(nil, rcfg)
		return err
	}

	path, id := mkLog("engine.wal", wal.RunStart{RunID: 9, Kind: wal.KindEngine, Conf: conf, Weights: weights})
	if err := resume(path, id); err == nil || !strings.Contains(err.Error(), "writer kind") {
		t.Fatalf("engine-kind log resumed as coordinator: %v", err)
	}

	badConf := append([]int64(nil), conf...)
	badConf[1]++ // a different K
	path, id = mkLog("conf.wal", wal.RunStart{RunID: 9, Kind: wal.KindCoordinator, Conf: badConf, Weights: weights})
	if err := resume(path, id); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched configuration resumed: %v", err)
	}

	path, _ = mkLog("run.wal", wal.RunStart{RunID: 9, Kind: wal.KindCoordinator, Conf: conf, Weights: weights})
	if _, _, err := wal.Open(path, 10, true); !errors.Is(err, wal.ErrRunMismatch) {
		t.Fatalf("wrong-run open = %v, want ErrRunMismatch", err)
	}

	path, id = mkLog("order.wal", wal.RunStart{RunID: 9, Kind: wal.KindCoordinator, Conf: conf, Weights: weights},
		&wal.Release{Round: 1, Loss: 1, Elems: 2})
	if err := resume(path, id); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Fatalf("release-before-seal log resumed: %v", err)
	}

	// Mid-file corruption is not a torn tail: repair must refuse.
	path, id = mkLog("corrupt.wal", wal.RunStart{RunID: 9, Kind: wal.KindCoordinator, Conf: conf, Weights: weights},
		&wal.Seal{Round: 1, Loss: 1, Members: []int{1, 2}},
		&wal.Release{Round: 1, Loss: 1, Elems: 2},
		&wal.Finish{Round: 1, Ints: []int64{2}, Floats: []float64{1}})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] ^= 0xff // first body byte: CRC mismatch, not a repairable torn tail
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wal.Open(path, id, true); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("corrupted log opened = %v, want ErrCorrupt", err)
	}
}

// TestDialRetryRecoversFromLateListener pins the retry dialer: the
// listener appears only after the first attempts have failed, and
// DialRetry must land on it instead of giving up.
func TestDialRetryRecoversFromLateListener(t *testing.T) {
	probe, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close() // free the port; nothing listens now

	var ln *Listener
	var lnMu sync.Mutex
	go func() {
		time.Sleep(30 * time.Millisecond)
		l, err := Listen(addr)
		if err != nil {
			return // port raced away; the dial error path still exercises retry
		}
		lnMu.Lock()
		ln = l
		lnMu.Unlock()
		conn, err := l.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	pol := RetryPolicy{Attempts: 50, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 3}
	conn, err := DialRetry(context.Background(), addr, pol)
	if err != nil {
		t.Skipf("port was not re-bindable on this host: %v", err)
	}
	conn.Close()
	lnMu.Lock()
	if ln != nil {
		ln.Close()
	}
	lnMu.Unlock()

	// And the bounded-failure path: no listener, few attempts, fast
	// clock — the loop must exhaust and report the last error.
	dead, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if _, err := DialRetry(context.Background(), deadAddr,
		RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 3}); err == nil {
		t.Fatal("DialRetry connected to a dead address")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialRetry(ctx, deadAddr, RetryPolicy{Attempts: 5, BaseDelay: time.Hour, Seed: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled DialRetry = %v, want context.Canceled", err)
	}
}

// TestRejoinDeskClassifies pins the desk: rejoins stream through,
// non-rejoin handshakes — each of the other three hello types — are
// closed, and a silent connection cannot stall later arrivals.
func TestRejoinDeskClassifies(t *testing.T) {
	hub := make(chan Conn, 8)
	desk := NewRejoinDesk(func() (Conn, error) {
		conn, ok := <-hub
		if !ok {
			return nil, errors.New("closed")
		}
		return conn, nil
	})
	defer desk.Close()

	// Stray enrolments: classified away, never surfaced.
	var strays []Conn
	for _, hello := range []any{
		Hello{ClientID: 1, Members: []int{1}, Weights: []float64{1}},
		ShardHello{Addr: "127.0.0.1:9", ID: 1, HasID: true},
		DataHello{ClientID: 1, ShardID: 0, NumShards: 1, Dim: 4, Members: []int{1}},
	} {
		strayServer, strayClient := NewMemPair()
		hub <- strayServer
		go func() { _ = strayClient.Send(hello) }()
		strays = append(strays, strayClient)
	}

	// A silent conn: parks in its own classifier goroutine.
	silentServer, _ := NewMemPair()
	hub <- silentServer

	// A real rejoin: must come out of Next despite the two above.
	rjServer, rjClient := NewMemPair()
	hub <- rjServer
	want := Rejoin{RunID: 7, Kind: RejoinClient, ID: 3, Round: 2, LastSeal: 1}
	go func() { _ = rjClient.Send(want) }()

	conn, rj, err := desk.Next(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rj != want {
		t.Fatalf("classified rejoin %+v, want %+v", rj, want)
	}
	conn.Close()

	for i, stray := range strays {
		if _, err := stray.Recv(); err == nil {
			t.Fatalf("stray non-rejoin conn %d was not closed", i)
		}
	}
}

// TestHandshakeDeadline pins the deadline on the first Recv of every
// handshake: a connected-but-silent peer must not park the acceptor
// forever.
func TestHandshakeDeadline(t *testing.T) {
	saved := handshakeTimeout.Swap(int64(50 * time.Millisecond))
	defer handshakeTimeout.Store(saved)

	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	silent, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := AcceptPeer(conn); err == nil {
		t.Fatal("AcceptPeer returned a peer from a silent connection")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("AcceptPeer took %v, deadline did not apply", d)
	}
}

// TestRunServerHandshakeDeadline is TestHandshakeDeadline for a
// coordinator that classifies its own connections: one client that
// connects and never says Hello must fail the run with the deadline
// error, not wedge it.
func TestRunServerHandshakeDeadline(t *testing.T) {
	saved := handshakeTimeout.Swap(int64(50 * time.Millisecond))
	defer handshakeTimeout.Store(saved)

	server, silent := NewMemPair()
	defer silent.Close()
	done := make(chan error, 1)
	go func() {
		_, err := runServer([]Conn{server}, ServerConfig{K: 1, Rounds: 1, InitialParams: []float64{0}})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("coordinator = %v, want the handshake deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator wedged on a silent client")
	}
}
