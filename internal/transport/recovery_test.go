package transport

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

	// A direct seal is a cut: its cutoff is a rank, and its fill lies
	// inside |J|. A resume refuses either before it re-issues anything.
	dcfg := cfg
	dcfg.Direct = true
	for name, seal := range map[string]*wal.Seal{
		"negative cutoff": {Round: 1, Kappa: -1, Elems: 2, Spans: []int{0, 0, 0}},
		"fill past |J|":   {Round: 1, Kappa: 2, Elems: 1, Members: []int{3, 7}, Spans: []int{0, 1, 2}},
	} {
		path, id = mkLog("cut.wal", wal.RunStart{RunID: 9, Kind: wal.KindCoordinator, Conf: coordConf(dcfg, 2, 2), Weights: weights}, seal)
		desk := NewRejoinDesk(func() (Conn, error) { return nil, errors.New("closed") })
		rcfg := dcfg
		rcfg.Durable = &DurableServerConfig{RunID: id, WALPath: path, Desk: desk, Resume: true}
		_, err := RunServerPeers(nil, rcfg)
		desk.Close()
		if err == nil || !strings.Contains(err.Error(), "transport: resume: seal for round 1 cuts at rank") {
			t.Fatalf("%s: resumed: %v", name, err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
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

// deskRule is one row of the durable tier's desk table: an admit rule,
// the hellos it admits with the keys it stages them under, and the
// hellos it refuses with the refusal each must name.
type deskRule struct {
	admit func(Peer) (deskKey, error)
	// peers are admitted hellos, staged under keys.
	peers   []any
	keys    []deskKey
	refused []deskRefusal
}

type deskRefusal struct {
	hello any
	want  string
}

// deskRules holds one row per admit rule of the one desk: the
// coordinator's Rejoin rule and a durable shard's DataHello rule
// (checkDataHello).
func deskRules() map[string]deskRule {
	// Shard 0 of 2 over dim 10 and its two clients.
	assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 1, Weights: []float64{1, 1}}
	data := func(id, numShards int, members ...int) DataHello {
		return DataHello{ClientID: id, ShardID: 0, NumShards: numShards, Dim: 10, Members: members}
	}
	hello := Hello{ClientID: 1, Members: []int{1}, Weights: []float64{1}}
	shardHello := ShardHello{Addr: "127.0.0.1:9", ID: 1, HasID: true}
	return map[string]deskRule{
		"rejoin": {rejoinRule(7, 2, 1),
			[]any{Rejoin{RunID: 7, Kind: RejoinClient, ID: 1, Round: 2, LastSeal: 1}, Rejoin{RunID: 7, Kind: RejoinShard, Addr: "127.0.0.1:9", Fresh: true}},
			[]deskKey{{"client", 1}, {"shard", 0}},
			[]deskRefusal{
				{hello, "transport: non-rejoin peer on the rejoin desk"},
				{shardHello, "transport: non-rejoin peer on the rejoin desk"},
				{data(0, 2, 0), "transport: non-rejoin peer on the rejoin desk"},
				{Rejoin{RunID: 8, Kind: RejoinClient}, "transport: rejoin to run 0x8, this run is 0x7"},
				{Rejoin{RunID: 7, Kind: RejoinClient, ID: 2}, "transport: rejoin of kind 1, id 2 is outside this run"},
				{Rejoin{RunID: 7, Kind: RejoinShard, ID: -1}, "transport: rejoin of kind 2, id -1 is outside this run"},
				{Rejoin{RunID: 7, Kind: 3}, "transport: rejoin of kind 3, id 0 is outside this run"},
			}},
		"data": {dataRule(assign),
			[]any{data(1, 2, 1), data(0, 2, 0)},
			[]deskKey{{"client", 1}, {"client", 0}},
			[]deskRefusal{
				{hello, "transport: shard 0: non-data peer on the ingest plane"},
				{shardHello, "transport: shard 0: non-data peer on the ingest plane"},
				{Rejoin{RunID: 7, Kind: RejoinClient}, "transport: shard 0: non-data peer on the ingest plane"},
				{data(0, 2, 1), "transport: shard 0: client 0 roster [1], want [0]"},
				{data(0, 2), "transport: shard 0: client 0 roster [], want [0]"},
				{data(0, 2, 1, 0), "transport: shard 0: client 0 roster [1 0], want [0]"},
				{data(0, 2, 0, 1), "transport: shard 0: client 0 roster [0 1], want [0]"},
				{data(5, 2, 5), "transport: shard 0: client id 5 out of range [0, 2)"},
				{data(0, 3, 0), "transport: shard 0: client 0 presented a stale shard directory (3 shards over dim 10 aimed at shard 0; this deployment is 2 over 10)"},
			}},
	}
}

// TestRejoinDeskClassifies drives the desk under the coordinator's
// Rejoin rule (the "rejoin" row of deskRules) through testDeskRule.
func TestRejoinDeskClassifies(t *testing.T) { testDeskRule(t, deskRules()["rejoin"]) }

// TestDataDeskCloseDrainsStagedConns drives the desk under a durable
// shard's DataHello rule (the "data" row of deskRules) through
// testDeskRule.
func TestDataDeskCloseDrainsStagedConns(t *testing.T) { testDeskRule(t, deskRules()["data"]) }

// testDeskRule drives the durable tier's one desk under one admit rule.
// Every refused hello is closed with its refusal named — the other three
// hello types, and the rule's own refusals — a silent connection does
// not stall later arrivals, a newer arrival closes the one staged under
// its key, take's timeout names the awaited peer, and Close drains every
// staged connection.
func testDeskRule(t *testing.T, tc deskRule) {
	hub := make(chan Conn, 8)
	d := newDesk(func() (Conn, error) {
		conn, ok := <-hub
		if !ok {
			return nil, errors.New("closed")
		}
		return conn, nil
	})
	defer close(hub)
	defer d.Close()
	d.open(tc.admit)
	// dial sends hello on a new connection, through the accept
	// loop or (serve false) straight into stage, and returns the
	// peer's end and the desk's.
	dial := func(hello any, serve bool) (Conn, Conn, error) {
		server, client := NewMemPair()
		if err := client.Send(hello); err != nil {
			t.Fatal(err)
		}
		if serve {
			hub <- server
			return client, server, nil
		}
		return client, server, d.stage(server)
	}
	// staged waits until conn is staged under k.
	staged := func(k deskKey, conn Conn) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			d.mu.Lock()
			p, ok := d.staged[k]
			d.mu.Unlock()
			if ok && p.Conn == conn {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%v never staged", k)
			}
		}
	}
	closed := func(what string, conn Conn) {
		t.Helper()
		if err := conn.Send(SliceFetch{}); err == nil {
			t.Errorf("%s still open", what)
		}
	}

	// Refusals, named and closed.
	for _, r := range tc.refused {
		client, _, err := dial(r.hello, false)
		if err == nil || err.Error() != r.want {
			t.Errorf("%T %+v: refusal %v, want %q", r.hello, r.hello, err, r.want)
		}
		closed(fmt.Sprintf("refused %T", r.hello), client)
	}

	// A silent connection parks in its own classifier; every
	// later arrival still stages.
	silentServer, silent := NewMemPair()
	defer silent.Close()
	hub <- silentServer
	clients := make([]Conn, len(tc.peers))
	for i, hello := range tc.peers {
		var server Conn
		clients[i], server, _ = dial(hello, true)
		staged(tc.keys[i], server)
	}

	// A redial replaces the staged connection and closes it.
	old := clients[0]
	var newer Conn
	clients[0], newer, _ = dial(tc.peers[0], true)
	staged(tc.keys[0], newer)
	closed("the replaced connection", old)
	p, err := d.take(tc.keys[0], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var got any
	if p.Rejoin != nil {
		got = *p.Rejoin
	} else if p.Data != nil {
		got = *p.Data
	}
	if p.Conn != newer || !reflect.DeepEqual(got, tc.peers[0]) {
		t.Fatalf("took %+v, want the newer %+v", got, tc.peers[0])
	}
	p.Conn.Close()

	// Nothing staged under the key now: the wait names the peer.
	want := fmt.Sprintf("transport: no connection from %v within 20ms", tc.keys[0])
	if _, err := d.take(tc.keys[0], 20*time.Millisecond); err == nil || err.Error() != want {
		t.Errorf("empty take: %v, want %q", err, want)
	}

	// Close drains every staged connection.
	var server Conn
	clients[0], server, _ = dial(tc.peers[0], true)
	staged(tc.keys[0], server)
	d.Close()
	for i, c := range clients {
		closed(fmt.Sprintf("staged %v after Close", tc.keys[i]), c)
	}
	if _, err := d.take(tc.keys[1], time.Second); err == nil {
		t.Error("take on a closed desk returned a peer")
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
