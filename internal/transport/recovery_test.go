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

// durableNet abstracts the wiring of a durable deployment so the crash
// matrix runs identically over in-memory pairs and real TCP sockets:
// every control-plane dial (initial or rejoin) lands in coordConns, the
// data plane is addressed by string, and new ingest addresses can be
// registered mid-run (a fresh shard restart listens somewhere new).
type durableNet struct {
	dialCoord func() (Conn, error)
	dialData  func(addr string) (Conn, error)
	// coordConns receives the server side of every control dial —
	// first the initial handshakes, then rejoins (fed to the desk).
	coordConns chan Conn
	// addData registers a fresh ingest address and returns its accept
	// hook.
	addData  func(name string) (string, func() (Conn, error))
	teardown func()
}

func memDurableNet() *durableNet {
	hub := make(chan Conn, 256)
	var mu sync.Mutex
	data := make(map[string]chan Conn)
	closed := false
	n := &durableNet{coordConns: hub}
	n.dialCoord = func() (Conn, error) {
		server, client := NewMemPair()
		mu.Lock()
		defer mu.Unlock()
		if closed {
			return nil, errors.New("mem net closed")
		}
		hub <- server
		return client, nil
	}
	n.dialData = func(addr string) (Conn, error) {
		mu.Lock()
		ch, ok := data[addr]
		mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("unknown ingest address %q", addr)
		}
		server, client := NewMemPair()
		ch <- server
		return client, nil
	}
	n.addData = func(name string) (string, func() (Conn, error)) {
		addr := "mem-" + name
		ch := make(chan Conn, 256)
		mu.Lock()
		data[addr] = ch
		mu.Unlock()
		return addr, func() (Conn, error) {
			conn, ok := <-ch
			if !ok {
				return nil, errors.New("ingest closed")
			}
			return conn, nil
		}
	}
	n.teardown = func() {
		mu.Lock()
		closed = true
		mu.Unlock()
		close(hub)
		for _, ch := range data {
			close(ch)
		}
	}
	return n
}

func tcpDurableNet(t *testing.T) *durableNet {
	t.Helper()
	pol := RetryPolicy{Attempts: 20, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond,
		AttemptTimeout: 5 * time.Second, Seed: 7}
	coordLn, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := make(chan Conn, 256)
	go func() {
		for {
			conn, err := coordLn.Accept()
			if err != nil {
				close(hub)
				return
			}
			hub <- conn
		}
	}()
	var mu sync.Mutex
	var lns []*Listener
	n := &durableNet{coordConns: hub}
	n.dialCoord = func() (Conn, error) {
		return DialRetry(context.Background(), coordLn.Addr().String(), pol)
	}
	n.dialData = func(addr string) (Conn, error) {
		return DialRetry(context.Background(), addr, pol)
	}
	n.addData = func(string) (string, func() (Conn, error)) {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		lns = append(lns, ln)
		mu.Unlock()
		return ln.Addr().String(), ln.Accept
	}
	n.teardown = func() {
		coordLn.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, ln := range lns {
			ln.Close()
		}
	}
	return n
}

// collectDurablePeers drains the initial handshakes off the net's
// coordinator stream: nClients Hellos plus one ShardHello per entry of
// shardAddrs, with the shard control conns ordered by advertised
// address (shard identity is positional in ShardConns).
func collectDurablePeers(t *testing.T, net *durableNet, nClients int, shardAddrs []string) ([]Peer, []Conn) {
	t.Helper()
	clients := make([]Peer, 0, nClients)
	byAddr := make(map[string]Conn)
	for len(clients) < nClients || len(byAddr) < len(shardAddrs) {
		var conn Conn
		select {
		case conn = <-net.coordConns:
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out collecting initial peers (%d clients, %d shards so far)", len(clients), len(byAddr))
		}
		p, err := AcceptPeer(conn)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case p.Hello != nil:
			clients = append(clients, p)
		case p.Shard != nil:
			byAddr[p.Shard.Addr] = p.Conn
		default:
			t.Fatalf("unexpected initial peer %+v", p)
		}
	}
	shardConns := make([]Conn, len(shardAddrs))
	for s, addr := range shardAddrs {
		conn, ok := byAddr[addr]
		if !ok {
			t.Fatalf("no shard hello from %q", addr)
		}
		shardConns[s] = conn
	}
	return clients, shardConns
}

var errBoom = errors.New("injected coordinator crash")

// runDurableRecovery drives one full durable deployment — clients (and,
// in direct mode, shards) on goroutines, the durable coordinator in the
// test goroutine — optionally crashing the coordinator at (boundary,
// crashRound) and resuming it from the WAL, and optionally killing
// shard killShard after round killRound and restarting it fresh at a
// new ingest address. Returns the coordinator's final records; every
// client and every (surviving) shard must exit cleanly.
func runDurableRecovery(t *testing.T, net *durableNet, direct bool, nShards int,
	boundary Boundary, crashRound, killShard, killRound int) []RoundRecord {
	t.Helper()
	fed, model, initParams := buildWorkload()
	n := fed.NumClients()
	const k, rounds = 40, 6
	runID := wal.RunID(42)
	walPath := filepath.Join(t.TempDir(), "coord.wal")

	shardAddrs := make([]string, nShards)
	shardAccepts := make([]func() (Conn, error), nShards)
	for s := 0; s < nShards; s++ {
		shardAddrs[s], shardAccepts[s] = net.addData(fmt.Sprintf("shard-%d", s))
	}

	var wg sync.WaitGroup
	cliErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.dialCoord()
			if err != nil {
				cliErrs[id] = err
				return
			}
			defer conn.Close()
			cliErrs[id] = RunClient(conn, ClientConfig{
				ID:           id,
				Data:         &fed.Clients[id],
				Model:        model,
				LearningRate: 0.1,
				BatchSize:    8,
				Seed:         fl.ClientSeed(5, id),
				DialShard:    net.dialData,
				Redial:       net.dialCoord,
			})
		}(i)
	}
	shardErrs := make([]error, nShards)
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cfg := DurableShardConfig{RunID: runID, ShardID: s, Addr: shardAddrs[s],
				Dial: net.dialCoord, AcceptData: shardAccepts[s]}
			if s == killShard {
				cfg.killAfter = killRound
				if err := RunDurableDirectShard(cfg); err == nil {
					shardErrs[s] = errors.New("kill hook did not fire")
					return
				}
				// The shard process "restarts" with no state: a new
				// ingest address, the Rejoin{Fresh} handshake, and a
				// mid-run assignment from the coordinator's redo flow.
				addr, accept := net.addData(fmt.Sprintf("shard-%d-reborn", s))
				shardErrs[s] = RunDurableDirectShard(DurableShardConfig{RunID: runID, ShardID: s,
					Addr: addr, Fresh: true, Dial: net.dialCoord, AcceptData: accept})
				return
			}
			shardErrs[s] = RunDurableDirectShard(cfg)
		}(s)
	}

	clientPeers, shardConns := collectDurablePeers(t, net, n, shardAddrs)
	desk := NewRejoinDesk(func() (Conn, error) {
		conn, ok := <-net.coordConns
		if !ok {
			return nil, errors.New("coordinator accept stream closed")
		}
		return conn, nil
	})
	defer desk.Close()

	cfg := ServerConfig{K: k, Rounds: rounds, InitialParams: initParams,
		Direct: direct, ShardConns: shardConns, ShardAddrs: shardAddrs}
	dur := DurableServerConfig{RunID: runID, WALPath: walPath, Desk: desk}
	if boundary != "" {
		crashed := false
		dur.crash = func(b Boundary, m int) error {
			if !crashed && b == boundary && m == crashRound {
				crashed = true
				return errBoom
			}
			return nil
		}
	}
	records, err := RunDurableServerPeers(clientPeers, cfg, dur)
	if boundary != "" {
		if !errors.Is(err, errBoom) {
			t.Fatalf("coordinator = %v, want the injected crash", err)
		}
		log, replayed, err := wal.Open(walPath, runID, true)
		if err != nil {
			t.Fatalf("reopening the WAL: %v", err)
		}
		// Resume as a genuinely restarted process would: no shard conns
		// and no shard directory — both are rebuilt from the rejoins.
		// (Reusing the enrollment-time cfg here once masked a resume
		// path that wrongly demanded a pre-populated ShardAddrs.)
		rcfg := cfg
		rcfg.ShardConns = nil
		rcfg.ShardAddrs = nil
		records, err = ResumeDurableServer(rcfg, dur, log, replayed, n, nShards)
		log.Close()
		if err != nil {
			t.Fatalf("resumed coordinator: %v", err)
		}
	} else if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	for id, err := range cliErrs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	for s, err := range shardErrs {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	return records
}

// assertSameTrajectory requires two record sets to be bit-identical —
// including through the CSV formatting the simulator emits, so a
// recovered run's output file is byte-for-byte the uninterrupted one.
func assertSameTrajectory(t *testing.T, got, want []RoundRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ran %d rounds, reference ran %d", len(got), len(want))
	}
	for i := range want {
		g := fmt.Sprintf("%d,%.6f,%d", got[i].Round, got[i].Loss, got[i].DownlinkElems)
		w := fmt.Sprintf("%d,%.6f,%d", want[i].Round, want[i].Loss, want[i].DownlinkElems)
		if got[i].Loss != want[i].Loss || got[i].DownlinkElems != want[i].DownlinkElems || g != w {
			t.Fatalf("round %d: %s != reference %s (loss %v vs %v)", i+1, g, w, got[i].Loss, want[i].Loss)
		}
	}
}

// TestCoordinatorCrashRecovery is the crash matrix of the durable
// control plane: the coordinator is killed at each WAL decision
// boundary in the middle of a run — {routed, direct} × {mem, TCP} —
// restarted from the log, and the finished run's records (and their
// CSV rendering) must be byte-identical to an uninterrupted
// non-durable run with the same seeds. The routed resume re-derives
// the crashed round's broadcast from re-sent uploads; the direct
// resume re-issues the logged seal verbatim.
func TestCoordinatorCrashRecovery(t *testing.T) {
	boundaries := []Boundary{BoundarySealLogged, BoundarySealSent, BoundaryReleaseLogged, BoundaryFinishLogged}
	for _, topo := range []struct {
		name    string
		direct  bool
		nShards int
	}{
		{"routed", false, 0},
		{"direct", true, 2},
	} {
		// The uninterrupted reference over the plain (non-durable)
		// protocol: recovery must not just be self-consistent, it must
		// reproduce the trajectory the failure-free deployment produces.
		var ref []RoundRecord
		if topo.direct {
			h := runDirectHarness(t, 6, 40, topo.nShards, ServerConfig{}, nil, nil, nil, nil)
			if h.srvErr != nil {
				t.Fatalf("reference direct run: %v", h.srvErr)
			}
			ref = h.records
		} else {
			fed, model, initParams := buildWorkload()
			ref = runDistributed(t, fed, model, initParams, 40, 6, 0,
				func() (Conn, Conn) { return NewMemPair() })
		}
		for _, kind := range []string{"mem", "tcp"} {
			for _, b := range boundaries {
				t.Run(fmt.Sprintf("%s/%s/%s", topo.name, kind, b), func(t *testing.T) {
					var net *durableNet
					if kind == "tcp" {
						net = tcpDurableNet(t)
					} else {
						net = memDurableNet()
					}
					defer net.teardown()
					records := runDurableRecovery(t, net, topo.direct, topo.nShards, b, 3, -1, 0)
					assertSameTrajectory(t, records, ref)
				})
			}
		}
	}
}

// TestCoordinatorCrashAtFinalFinish crashes after the last round is
// fully logged: the resume has nothing to re-issue and must return the
// complete record set without touching any peer.
func TestCoordinatorCrashAtFinalFinish(t *testing.T) {
	fed, model, initParams := buildWorkload()
	ref := runDistributed(t, fed, model, initParams, 40, 6, 0,
		func() (Conn, Conn) { return NewMemPair() })
	net := memDurableNet()
	defer net.teardown()
	records := runDurableRecovery(t, net, false, 0, BoundaryFinishLogged, 6, -1, 0)
	assertSameTrajectory(t, records, ref)
}

// TestDirectShardKillFreshRejoin kills one shard after it fully served
// a mid-run round and restarts it with no state at a new ingest
// address. The fresh process rejoins with Rejoin{Fresh}, the
// coordinator re-assigns it at the round in progress and Redo-points
// every client at the new address, the clients re-feed the barrier
// from their resend rings — and the trajectory is still bit-identical
// to the failure-free run. The coordinator itself never restarts here.
func TestDirectShardKillFreshRejoin(t *testing.T) {
	h := runDirectHarness(t, 6, 40, 2, ServerConfig{}, nil, nil, nil, nil)
	if h.srvErr != nil {
		t.Fatalf("reference direct run: %v", h.srvErr)
	}
	for _, kind := range []string{"mem", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			var net *durableNet
			if kind == "tcp" {
				net = tcpDurableNet(t)
			} else {
				net = memDurableNet()
			}
			defer net.teardown()
			records := runDurableRecovery(t, net, true, 2, "", 0, 1, 3)
			assertSameTrajectory(t, records, h.records)
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

// TestResumeRejectsBadLog pins the refusal paths of
// ResumeDurableServer: a log written under a different configuration,
// by a different writer kind, or for a different run must never be
// replayed.
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
		log, recs, err := wal.Open(path, runID, true)
		if err != nil {
			return err
		}
		defer log.Close()
		desk := NewRejoinDesk(func() (Conn, error) { return nil, errors.New("closed") })
		defer desk.Close()
		_, err = ResumeDurableServer(cfg, DurableServerConfig{RunID: runID, Desk: desk}, log, recs, 2, 0)
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

// TestRunServerHandshakeDeadline is TestHandshakeDeadline for
// RunServer's own enrolment loop: one client that connects and never
// says Hello must fail the run with the deadline error, not wedge it.
func TestRunServerHandshakeDeadline(t *testing.T) {
	saved := handshakeTimeout.Swap(int64(50 * time.Millisecond))
	defer handshakeTimeout.Store(saved)

	server, silent := NewMemPair()
	defer silent.Close()
	done := make(chan error, 1)
	go func() {
		_, err := RunServer([]Conn{server}, ServerConfig{K: 1, Rounds: 1, InitialParams: []float64{0}})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("RunServer = %v, want the handshake deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunServer wedged on a silent client")
	}
}
