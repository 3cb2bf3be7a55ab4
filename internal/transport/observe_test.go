package transport

import (
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"

	"fedsparse/internal/admin"
	"fedsparse/internal/fl"
)

// recObserver records every observer callback.
type recObserver struct {
	starts []int
	events []fl.RoundEvent
	done   bool
	err    error
}

func (r *recObserver) OnRoundStart(round int)      { r.starts = append(r.starts, round) }
func (r *recObserver) OnRoundEnd(ev fl.RoundEvent) { r.events = append(r.events, ev) }
func (r *recObserver) OnRunEnd(err error)          { r.done, r.err = true, err }

// TestObserverStreamMatchesRecords pins the transport event contract on
// the sharded (direct) path: one start and one event per round in
// order, engine-only metrics NaN, per-shard reduce timings present —
// and attaching the observer changes no round (the passivity contract).
func TestObserverStreamMatchesRecords(t *testing.T) {
	const k, rounds, nShards = 40, 6, 2
	run := func(cfg ServerConfig) []fl.RoundEvent {
		h := runDirectHarness(t, rounds, k, nShards, cfg, nil, nil, nil, nil)
		h.requireClean(t)
		return h.records
	}

	rec := &recObserver{}
	run(ServerConfig{Observer: rec})
	plain := run(ServerConfig{})

	if len(rec.events) != rounds || len(rec.starts) != rounds {
		t.Fatalf("got %d events / %d starts, want %d each", len(rec.events), len(rec.starts), rounds)
	}
	if !rec.done || rec.err != nil {
		t.Fatalf("OnRunEnd: done=%v err=%v", rec.done, rec.err)
	}
	for i, ev := range rec.events {
		if rec.starts[i] != i+1 || ev.Round != i+1 {
			t.Fatalf("event %d: start=%d round=%d, want %d", i, rec.starts[i], ev.Round, i+1)
		}
		if !math.IsNaN(ev.TestAcc) || !math.IsNaN(ev.TestLoss) || !math.IsNaN(ev.TrainLoss) {
			t.Fatalf("round %d: engine-only metrics not NaN: %v %v %v", i+1, ev.TestAcc, ev.TestLoss, ev.TrainLoss)
		}
		if len(ev.ShardReduceSeconds) != nShards {
			t.Fatalf("round %d: %d shard reduce timings, want %d", i+1, len(ev.ShardReduceSeconds), nShards)
		}
		// In-memory conns have no byte accounting.
		if ev.BytesUp != 0 || ev.BytesDown != 0 {
			t.Fatalf("round %d: mem conns reported bytes %d/%d", i+1, ev.BytesUp, ev.BytesDown)
		}
	}
	requireSameTrajectory(t, plain, rec.events)
}

// TestObserverCountsWireBytes runs the routed protocol over loopback
// TCP with the binary codec and requires every round's event to carry
// nonzero uplink and downlink byte counts.
func TestObserverCountsWireBytes(t *testing.T) {
	cfg, err := wireConfig(runSpec{rounds: 4}.config(0), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = &fl.Collector{}
	net := tcpNet(t)
	defer net.teardown()
	events, err := deploy(t, net, cfg, layout{})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if ev.BytesUp == 0 || ev.BytesDown == 0 {
			t.Fatalf("round %d: bytes up/down %d/%d, want nonzero", i+1, ev.BytesUp, ev.BytesDown)
		}
	}
}

// TestBinConnByteCounters pins the codec-level accounting both ends of
// a TCP link agree on: what one side sent is what the other received.
func TestBinConnByteCounters(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acc <- c
		}
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewBinConn(<-acc), NewBinConn(cli)
	defer a.Close()
	defer b.Close()

	ac, ok := a.(ByteCounter)
	if !ok {
		t.Fatal("binConn does not implement ByteCounter")
	}
	bc := b.(ByteCounter)
	if ac.BytesSent()+ac.BytesReceived()+bc.BytesSent()+bc.BytesReceived() != 0 {
		t.Fatal("fresh conns report nonzero byte counts")
	}
	msg := Upload{ClientID: 1, Round: 2, Idx: []int{0, 5}, Val: []float64{1.5, -2}, BatchLoss: 3.25}
	if err := b.Send(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
	if bc.BytesSent() == 0 {
		t.Fatal("sender counted zero bytes")
	}
	if got, want := ac.BytesReceived(), bc.BytesSent(); got != want {
		t.Fatalf("receiver counted %d bytes, sender %d", got, want)
	}

	// Mem conns opt out of accounting entirely.
	m, _ := NewMemPair()
	if _, ok := m.(ByteCounter); ok {
		t.Fatal("mem conn unexpectedly implements ByteCounter")
	}
}

// killerObserver closes a connection at the start of a chosen round.
type killerObserver struct {
	round int
	conn  Conn
	check func()
}

func (k *killerObserver) OnRoundStart(m int) {
	if k.check != nil && m == k.round {
		k.check()
	}
	if m == k.round {
		_ = k.conn.Close()
	}
}
func (k *killerObserver) OnRoundEnd(fl.RoundEvent) {}
func (k *killerObserver) OnRunEnd(error)           {}

// TestAdminReadyzFlipsOnShardKill wires a real admin server to a live
// sharded run and kills the shard mid-run: /readyz must report ready
// while rounds are completing and flip to 503 with the failure once the
// shard's death ends the run.
func TestAdminReadyzFlipsOnShardKill(t *testing.T) {
	fed, _, _ := buildWorkload()
	const k, rounds = 40, 8

	adm, err := admin.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	readyz := func() (int, string) {
		resp, err := http.Get("http://" + adm.Addr() + "/readyz")
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	adm.SetExpected(fed.NumClients(), 1)
	adm.SetEnrolled(fed.NumClients(), 1)

	killer := &killerObserver{round: 3, check: func() {
		if code, body := readyz(); code != http.StatusOK {
			t.Errorf("mid-run /readyz = %d %q, want 200", code, body)
		}
	}}
	// The shard's control link is the one the killer cuts; clients and
	// the shard die with the run, their errors are the kill's fault.
	h := runDirectHarness(t, rounds, k, 1, ServerConfig{Observer: fl.MultiObserver(adm, killer)}, nil, nil,
		func(_ int, c Conn) Conn { killer.conn = c; return c }, nil)
	if h.srvErr == nil {
		t.Fatal("run survived its only shard dying")
	}
	if len(h.records) != 2 {
		t.Fatalf("completed %d rounds before the kill, want 2", len(h.records))
	}

	code, body := readyz()
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "run failed") {
		t.Fatalf("post-kill /readyz = %d %q, want 503 run failed", code, body)
	}
}
