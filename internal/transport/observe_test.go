package transport

import (
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"fedsparse/internal/admin"
	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/nn"
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

// runObserved drives the routed protocol with the given extra server
// config (the observer) over the connection factory.
func runObserved(t *testing.T, fed *dataset.Federated, model func() *nn.Network,
	initParams []float64, k, rounds int, cfg ServerConfig, pair func() (server, client Conn)) []RoundRecord {
	t.Helper()
	n := fed.NumClients()
	serverConns := make([]Conn, n)
	clientConns := make([]Conn, n)
	for i := range serverConns {
		serverConns[i], clientConns[i] = pair()
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
				Seed:         fl.ClientSeed(5, id),
			})
		}(i)
	}
	cfg.K, cfg.Rounds, cfg.InitialParams = k, rounds, initParams
	records, err := RunServer(serverConns, cfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	return records
}

// TestObserverStreamMatchesRecords pins the transport event contract on
// the sharded (direct) path: one event per round in order, fields
// mirroring the RoundRecord, engine-only metrics NaN, per-shard reduce
// timings present — and attaching the observer changes no record (the
// passivity contract).
func TestObserverStreamMatchesRecords(t *testing.T) {
	fed, _, _ := buildWorkload()
	const k, rounds, nShards = 40, 6, 2

	run := func(cfg ServerConfig) []RoundRecord {
		h := runDirectHarness(t, rounds, k, nShards, cfg, nil, nil, nil, nil)
		if err := errors.Join(h.srvErr, errors.Join(h.cliErrs...), errors.Join(h.shardErr...)); err != nil {
			t.Fatal(err)
		}
		return h.records
	}

	rec := &recObserver{}
	records := run(ServerConfig{Observer: rec})
	plain := run(ServerConfig{})

	if len(records) != rounds || len(rec.events) != rounds || len(rec.starts) != rounds {
		t.Fatalf("got %d records / %d events / %d starts, want %d each",
			len(records), len(rec.events), len(rec.starts), rounds)
	}
	if !rec.done || rec.err != nil {
		t.Fatalf("OnRunEnd: done=%v err=%v", rec.done, rec.err)
	}
	for i, ev := range rec.events {
		r := records[i]
		if rec.starts[i] != i+1 || ev.Round != i+1 {
			t.Fatalf("event %d: start=%d round=%d, want %d", i, rec.starts[i], ev.Round, i+1)
		}
		if ev.Loss != r.Loss || ev.DownlinkElems != r.DownlinkElems {
			t.Fatalf("round %d: event (%v, %d) != record (%v, %d)",
				i+1, ev.Loss, ev.DownlinkElems, r.Loss, r.DownlinkElems)
		}
		if ev.K != k || ev.KCont != float64(k) || ev.Participants != fed.NumClients() {
			t.Fatalf("round %d: k=%d kcont=%v participants=%d", i+1, ev.K, ev.KCont, ev.Participants)
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
	for i := range plain {
		if plain[i] != records[i] {
			t.Fatalf("round %d: observer perturbed the run: %+v != %+v", i+1, records[i], plain[i])
		}
	}
}

// TestObserverCountsWireBytes runs the routed protocol over loopback
// TCP with the binary codec and requires every round's event to carry
// nonzero uplink and downlink byte counts.
func TestObserverCountsWireBytes(t *testing.T) {
	fed, model, initParams := buildWorkload()
	const k, rounds = 40, 4

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, fed.NumClients())
	go func() {
		for i := 0; i < fed.NumClients(); i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- NewBinConn(c)
		}
	}()
	pair := func() (Conn, Conn) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return <-accepted, NewBinConn(c)
	}

	rec := &recObserver{}
	runObserved(t, fed, model, initParams, k, rounds, ServerConfig{Observer: rec}, pair)
	if len(rec.events) != rounds {
		t.Fatalf("got %d events, want %d", len(rec.events), rounds)
	}
	for i, ev := range rec.events {
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
