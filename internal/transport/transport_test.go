package transport

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
)

func TestMemPairRoundTrip(t *testing.T) {
	a, b := NewMemPair()
	if err := a.Send(Hello{ClientID: 3, Weight: 7}); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	hello, ok := msg.(Hello)
	if !ok || hello.ClientID != 3 || hello.Weight != 7 {
		t.Fatalf("got %#v", msg)
	}
	// Close semantics.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Hello{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed = %v", err)
	}
	if _, err := a.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("recv on closed = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close should be fine")
	}
}

func TestGobConnRoundTrip(t *testing.T) {
	server, client := net.Pipe()
	a, b := NewGobConn(server), NewGobConn(client)
	defer a.Close()
	defer b.Close()

	go func() {
		_ = a.Send(Upload{ClientID: 1, Round: 2, Idx: []int{0, 5}, Val: []float64{1.5, -2}, BatchLoss: 3.25})
	}()
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	up, ok := msg.(Upload)
	if !ok {
		t.Fatalf("got %T", msg)
	}
	if up.ClientID != 1 || up.Round != 2 || up.Idx[1] != 5 || up.Val[0] != 1.5 || up.BatchLoss != 3.25 {
		t.Fatalf("lossy round trip: %#v", up)
	}
}

func TestGobConnAllMessageTypes(t *testing.T) {
	server, client := net.Pipe()
	a, b := NewGobConn(server), NewGobConn(client)
	defer a.Close()
	defer b.Close()

	msgs := []any{
		Hello{ClientID: 1, Weight: 2},
		Init{Params: []float64{1, 2, 3}, K: 5, Rounds: 9},
		Upload{ClientID: 1, Round: 1, Idx: []int{1}, Val: []float64{2}},
		Broadcast{Round: 1, Idx: []int{0}, Val: []float64{-1}},
	}
	go func() {
		for _, m := range msgs {
			_ = a.Send(m)
		}
	}()
	for _, want := range msgs {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, sameType := map[bool]bool{}[false]; sameType {
			_ = got
		}
		if gotType, wantType := typeName(got), typeName(want); gotType != wantType {
			t.Fatalf("got %s, want %s", gotType, wantType)
		}
	}
}

func typeName(v any) string {
	switch v.(type) {
	case Hello:
		return "Hello"
	case Init:
		return "Init"
	case Upload:
		return "Upload"
	case Broadcast:
		return "Broadcast"
	default:
		return "unknown"
	}
}

// buildWorkload creates a small federated task shared by the protocol
// tests, mirroring the fl engine's seeding scheme.
func buildWorkload() (*dataset.Federated, func() *nn.Network, []float64) {
	fed := dataset.GenerateFEMNIST(dataset.FEMNISTConfig{
		NumClients:       4,
		NumClasses:       62,
		Dim:              32,
		SamplesPerClient: 30,
		ClassesPerClient: 5,
		TestSamples:      50,
		Noise:            0.4,
		StyleShift:       0.2,
		Seed:             11,
	})
	model := func() *nn.Network { return nn.NewMLP(32, []int{12}, 62) }
	// Reference initial weights: same construction as fl.Run with Seed 5.
	ref := model()
	ref.InitWeights(rand.New(rand.NewSource(5)))
	return fed, model, ref.Params()
}

// runDistributed executes the protocol over the given connection factory
// and returns the server records.
func runDistributed(t testing.TB, fed *dataset.Federated, model func() *nn.Network,
	initParams []float64, k, rounds, quantBits int, pair func() (server, client Conn)) []RoundRecord {
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
				Seed:         5 + 1000003*int64(id+1),
			})
		}(i)
	}
	records, err := RunServer(serverConns, ServerConfig{K: k, Rounds: rounds, InitialParams: initParams, QuantBits: quantBits})
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

func TestDistributedMatchesReferenceEngine(t *testing.T) {
	fed, model, initParams := buildWorkload()
	const k, rounds = 40, 25

	records := runDistributed(t, fed, model, initParams, k, rounds, 0,
		func() (Conn, Conn) { return NewMemPair() })

	// Reference: the in-process simulation engine with identical seeds.
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
		t.Fatalf("distributed ran %d rounds, reference %d", len(records), len(ref.Stats))
	}
	for i := range records {
		if records[i].Loss != ref.Stats[i].Loss {
			t.Fatalf("round %d: distributed loss %v != reference %v (trajectories must be bit-identical)",
				i+1, records[i].Loss, ref.Stats[i].Loss)
		}
		if records[i].DownlinkElems != ref.Stats[i].DownlinkElems {
			t.Fatalf("round %d: downlink %d != %d", i+1, records[i].DownlinkElems, ref.Stats[i].DownlinkElems)
		}
	}
}

// runDistributedTCP runs the routed protocol over real TCP sockets,
// wrapping each side with the given codec constructor.
func runDistributedTCP(t *testing.T, fed *dataset.Federated, model func() *nn.Network,
	initParams []float64, k, rounds, quantBits int, codec func(net.Conn) Conn) []RoundRecord {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	n := fed.NumClients()
	accepted := make(chan Conn, n)
	go func() {
		for i := 0; i < n; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- codec(c)
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs[id] = err
				return
			}
			defer conn.Close()
			errs[id] = RunClient(codec(conn), ClientConfig{
				ID:           id,
				Data:         &fed.Clients[id],
				Model:        model,
				LearningRate: 0.1,
				BatchSize:    8,
				Seed:         5 + 1000003*int64(id+1),
			})
		}(i)
	}
	serverConns := make([]Conn, n)
	for i := 0; i < n; i++ {
		serverConns[i] = <-accepted
	}
	records, err := RunServer(serverConns, ServerConfig{K: k, Rounds: rounds, InitialParams: initParams, QuantBits: quantBits})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for id, e := range errs {
		if e != nil {
			t.Fatalf("client %d: %v", id, e)
		}
	}
	return records
}

func TestDistributedOverTCP(t *testing.T) {
	fed, model, initParams := buildWorkload()
	const k, rounds = 40, 10

	// Both wire codecs and the in-memory transport must produce the
	// same trajectory bit-for-bit.
	memRecords := runDistributed(t, fed, model, initParams, k, rounds, 0,
		func() (Conn, Conn) { return NewMemPair() })
	for _, tc := range []struct {
		name  string
		codec func(net.Conn) Conn
	}{
		{"binary", NewBinConn},
		{"gob", NewGobConn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			records := runDistributedTCP(t, fed, model, initParams, k, rounds, 0, tc.codec)
			for i := range records {
				if records[i].Loss != memRecords[i].Loss {
					t.Fatalf("round %d: TCP/%s loss %v != mem loss %v", i+1, tc.name, records[i].Loss, memRecords[i].Loss)
				}
			}
		})
	}
}

func TestDistributedLossDecreases(t *testing.T) {
	fed, model, initParams := buildWorkload()
	records := runDistributed(t, fed, model, initParams, 40, 60, 0,
		func() (Conn, Conn) { return NewMemPair() })
	first := records[0].Loss
	last := records[len(records)-1].Loss
	if math.IsNaN(last) || last >= first {
		t.Fatalf("distributed training did not learn: %v -> %v", first, last)
	}
}

func TestServerRejectsBadHandshake(t *testing.T) {
	a, b := NewMemPair()
	go func() {
		_ = b.Send(Broadcast{Round: 1}) // not a Hello
	}()
	if _, err := RunServer([]Conn{a}, ServerConfig{K: 2, Rounds: 1, InitialParams: []float64{0}}); err == nil {
		t.Fatal("server accepted a non-Hello handshake")
	}
}

func TestServerRejectsDuplicateIDs(t *testing.T) {
	a1, b1 := NewMemPair()
	a2, b2 := NewMemPair()
	go func() { _ = b1.Send(Hello{ClientID: 0, Weight: 1}) }()
	go func() { _ = b2.Send(Hello{ClientID: 0, Weight: 1}) }()
	if _, err := RunServer([]Conn{a1, a2}, ServerConfig{K: 2, Rounds: 1, InitialParams: []float64{0}}); err == nil {
		t.Fatal("server accepted duplicate client ids")
	}
}

// TestValidateUpload pins the routed coordinators' shared trust boundary
// (RunServerPeers, the durable server and the population server all call
// it): shape, sender, quantization width, range, duplicates — and values,
// where NaN and ±Inf are rejected naming round and client while every
// finite bit pattern passes.
func TestValidateUpload(t *testing.T) {
	const round, client, bits, dim = 3, 5, 0, 8
	mk := func(idx []int, val []float64) Upload {
		return Upload{ClientID: client, Round: round, Idx: idx, Val: val}
	}
	cases := []struct {
		name string
		up   Upload
		want string // "" = accepted
	}{
		{"well-formed", mk([]int{7, 0, 3}, []float64{1, -2, 0.5}), ""},
		{"empty", mk(nil, nil), ""},
		{"-0", mk([]int{1}, []float64{math.Copysign(0, -1)}), ""},
		{"+0", mk([]int{1}, []float64{0}), ""},
		{"denormal", mk([]int{1, 2}, []float64{5e-324, -5e-324}), ""},
		{"largest finite", mk([]int{1, 2}, []float64{math.MaxFloat64, -math.MaxFloat64}), ""},
		{"NaN", mk([]int{1, 4}, []float64{1, math.NaN()}), "round 3: client 5 uploaded non-finite value NaN at index 4"},
		{"+Inf", mk([]int{6}, []float64{math.Inf(1)}), "round 3: client 5 uploaded non-finite value +Inf at index 6"},
		{"-Inf", mk([]int{0, 2}, []float64{math.Inf(-1), 1}), "round 3: client 5 uploaded non-finite value -Inf at index 0"},
		{"stale round", Upload{ClientID: client, Round: 2}, "stale upload"},
		{"forged sender", Upload{ClientID: 4, Round: round}, "stale upload"},
		{"ragged", mk([]int{1, 2}, []float64{1}), "2 indices with 1 values"},
		{"wrong width", Upload{ClientID: client, Round: round, Bits: 8}, "8-bit quantization, run uses 0"},
		{"negative index", mk([]int{-1}, []float64{1}), "out of range"},
		{"index past the model", mk([]int{dim}, []float64{1}), "out of range"},
		{"duplicate", mk([]int{2, 2}, []float64{1, 1}), "duplicate index 2"},
	}
	seen := make([]int, dim)
	for token, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateUpload(tc.up, round, client, bits, seen, token+1)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestServerRejectsNonFiniteUpload drives the check through a real
// coordinator: the round fails naming the poisoning client instead of
// broadcasting a NaN into every model.
func TestServerRejectsNonFiniteUpload(t *testing.T) {
	a0, b0 := NewMemPair()
	a1, b1 := NewMemPair()
	peer := func(c Conn, id int, val float64) {
		_ = c.Send(Hello{ClientID: id, Weight: 1})
		if _, err := c.Recv(); err != nil { // Init
			return
		}
		_ = c.Send(Upload{ClientID: id, Round: 1, Idx: []int{1}, Val: []float64{val}})
	}
	go peer(b0, 0, 0.25)
	go peer(b1, 1, math.Inf(-1))
	_, err := RunServer([]Conn{a0, a1}, ServerConfig{K: 2, Rounds: 1, InitialParams: []float64{0, 0, 0}})
	if err == nil || !strings.Contains(err.Error(), "round 1: client 1 uploaded non-finite value -Inf") {
		t.Fatalf("error %v, want the non-finite upload of client 1 in round 1", err)
	}
}

func TestFaultConnInjectsFailure(t *testing.T) {
	fed, model, initParams := buildWorkload()
	n := fed.NumClients()
	serverConns := make([]Conn, n)
	clientConns := make([]Conn, n)
	for i := range serverConns {
		s, c := NewMemPair()
		if i == 0 {
			// Client 0's link dies after a few messages.
			c = NewFaultConn(c, FaultFailSend, 3, 1)
		}
		serverConns[i], clientConns[i] = s, c
	}
	var wg sync.WaitGroup
	clientErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			clientErrs[id] = RunClient(clientConns[id], ClientConfig{
				ID:           id,
				Data:         &fed.Clients[id],
				Model:        model,
				LearningRate: 0.1,
				BatchSize:    8,
				Seed:         int64(id + 1),
			})
			// Unblock the server by closing our end on failure.
			_ = clientConns[id].Close()
			_ = serverConns[id].Close()
		}(i)
	}
	_, err := RunServer(serverConns, ServerConfig{K: 20, Rounds: 50, InitialParams: initParams})
	// The server aborts mid-round; release the surviving clients blocked
	// on their broadcast Recv before joining them.
	for _, s := range serverConns {
		_ = s.Close()
	}
	for _, c := range clientConns {
		_ = c.Close()
	}
	wg.Wait()
	if err == nil {
		t.Fatal("server should surface the injected failure")
	}
	if !errors.Is(clientErrs[0], ErrInjected) {
		t.Fatalf("client 0 error = %v, want injected failure", clientErrs[0])
	}
}
