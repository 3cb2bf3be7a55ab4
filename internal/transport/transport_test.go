package transport

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/nn"
)

func TestMemPairRoundTrip(t *testing.T) {
	a, b := NewMemPair()
	if err := a.Send(Hello{ClientID: 3, Members: []int{3}, Weights: []float64{7}}); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	hello, ok := msg.(Hello)
	if !ok || hello.ClientID != 3 || len(hello.Weights) != 1 || hello.Weights[0] != 7 {
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

// runServer classifies each connection's handshake with AcceptPeer and
// runs the coordinator over the participants.
func runServer(conns []Conn, cfg ServerConfig) ([]fl.RoundEvent, error) {
	peers := make([]Peer, len(conns))
	for i, conn := range conns {
		var err error
		if peers[i], err = AcceptPeer(conn); err != nil {
			return nil, err
		}
	}
	return RunServerPeers(peers, cfg)
}

// runRouted deploys spec on the routed plane over in-memory pairs;
// wrap, if set, wraps each coordinator-side conn.
func runRouted(t testing.TB, spec runSpec, wrap func(Conn) Conn) []fl.RoundEvent {
	t.Helper()
	cfg, err := wireConfig(spec.config(0), false)
	if err != nil {
		t.Fatal(err)
	}
	net := memNet()
	defer net.teardown()
	events, err := deploy(t, net, cfg, layout{wrapCoord: wrap})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestDistributedOverTCP holds the binary TCP codec to the in-memory
// transport: the same routed run over either gives the same trajectory.
func TestDistributedOverTCP(t *testing.T) {
	spec := runSpec{rounds: 10}
	memEvents := runRouted(t, spec, nil)
	t.Run("binary", func(t *testing.T) {
		cfg, err := wireConfig(spec.config(0), false)
		if err != nil {
			t.Fatal(err)
		}
		net := tcpNet(t)
		defer net.teardown()
		events, err := deploy(t, net, cfg, layout{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTrajectory(t, events, memEvents)
	})
}

func TestDistributedLossDecreases(t *testing.T) {
	events := runRouted(t, runSpec{rounds: 60}, nil)
	first := events[0].Loss
	last := events[len(events)-1].Loss
	if math.IsNaN(last) || last >= first {
		t.Fatalf("distributed training did not learn: %v -> %v", first, last)
	}
}

func TestServerRejectsBadHandshake(t *testing.T) {
	a, b := NewMemPair()
	go func() {
		_ = b.Send(Broadcast{Round: 1}) // not a Hello
	}()
	if _, err := runServer([]Conn{a}, ServerConfig{K: 2, Rounds: 1, InitialParams: []float64{0}}); err == nil {
		t.Fatal("server accepted a non-Hello handshake")
	}
}

func TestServerRejectsDuplicateIDs(t *testing.T) {
	a1, b1 := NewMemPair()
	a2, b2 := NewMemPair()
	go func() { _ = b1.Send(Hello{ClientID: 0, Members: []int{0}, Weights: []float64{1}}) }()
	go func() { _ = b2.Send(Hello{ClientID: 0, Members: []int{0}, Weights: []float64{1}}) }()
	if _, err := runServer([]Conn{a1, a2}, ServerConfig{K: 2, Rounds: 1, InitialParams: []float64{0}}); err == nil {
		t.Fatal("server accepted duplicate client ids")
	}
}

// TestServerConfigCheck pins ServerConfig.check, the only place a
// coordinator refuses a configuration: the run-wide rows are refused in
// the same words whichever journal and roster the config names, and
// every exclusion between the tiers by its own words.
func TestServerConfigCheck(t *testing.T) {
	shard, _ := NewMemPair()
	desk := NewRejoinDesk(func() (Conn, error) { return nil, errors.New("no rejoins") })
	defer desk.Close()
	base := ServerConfig{K: 2, Rounds: 1, InitialParams: []float64{0}}
	client := []Peer{{Conn: shard, Hello: &Hello{ClientID: 0, Members: []int{0}, Weights: []float64{1}}}}
	check := func(t *testing.T, peers []Peer, cfg ServerConfig, want string) {
		t.Helper()
		if _, err := RunServerPeers(peers, cfg); err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	}
	cases := []struct {
		name string
		edit func(*ServerConfig)
		want string
	}{
		{"shards without Direct", func(c *ServerConfig) { c.ShardConns, c.ShardAddrs = []Conn{shard}, []string{"s0"} },
			"transport: ShardConns without Direct (a shard tier is the direct data plane)"},
		{"Direct without shards", func(c *ServerConfig) { c.Direct = true },
			"transport: Direct needs ShardConns (the coordinator no longer aggregates)"},
		{"address-count mismatch", func(c *ServerConfig) { c.Direct, c.ShardConns = true, []Conn{shard} },
			"transport: need one ShardAddrs entry per shard (0 addrs for 1 shards)"},
		{"bad QuantBits", func(c *ServerConfig) { c.QuantBits = 1 },
			"transport: QuantBits must be 0 (off) or in [2, 64], got 1"},
		{"bad Staleness", func(c *ServerConfig) { c.Staleness = -1 },
			"transport: Staleness must be in [0, 8], got -1"},
		{"zero K", func(c *ServerConfig) { c.K = 0 }, "transport: K must be at least 1, got 0"},
		{"negative K", func(c *ServerConfig) { c.K = -3 }, "transport: K must be at least 1, got -3"},
	}
	// The three tiers: no journal or roster, a journal, a roster. The
	// labels name each tier by its former entry point so the subtests
	// keep stable names.
	tiers := []struct {
		name string
		edit func(*ServerConfig)
	}{
		{"RunServerPeers", func(*ServerConfig) {}},
		{"RunDurableServerPeers", func(c *ServerConfig) { c.Durable = &DurableServerConfig{} }},
		{"RunPopulationServer", func(c *ServerConfig) { c.Population = &PopulationConfig{} }},
	}
	for _, tc := range cases {
		for _, tier := range tiers {
			t.Run(tc.name+"/"+tier.name, func(t *testing.T) {
				cfg := base
				tc.edit(&cfg)
				tier.edit(&cfg)
				check(t, nil, cfg, tc.want)
			})
		}
	}

	durable := func() *DurableServerConfig { return &DurableServerConfig{RunID: 1, Desk: desk} }
	exclusions := []struct {
		name  string
		peers []Peer
		edit  func(*ServerConfig)
		want  string
	}{
		{"durable with a staleness window", client, func(c *ServerConfig) { c.Durable, c.Staleness = durable(), 1 },
			"transport: durable coordinator does not support bounded staleness (Staleness=1)"},
		{"durable population", client, func(c *ServerConfig) { c.Durable, c.Population = durable(), &PopulationConfig{} },
			"transport: the durable coordinator journals a fixed client roster, not a population (set Durable or Population, not both)"},
		{"resume with peers", client, func(c *ServerConfig) { c.Durable = durable(); c.Durable.Resume = true },
			"transport: a durable resume takes no peers (got 1 participants and 0 shards): every peer rejoins through the RejoinDesk"},
		{"resume with shards", nil, func(c *ServerConfig) {
			c.Durable = durable()
			c.Durable.Resume = true
			c.Direct, c.ShardConns, c.ShardAddrs = true, []Conn{shard}, []string{"s0"}
		}, "transport: a durable resume takes no peers (got 0 participants and 1 shards): every peer rejoins through the RejoinDesk"},
		{"durable without a RunID", client, func(c *ServerConfig) { c.Durable = &DurableServerConfig{Desk: desk} },
			"transport: durable server needs a non-zero RunID (derive one with wal.RunID)"},
		{"durable without a Desk", client, func(c *ServerConfig) { c.Durable = &DurableServerConfig{RunID: 1} },
			"transport: durable server needs a RejoinDesk (durability implies recovery)"},
	}
	for _, tc := range exclusions {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			check(t, tc.peers, cfg, tc.want)
		})
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
		_ = c.Send(Hello{ClientID: id, Members: []int{id}, Weights: []float64{1}})
		if _, err := c.Recv(); err != nil { // Init
			return
		}
		_ = c.Send(Upload{ClientID: id, Round: 1, Idx: []int{1}, Val: []float64{val}})
	}
	go peer(b0, 0, 0.25)
	go peer(b1, 1, math.Inf(-1))
	_, err := runServer([]Conn{a0, a1}, ServerConfig{K: 2, Rounds: 1, InitialParams: []float64{0, 0, 0}})
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
	_, err := runServer(serverConns, ServerConfig{K: 20, Rounds: 50, InitialParams: initParams})
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

// TestRoutedClientsRejectHostileBroadcast pins the participants' trust
// boundary on B for the three routed client roles — the classic client,
// the durable client, and the virtual host: a Broadcast straight off
// the wire whose indices leave the model or whose pair lists are
// ragged, a message of the wrong kind, and a Broadcast for the wrong
// round each fail the round with the role, its identity, and the round
// named — never an index panic in the apply.
func TestRoutedClientsRejectHostileBroadcast(t *testing.T) {
	fed, model, initParams := buildWorkload()
	d := len(initParams)
	roles := []struct {
		name, who string
		// run enrolls the role on conn and returns its exit error;
		// enroll is the coordinator's scripted half of the handshake up
		// to (and including) the receipt of the round-1 upload.
		run    func(conn Conn) error
		enroll func(t *testing.T, srv Conn)
	}{
		{
			name: "client", who: "client 0",
			run: func(conn Conn) error {
				return RunClient(conn, ClientConfig{ID: 0, Data: &fed.Clients[0], Model: model, LearningRate: 0.1, BatchSize: 8, Seed: 1})
			},
			enroll: func(t *testing.T, srv Conn) {
				expectMsg[Hello](t, srv)
				_ = srv.Send(Init{Params: initParams, K: 4, Rounds: 2})
				expectMsg[Upload](t, srv)
			},
		},
		{
			name: "durable client", who: "client 0",
			run: func(conn Conn) error {
				return RunClient(conn, ClientConfig{ID: 0, Data: &fed.Clients[0], Model: model, LearningRate: 0.1, BatchSize: 8, Seed: 1,
					Redial: func() (Conn, error) { return nil, errors.New("scripted coordinator accepts no redial") }})
			},
			enroll: func(t *testing.T, srv Conn) {
				expectMsg[Hello](t, srv)
				_ = srv.Send(Init{Params: initParams, K: 4, Rounds: 2, RunID: 9})
				expectMsg[Upload](t, srv)
			},
		},
		{
			name: "virtual host", who: "host 0",
			run: func(conn Conn) error {
				return RunVirtualHost(conn, HostConfig{HostID: 0, Members: []int{0},
					Data:  func(member int) *dataset.Dataset { return &fed.Clients[member] },
					Model: model, LearningRate: 0.1, BatchSize: 8, Seed: 1})
			},
			enroll: func(t *testing.T, srv Conn) {
				expectMsg[Hello](t, srv)
				_ = srv.Send(Init{Params: initParams, K: 4, Rounds: 2})
				_ = srv.Send(CohortAssign{Round: 1, Members: []int{0}})
				if mf := expectMsg[MuxFrame](t, srv); mf.VID != 0 {
					t.Errorf("upload enveloped for member %d, want 0", mf.VID)
				}
			},
		},
	}
	cases := []struct {
		name  string
		reply any
		want  string
	}{
		{"index past the model", Broadcast{Round: 1, Idx: []int{1, d}, Val: []float64{0.5, 0.5}}, fmt.Sprintf("round 1: broadcast index %d outside [0, %d)", d, d)},
		{"negative index", Broadcast{Round: 1, Idx: []int{-1}, Val: []float64{0.5}}, fmt.Sprintf("round 1: broadcast index -1 outside [0, %d)", d)},
		{"more indices than values", Broadcast{Round: 1, Idx: []int{1, 2}, Val: []float64{0.5}}, "round 1: broadcast carries 2 indices with 1 values"},
		{"more values than indices", Broadcast{Round: 1, Idx: []int{1}, Val: []float64{0.5, 0.5}}, "round 1: broadcast carries 1 indices with 2 values"},
		{"wrong message type", RoundRelease{Round: 1}, "round 1: expected Broadcast, got transport.RoundRelease"},
		{"wrong round", Broadcast{Round: 5, Idx: []int{1}, Val: []float64{0.5}}, "round 1: stale broadcast (round 5)"},
	}
	for _, role := range roles {
		t.Run(role.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					srv, cli := NewMemPair()
					done := make(chan error, 1)
					go func() { done <- role.run(cli) }()
					role.enroll(t, srv)
					_ = srv.Send(tc.reply)
					err := <-done
					_ = srv.Close()
					want := "transport: " + role.who + " " + tc.want
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("error %v, want substring %q", err, want)
					}
				})
			}
		})
	}
}

// expectMsg receives the next message and requires its type.
func expectMsg[T any](t *testing.T, c Conn) T {
	t.Helper()
	msg, err := c.Recv()
	if err != nil {
		t.Errorf("recv: %v", err)
	}
	v, ok := msg.(T)
	if !ok {
		t.Errorf("received %T, want %T", msg, v)
	}
	return v
}
