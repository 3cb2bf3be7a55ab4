package transport

import (
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
)

// popRun parameterizes one population-tier run for the tests: the
// roster partition across hosts, the sampling/churn/dropout knobs, and
// the optional direct shard plane.
type popRun struct {
	rosters   [][]int
	nShards   int // 0 = routed
	cohort    int
	churn     func(round int) (join, leave []int)
	dropout   func(client, round int) bool
	k, rounds int
	quantBits int
}

// runPopulation executes a population run over the given connection
// factory and returns the coordinator's records plus the observer's
// events. The draw rng is seeded exactly like the engine's: the Seed-5
// stream, advanced past the weight initialization.
func runPopulation(t testing.TB, fed *dataset.Federated, model func() *nn.Network,
	run popRun, pair func() (Conn, Conn), dialCount *atomic.Int32) ([]RoundRecord, []fl.RoundEvent) {
	t.Helper()
	data := func(member int) *dataset.Dataset { return &fed.Clients[member] }
	return runPopulationData(t, data, model, run, pair, dialCount)
}

// runPopulationData is runPopulation with an arbitrary member→dataset
// hook, for populations far larger than any materialized Federated
// (the 100k-member scale benchmark maps members onto a shared pool).
func runPopulationData(t testing.TB, data func(member int) *dataset.Dataset, model func() *nn.Network,
	run popRun, pair func() (Conn, Conn), dialCount *atomic.Int32) ([]RoundRecord, []fl.RoundEvent) {
	t.Helper()
	drawRng := rand.New(rand.NewSource(5))
	refNet := model()
	refNet.InitWeights(drawRng)
	initParams := refNet.Params()

	nHosts := len(run.rosters)
	serverConns := make([]Conn, nHosts)
	clientConns := make([]Conn, nHosts)
	for i := range serverConns {
		serverConns[i], clientConns[i] = pair()
	}

	// The direct shard plane: each shard accepts its ingest conns from a
	// channel the hosts' DialShard hook feeds.
	var shardWg sync.WaitGroup
	shardErrs := make([]error, run.nShards)
	shardConns := make([]Conn, run.nShards)
	shardAddrs := make([]string, run.nShards)
	ingest := make([]chan Conn, run.nShards)
	for s := 0; s < run.nShards; s++ {
		shardAddrs[s] = string(rune('A' + s))
		ingest[s] = make(chan Conn, nHosts)
		coordSide, shardSide := pair()
		shardConns[s] = coordSide
		shardWg.Add(1)
		go func(s int, conn Conn) {
			defer shardWg.Done()
			shardErrs[s] = RunDirectShard(conn, func(n int) ([]Peer, error) {
				peers := make([]Peer, n)
				for i := range peers {
					p, err := AcceptPeer(<-ingest[s])
					if err != nil {
						return nil, err
					}
					peers[i] = p
				}
				return peers, nil
			})
		}(s, shardSide)
	}
	dialShard := func(addr string) (Conn, error) {
		if dialCount != nil {
			dialCount.Add(1)
		}
		s := int(addr[0] - 'A')
		shardSide, hostSide := pair()
		ingest[s] <- shardSide
		return hostSide, nil
	}

	var hostWg sync.WaitGroup
	hostErrs := make([]error, nHosts)
	for i := 0; i < nHosts; i++ {
		hostWg.Add(1)
		go func(id int) {
			defer hostWg.Done()
			hostErrs[id] = RunVirtualHost(clientConns[id], HostConfig{
				HostID:       id,
				Members:      run.rosters[id],
				Data:         data,
				Model:        model,
				LearningRate: 0.1,
				BatchSize:    8,
				Seed:         5,
				DialShard:    dialShard,
			})
		}(i)
	}

	hostPeers := make([]Peer, nHosts)
	for i, conn := range serverConns {
		p, err := AcceptPeer(conn)
		if err != nil {
			t.Fatalf("accept host %d: %v", i, err)
		}
		hostPeers[i] = p
	}
	obs := &recObserver{}
	records, err := RunServerPeers(hostPeers, ServerConfig{
		K: run.k, Rounds: run.rounds, InitialParams: initParams, QuantBits: run.quantBits,
		Direct: run.nShards > 0, ShardConns: shardConns, ShardAddrs: shardAddrs,
		Observer: obs,
		Population: &PopulationConfig{
			Cohort:  run.cohort,
			Churn:   run.churn,
			Dropout: run.dropout,
			DrawRng: drawRng,
		},
	})
	if err != nil {
		t.Fatalf("population server: %v", err)
	}
	hostWg.Wait()
	shardWg.Wait()
	for id, err := range hostErrs {
		if err != nil {
			t.Fatalf("host %d: %v", id, err)
		}
	}
	for s, err := range shardErrs {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	return records, obs.events
}

// engineReference runs the in-process engine with identical knobs.
func engineReference(t testing.TB, fed *dataset.Federated, model func() *nn.Network, run popRun) *fl.Result {
	t.Helper()
	ref, err := fl.Run(fl.Config{
		Data:         fed,
		Model:        model,
		LearningRate: 0.1,
		BatchSize:    8,
		Rounds:       run.rounds,
		Seed:         5,
		Strategy:     &gs.FABTopK{},
		Controller:   core.NewFixedK(float64(run.k)),
		Beta:         10,
		Cohort:       run.cohort,
		Churn:        run.churn,
		Dropout:      run.dropout,
		QuantBits:    run.quantBits,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// requireSameTrajectory requires a wire run's records to equal its
// engine twin's per-round loss and downlink size, bit for bit.
func requireSameTrajectory(t *testing.T, records []RoundRecord, ref *fl.Result) {
	t.Helper()
	if len(records) != len(ref.Stats) {
		t.Fatalf("wire run ran %d rounds, reference %d", len(records), len(ref.Stats))
	}
	for i := range records {
		if records[i].Loss != ref.Stats[i].Loss {
			t.Fatalf("round %d: wire loss %v != engine %v (trajectories must be bit-identical)",
				i+1, records[i].Loss, ref.Stats[i].Loss)
		}
		if records[i].DownlinkElems != ref.Stats[i].DownlinkElems {
			t.Fatalf("round %d: downlink %d != %d", i+1, records[i].DownlinkElems, ref.Stats[i].DownlinkElems)
		}
	}
}

// TestPopulationFullCohortMatchesEngine pins the population tier's
// base case to the plain engine: cohort = population draws everyone
// every round (consuming no rng, exactly like the engine), so a
// 2-host run over interleaved rosters must reproduce fl.Run
// bit-for-bit — on the routed plane and on the direct shard plane.
func TestPopulationFullCohortMatchesEngine(t *testing.T) {
	fed, model, _ := buildWorkload()
	run := popRun{rosters: [][]int{{0, 2}, {1, 3}}, k: 40, rounds: 12}
	ref := engineReference(t, fed, model, run)

	for _, shards := range []int{0, 2} {
		run.nShards = shards
		records, _ := runPopulation(t, fed, model, run, func() (Conn, Conn) { return NewMemPair() }, nil)
		requireSameTrajectory(t, records, ref)
	}
}

// TestPopulationSampledMatchesEngine is the tentpole's bit-identity
// guarantee under real sampling: with Cohort < population the
// coordinator's Fisher–Yates must consume the engine's rng stream
// exactly, the hosts must materialize only drawn members, and the
// cohort-ordered aggregation must reproduce the engine's partial-
// participation normalization — on both data planes, with and without
// 8-bit quantization.
func TestPopulationSampledMatchesEngine(t *testing.T) {
	fed, model, _ := buildWorkload()
	for _, q := range []int{0, 8} {
		run := popRun{rosters: [][]int{{0, 2}, {1, 3}}, cohort: 2, k: 40, rounds: 12, quantBits: q}
		ref := engineReference(t, fed, model, run)

		for _, shards := range []int{0, 2} {
			run.nShards = shards
			records, events := runPopulation(t, fed, model, run, func() (Conn, Conn) { return NewMemPair() }, nil)
			requireSameTrajectory(t, records, ref)
			for i, ev := range events {
				if ev.Population != 4 || ev.CohortSize != 2 || ev.Participants != 2 {
					t.Fatalf("q=%d shards=%d round %d event: population %d cohort %d participants %d, want 4/2/2",
						q, shards, i+1, ev.Population, ev.CohortSize, ev.Participants)
				}
			}
		}
	}
}

// TestPopulationChurnAndDropoutMatchesEngine drives the scenario
// knobs through their edge cases and pins them to the engine: a
// member leaves mid-run and rejoins later (its first post-rejoin draw
// must resume its frozen residual and rng exactly), a member is first
// drawn only late in the run (lazy materialization must equal an
// engine client that sat out every earlier round), and a drawn member
// misses the deadline (the dropout filters it after the draw without
// disturbing the rng stream).
func TestPopulationChurnAndDropoutMatchesEngine(t *testing.T) {
	churn := func(round int) (join, leave []int) {
		switch round {
		case 2:
			return nil, []int{1} // member 1 leaves between rounds 1 and 2
		case 6:
			return []int{1}, nil // and rejoins before round 6
		}
		return nil, nil
	}
	dropout := func(client, round int) bool {
		return round == 4 && client == 0 // member 0 misses round 4's deadline
	}
	fed, model, _ := buildWorkload()
	run := popRun{rosters: [][]int{{0, 2}, {1, 3}}, cohort: 3, churn: churn, dropout: dropout, k: 40, rounds: 10}
	ref := engineReference(t, fed, model, run)

	for _, shards := range []int{0, 2} {
		run.nShards = shards
		records, events := runPopulation(t, fed, model, run, func() (Conn, Conn) { return NewMemPair() }, nil)
		requireSameTrajectory(t, records, ref)
		for i, ev := range events {
			wantChurn, wantPop := 0, 4
			if ev.Round == 2 || ev.Round == 6 {
				wantChurn = 1
			}
			if ev.Round >= 2 && ev.Round < 6 {
				wantPop = 3
			}
			if ev.ChurnEvents != wantChurn || ev.Population != wantPop {
				t.Fatalf("round %d event: churn %d population %d, want %d/%d",
					i+1, ev.ChurnEvents, ev.Population, wantChurn, wantPop)
			}
			if ev.Round == 4 && ev.Participants != ev.CohortSize-1 {
				t.Fatalf("round 4: participants %d with cohort %d, want one deadline dropout",
					ev.Participants, ev.CohortSize)
			}
		}
	}
}

// TestPopulationDeterministicAcrossTransports runs the same sampled,
// churned configuration over in-memory pairs and over real TCP with
// the binary codec, on both data planes, and requires identical
// trajectories: the transport and codec must move no bit.
func TestPopulationDeterministicAcrossTransports(t *testing.T) {
	fed, model, _ := buildWorkload()
	churn := func(round int) (join, leave []int) {
		if round == 3 {
			return nil, []int{2}
		}
		return nil, nil
	}
	run := popRun{rosters: [][]int{{0, 2}, {1, 3}}, cohort: 2, churn: churn, k: 40, rounds: 8, quantBits: 8}

	tcpPair := func() (Conn, Conn) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		type res struct {
			conn net.Conn
			err  error
		}
		ch := make(chan res, 1)
		go func() {
			c, err := ln.Accept()
			ch <- res{c, err}
		}()
		client, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		return NewBinConn(r.conn), NewBinConn(client)
	}

	for _, shards := range []int{0, 2} {
		run.nShards = shards
		memRecords, _ := runPopulation(t, fed, model, run, func() (Conn, Conn) { return NewMemPair() }, nil)
		tcpRecords, _ := runPopulation(t, fed, model, run, tcpPair, nil)
		if len(memRecords) != len(tcpRecords) {
			t.Fatalf("mem ran %d rounds, tcp %d", len(memRecords), len(tcpRecords))
		}
		for i := range memRecords {
			if memRecords[i].Loss != tcpRecords[i].Loss || memRecords[i].DownlinkElems != tcpRecords[i].DownlinkElems {
				t.Fatalf("shards=%d round %d: mem (%v, %d) != tcp (%v, %d)", shards, i+1,
					memRecords[i].Loss, memRecords[i].DownlinkElems, tcpRecords[i].Loss, tcpRecords[i].DownlinkElems)
			}
		}
	}
}

// TestPopulationConnCountScalesWithHosts asserts the M:N promise: the
// number of physical data-plane connections is hosts × shards (each
// host dials each shard exactly once), never a function of the
// population or cohort size.
func TestPopulationConnCountScalesWithHosts(t *testing.T) {
	fed, model, _ := buildWorkload()
	var dials atomic.Int32
	run := popRun{rosters: [][]int{{0, 2}, {1, 3}}, cohort: 3, nShards: 2, k: 40, rounds: 4}
	runPopulation(t, fed, model, run, func() (Conn, Conn) { return NewMemPair() }, &dials)
	if got := dials.Load(); got != 4 {
		t.Fatalf("2 hosts × 2 shards dialed %d data-plane connections, want exactly 4", got)
	}
}

// scalePopulation builds a synthetic population of n members backed by
// a handful of real datasets (members share sample storage — the
// coordinator and hosts must never materialize per-member data for
// undrawn members, which is what makes 100k virtual clients cheap).
func scalePopulation(nMembers int) (func(member int) *dataset.Dataset, func() *nn.Network) {
	fed := dataset.GenerateFEMNIST(dataset.FEMNISTConfig{
		NumClients:       8,
		NumClasses:       10,
		Dim:              16,
		SamplesPerClient: 12,
		ClassesPerClient: 4,
		TestSamples:      10,
		Noise:            0.4,
		Seed:             11,
	})
	data := func(member int) *dataset.Dataset { return &fed.Clients[member%len(fed.Clients)] }
	model := func() *nn.Network { return nn.NewMLP(16, []int{8}, 10) }
	return data, model
}

// TestPopulationHundredThousandVirtualClients is the tentpole's scale
// check: a 100k-member population over TWO physical host connections
// completes a sampled run on the routed plane. Only the drawn cohort
// does any work per round, so the run costs rounds × cohort member
// computations, not rounds × population.
func TestPopulationHundredThousandVirtualClients(t *testing.T) {
	const nMembers = 100_000
	const cohort, rounds, k = 24, 3, 16
	data, model := scalePopulation(nMembers)

	drawRng := rand.New(rand.NewSource(5))
	refNet := model()
	refNet.InitWeights(drawRng)

	rosters := [][]int{make([]int, 0, nMembers/2), make([]int, 0, nMembers/2)}
	for i := 0; i < nMembers; i++ {
		rosters[i%2] = append(rosters[i%2], i)
	}
	serverConns := make([]Conn, 2)
	clientConns := make([]Conn, 2)
	for i := range serverConns {
		serverConns[i], clientConns[i] = NewMemPair()
	}
	var wg sync.WaitGroup
	hostErrs := make([]error, 2)
	for i := range clientConns {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			hostErrs[id] = RunVirtualHost(clientConns[id], HostConfig{
				HostID: id, Members: rosters[id], Data: data, Model: model,
				LearningRate: 0.1, BatchSize: 4, Seed: 5,
			})
		}(i)
	}
	hostPeers := make([]Peer, 2)
	for i, conn := range serverConns {
		p, err := AcceptPeer(conn)
		if err != nil {
			t.Fatal(err)
		}
		hostPeers[i] = p
	}
	obs := &recObserver{}
	records, err := RunServerPeers(hostPeers, ServerConfig{
		K: k, Rounds: rounds, InitialParams: refNet.Params(),
		Observer:   obs,
		Population: &PopulationConfig{Cohort: cohort, DrawRng: drawRng},
	})
	if err != nil {
		t.Fatalf("population server: %v", err)
	}
	wg.Wait()
	for id, err := range hostErrs {
		if err != nil {
			t.Fatalf("host %d: %v", id, err)
		}
	}
	if len(records) != rounds {
		t.Fatalf("ran %d rounds, want %d", len(records), rounds)
	}
	for _, ev := range obs.events {
		if ev.Population != nMembers || ev.CohortSize != cohort {
			t.Fatalf("round %d: population %d cohort %d, want %d/%d", ev.Round, ev.Population, ev.CohortSize, nMembers, cohort)
		}
	}
}

// TestPopulationUndrawnMembersAllocateNothing pins the cost law in
// allocations: a 100k-member, cohort-24, 3-round routed run may allocate
// per drawn member and per round, but never per enrolled member — host
// state is one slice over the roster, materialized at first draw.
func TestPopulationUndrawnMembersAllocateNothing(t *testing.T) {
	const nMembers = 100_000
	data, model := scalePopulation(nMembers)
	rosters := [][]int{make([]int, 0, nMembers/2), make([]int, 0, nMembers/2)}
	for i := 0; i < nMembers; i++ {
		rosters[i%2] = append(rosters[i%2], i)
	}
	run := popRun{rosters: rosters, cohort: 24, k: 16, rounds: 3}
	allocs := testing.AllocsPerRun(1, func() {
		runPopulationData(t, data, model, run, func() (Conn, Conn) { return NewMemPair() }, nil)
	})
	if allocs >= 10_000 {
		t.Fatalf("a %d-member run allocated %.0f times, want < 10000: an undrawn member costs an allocation", nMembers, allocs)
	}
}

// TestHostileCohortAssign pins both cohort readers' trust boundary on
// CohortAssign — the virtual host, which reads its drawn members, and
// the population shard, which reads the full cohort: a message of the
// wrong type, a stale round, members out of order, or a member the
// reader cannot serve each fail round 1 naming the reader, and so does
// an empty cohort at the shard (a host may legitimately draw nobody).
func TestHostileCohortAssign(t *testing.T) {
	fed, model, initParams := buildWorkload()
	// Both readers serve members 0 and 2 of a 3-member population.
	roster := []int{0, 2}
	readers := map[string]func(t *testing.T, msg any) error{
		"host": func(t *testing.T, msg any) error {
			srv, cli := NewMemPair()
			defer srv.Close()
			done := make(chan error, 1)
			go func() {
				done <- RunVirtualHost(cli, HostConfig{HostID: 0, Members: roster,
					Data:  func(member int) *dataset.Dataset { return &fed.Clients[member] },
					Model: model, LearningRate: 0.1, BatchSize: 8, Seed: 1})
			}()
			expectMsg[Hello](t, srv)
			_ = srv.Send(Init{Params: initParams, K: 4, Rounds: 2})
			_ = srv.Send(msg)
			return <-done
		},
		"shard": func(t *testing.T, msg any) error {
			assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 2, Weights: []float64{1, 2, 3}, NumHosts: 1}
			shardSide, _ := NewMemPair()
			peers := []Peer{{Conn: shardSide, Data: &DataHello{ShardID: 0, NumShards: 2, Dim: 10, Members: roster}}}
			return directShardHarness(t, assign, func(int) []Peer { return peers }, func(_ []Conn, coord Conn) { _ = coord.Send(msg) })
		},
	}
	cases := []struct {
		name        string
		msg         any
		host, shard string // "" = the row is not hostile to that reader
	}{
		{"wrong message type", Broadcast{Round: 1}, "expected CohortAssign, got transport.Broadcast", "expected CohortAssign, got transport.Broadcast"},
		{"stale round", CohortAssign{Round: 0, Members: []int{0}}, "stale cohort assign (round 0)", "stale cohort assign (round 0)"},
		{"members not strictly ascending", CohortAssign{Round: 1, Members: []int{2, 0}}, "cohort not strictly ascending at member 0", "cohort not strictly ascending at member 0"},
		{"repeated member", CohortAssign{Round: 1, Members: []int{2, 2}}, "cohort not strictly ascending at member 2", "cohort not strictly ascending at member 2"},
		{"member outside the roster", CohortAssign{Round: 1, Members: []int{1}}, "cohort member 1 outside its roster", "cohort member 1 outside every host roster"},
		{"member outside the population", CohortAssign{Round: 1, Members: []int{7}}, "cohort member 7 outside its roster", "cohort member 7 outside every host roster"},
		{"empty cohort", CohortAssign{Round: 1}, "", "empty cohort"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for reader, want := range map[string]string{"host": tc.host, "shard": tc.shard} {
				if want == "" {
					continue
				}
				err := readers[reader](t, tc.msg)
				want = "transport: " + reader + " 0 round 1: " + want
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: error %v, want substring %q", reader, err, want)
				}
			}
		})
	}
}

// BenchmarkVirtualClients tracks the population tier's end-to-end wall
// clock at the tentpole scale: each iteration is a full 100k-member,
// cohort-24, 3-round sampled run over two physical mem connections on
// the routed plane. The cost must scale with rounds × cohort (the
// drawn members' compute), never with the population — a per-member
// setup cost creeping in moves this baseline by orders of magnitude.
// Tracked in BENCH_fl.json.
func BenchmarkVirtualClients(b *testing.B) {
	const nMembers = 100_000
	data, model := scalePopulation(nMembers)
	rosters := [][]int{make([]int, 0, nMembers/2), make([]int, 0, nMembers/2)}
	for i := 0; i < nMembers; i++ {
		rosters[i%2] = append(rosters[i%2], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := popRun{rosters: rosters, cohort: 24, k: 16, rounds: 3}
		records, _ := runPopulationData(b, data, model, run, func() (Conn, Conn) { return NewMemPair() }, nil)
		if len(records) != run.rounds {
			b.Fatalf("ran %d rounds, want %d", len(records), run.rounds)
		}
	}
}

// TestPopulationServerValidation covers the tier's rejection surface.
func TestPopulationServerValidation(t *testing.T) {
	hostPeer := func(members []int) Peer {
		a, b := NewMemPair()
		go func() {
			weights := make([]float64, len(members))
			for i := range weights {
				weights[i] = 1
			}
			_ = b.Send(Hello{ClientID: 0, Members: members, Weights: weights})
		}()
		p, err := AcceptPeer(a)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := ServerConfig{K: 1, Rounds: 1, InitialParams: []float64{0}}

	// A sampling cohort without a draw rng.
	cfg := base
	cfg.Population = &PopulationConfig{Cohort: 1}
	if _, err := RunServerPeers([]Peer{hostPeer([]int{0, 1})}, cfg); err == nil {
		t.Fatal("accepted a sampling cohort without a DrawRng")
	}
	// A roster that does not cover the population densely.
	cfg = base
	cfg.Population = &PopulationConfig{}
	if _, err := RunServerPeers([]Peer{hostPeer([]int{0, 5})}, cfg); err == nil {
		t.Fatal("accepted a roster with holes")
	}
	// A non-ascending roster.
	if _, err := RunServerPeers([]Peer{hostPeer([]int{1, 0})}, cfg); err == nil {
		t.Fatal("accepted an unsorted roster")
	}
	// Population over the routed shard plane.
	cfg = base
	cfg.Population = &PopulationConfig{}
	sc, _ := NewMemPair()
	cfg.ShardConns = []Conn{sc}
	if _, err := RunServerPeers([]Peer{hostPeer([]int{0})}, cfg); err == nil {
		t.Fatal("accepted the routed shard plane")
	}
	// Population with bounded staleness.
	cfg = base
	cfg.Population = &PopulationConfig{}
	cfg.Staleness = 1
	if _, err := RunServerPeers([]Peer{hostPeer([]int{0})}, cfg); err == nil {
		t.Fatal("accepted a staleness window")
	}
}
