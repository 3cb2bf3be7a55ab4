package transport

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
)

// TestPopulationConnCountScalesWithHosts asserts the M:N promise: the
// number of physical data-plane connections is hosts × shards (each
// host dials each shard exactly once), never a function of the
// population or cohort size.
func TestPopulationConnCountScalesWithHosts(t *testing.T) {
	cfg, err := wireConfig(runSpec{rounds: 4, cohort: 3}.config(0), true)
	if err != nil {
		t.Fatal(err)
	}
	net := memNet()
	defer net.teardown()
	var dials atomic.Int32
	dialData := net.dialData
	net.dialData = func(addr string) (Conn, error) {
		dials.Add(1)
		return dialData(addr)
	}
	if _, err := deploy(t, net, cfg, layout{shards: 2, hosts: [][]int{{0, 2}, {1, 3}}}); err != nil {
		t.Fatal(err)
	}
	if got := dials.Load(); got != 4 {
		t.Fatalf("2 hosts × 2 shards dialed %d data-plane connections, want exactly 4", got)
	}
}

// scalePopulation is the scale scenario's population: 100k members
// backed by a handful of real datasets (members share sample storage —
// the coordinator and hosts must never materialize per-member data for
// undrawn members, which is what makes 100k virtual clients cheap),
// split across two hosts, even members and odd.
func scalePopulation() (workload, [][]int) {
	const nMembers = 100_000
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
	w := workload{members: nMembers, batch: 8,
		data:  func(member int) *dataset.Dataset { return &fed.Clients[member%len(fed.Clients)] },
		model: func() *nn.Network { return nn.NewMLP(16, []int{8}, 10) }}
	rosters := [][]int{make([]int, 0, nMembers/2), make([]int, 0, nMembers/2)}
	for i := 0; i < nMembers; i++ {
		rosters[i%2] = append(rosters[i%2], i)
	}
	return w, rosters
}

// runScalePopulation runs the scale scenario over two physical host
// connections on the routed plane: a sampled cohort of 24 members for 3
// rounds at k = 16.
func runScalePopulation(t testing.TB, w workload, rosters [][]int) []fl.RoundEvent {
	t.Helper()
	drawRng := rand.New(rand.NewSource(5))
	refNet := w.model()
	refNet.InitWeights(drawRng)
	cfg := ServerConfig{K: 16, Rounds: 3, InitialParams: refNet.Params(),
		Population: &PopulationConfig{Cohort: 24, DrawRng: drawRng}}
	net := memNet()
	defer net.teardown()
	events, err := deploy(t, net, cfg, layout{hosts: rosters, work: w})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestPopulationHundredThousandVirtualClients is the tentpole's scale
// check: the scale scenario completes, and every round's event counts
// the whole population and the drawn cohort. Only the drawn cohort
// does any work per round, so the run costs rounds × cohort member
// computations, not rounds × population.
func TestPopulationHundredThousandVirtualClients(t *testing.T) {
	w, rosters := scalePopulation()
	events := runScalePopulation(t, w, rosters)
	if len(events) != 3 {
		t.Fatalf("ran %d rounds, want 3", len(events))
	}
	for _, ev := range events {
		if ev.Population != 100_000 || ev.CohortSize != 24 {
			t.Fatalf("round %d: population %d cohort %d, want 100000/24", ev.Round, ev.Population, ev.CohortSize)
		}
	}
}

// TestPopulationUndrawnMembersAllocateNothing pins the cost law in
// allocations: the scale scenario may allocate per drawn member and per
// round, but never per enrolled member — host state is one slice over
// the roster, materialized at first draw.
func TestPopulationUndrawnMembersAllocateNothing(t *testing.T) {
	w, rosters := scalePopulation()
	allocs := testing.AllocsPerRun(1, func() { runScalePopulation(t, w, rosters) })
	if allocs >= 10_000 {
		t.Fatalf("a 100000-member run allocated %.0f times, want < 10000: an undrawn member costs an allocation", allocs)
	}
}

// TestMemberStatesAllocateSlabsNotStreams pins what a materialised
// member costs its participant: materialising n members of dimension D
// allocates ⌈n/64⌉ residual slabs, and the rng streams one source for
// the whole roster, held by value in the states and repositioned at each
// member switch, so nothing per member beyond its D floats. Loading every
// member a second time allocates nothing.
func TestMemberStatesAllocateSlabsNotStreams(t *testing.T) {
	const d = 100
	ds := &dataset.Dataset{}
	for _, n := range []int{1, 63, 64, 65, 200} {
		roster := make([]int, n)
		for i := range roster {
			roster[i] = 3 * i
		}
		p := participant{roster: roster, seed: func(member int) int64 { return int64(member) },
			data: func(int) *dataset.Dataset { return ds }}
		var s *memberStates
		loadAll := func() {
			for pos := range roster {
				if m := s.load(pos); m.Data != ds || len(m.Acc) != d || cap(m.Acc) != d {
					t.Fatalf("n=%d: member %d loaded with data %p, residual len %d cap %d", n, pos, m.Data, len(m.Acc), cap(m.Acc))
				}
			}
		}
		// The states themselves, which hold the shared source by value,
		// their slot slice, and ⌈n/64⌉ slabs.
		want := 2 + float64((n+memberSlab-1)/memberSlab)
		if got := testing.AllocsPerRun(3, func() { s = newMemberStates(p, d); loadAll() }); got != want {
			t.Fatalf("n=%d: materialising allocated %.0f times, want %.0f", n, got, want)
		}
		if got := testing.AllocsPerRun(3, loadAll); got != 0 {
			t.Fatalf("n=%d: reloading materialised members allocated %.0f times, want 0", n, got)
		}
		// Every residual is its own D floats.
		for pos := range roster {
			s.slots[pos].acc[0] = float64(pos + 1)
		}
		for pos := range roster {
			if acc := s.slots[pos].acc; acc[0] != float64(pos+1) || acc[d-1] != 0 {
				t.Fatalf("n=%d: member %d's residual overlaps another's", n, pos)
			}
		}
	}
}

// cohortLog records every CohortAssign a coordinator sends over a conn.
type cohortLog struct {
	mu      sync.Mutex
	cohorts [][]int
}

type cohortLogConn struct {
	Conn
	log *cohortLog
}

func (c cohortLogConn) Send(msg any) error {
	if a, ok := msg.(CohortAssign); ok {
		c.log.mu.Lock()
		c.log.cohorts = append(c.log.cohorts, slices.Clone(a.Members))
		c.log.mu.Unlock()
	}
	return c.Conn.Send(msg)
}

// TestCohortRedrawnMemberMatchesEngine runs one host over a 6-member
// population, 2 drawn a round for 20 rounds, against fl.Run. The host's
// members share one rng source, repositioned at each member's stream
// position, so a member drawn again after other members stepped must
// continue its own stream where it stopped: the run asserts that such a
// redraw happened and matches the engine's events bit for bit.
func TestCohortRedrawnMemberMatchesEngine(t *testing.T) {
	fed := dataset.GenerateFEMNIST(dataset.FEMNISTConfig{
		NumClients:       6,
		NumClasses:       10,
		Dim:              16,
		SamplesPerClient: 20,
		ClassesPerClient: 4,
		TestSamples:      10,
		Noise:            0.4,
		Seed:             11,
	})
	model := func() *nn.Network { return nn.NewMLP(16, []int{8}, 10) }
	cfg := fl.Config{Data: fed, Model: model, LearningRate: 0.1, BatchSize: 8, Rounds: 20, Seed: 5,
		Strategy: &gs.FABTopK{}, Controller: core.NewFixedK(16), Beta: 10, Cohort: 2}
	sc, err := wireConfig(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	log := &cohortLog{}
	net := memNet()
	defer net.teardown()
	roster := []int{0, 1, 2, 3, 4, 5}
	events, err := deploy(t, net, sc, layout{hosts: [][]int{roster},
		work:      workload{members: len(roster), data: func(member int) *dataset.Dataset { return &fed.Clients[member] }, model: model, batch: 8},
		wrapCoord: func(c Conn) Conn { return cohortLogConn{Conn: c, log: log} }})
	if err != nil {
		t.Fatal(err)
	}
	requireSameTrajectory(t, events, engineEvents(t, cfg))

	// The host steps each round's cohort in order; find a member whose
	// step follows another member's step since its own last one.
	if len(log.cohorts) != cfg.Rounds {
		t.Fatalf("recorded %d cohort assigns, want %d", len(log.cohorts), cfg.Rounds)
	}
	last := map[int]int{} // member -> index of its last step
	var steps []int
	redrawn := false
	for _, cohort := range log.cohorts {
		for _, member := range cohort {
			if i, ok := last[member]; ok && slices.ContainsFunc(steps[i+1:], func(o int) bool { return o != member }) {
				redrawn = true
			}
			last[member] = len(steps)
			steps = append(steps, member)
		}
	}
	if !redrawn {
		t.Fatalf("no member was drawn again after other members stepped: steps %v", steps)
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

// TestCohortHostileMemberOrder pins both population coordinators' reading
// of a host link in protocol order: one frame per drawn member,
// ascending. Host 0 (roster 0, 2) misbehaves while host 1 (roster 1) is
// honest, and each row must fail round 1 within a deadline, naming the
// host, the due member and what arrived — a frame out of turn, a frame
// for a member outside the host's roster or the population in place of
// the due one, or an un-enveloped message where a member's frame is due.
func TestCohortHostileMemberOrder(t *testing.T) {
	planes := []struct {
		name  string
		msg   func(member int) any // member's honest round-1 uplink
		shard bool
	}{
		{"routed", func(member int) any { return Upload{ClientID: member, Round: 1} }, false},
		{"direct", func(member int) any { return RoundMeta{ClientID: member, Round: 1} }, true},
	}
	rows := []struct {
		name string
		sent []int // host 0's frames by member; -1 sends member 0's message un-enveloped
		got  string
	}{
		{"member out of turn", []int{2, 0}, "got member 2's"},
		{"member outside the host roster", []int{1, 2}, "got member 1's"},
		{"member outside the population", []int{7, 2}, "got member 7's"},
		{"un-enveloped message", []int{-1, 2}, "got an un-enveloped"},
	}
	for _, plane := range planes {
		for _, row := range rows {
			t.Run(plane.name+"/"+row.name, func(t *testing.T) {
				var links []Conn
				defer func() { closeConns(links) }()
				host := func(id int, members []int, sent []int) Peer {
					a, b := NewMemPair()
					links = append(links, a, b)
					_ = b.Send(Hello{ClientID: id, Members: members, Weights: slices.Repeat([]float64{1}, len(members))})
					for _, member := range sent {
						if member < 0 {
							_ = b.Send(plane.msg(0))
						} else {
							_ = sendMember(b, member, plane.msg(member))
						}
					}
					p, err := AcceptPeer(a)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				peers := []Peer{host(0, []int{0, 2}, row.sent), host(1, []int{1}, []int{1})}
				cfg := ServerConfig{K: 1, Rounds: 1, InitialParams: make([]float64, 4), Population: &PopulationConfig{}}
				if plane.shard {
					coordSide, shardSide := NewMemPair()
					links = append(links, coordSide, shardSide)
					cfg.ShardConns, cfg.ShardAddrs, cfg.Direct = []Conn{coordSide}, []string{"mem"}, true
				}
				done := make(chan error, 1)
				go func() {
					_, err := RunServerPeers(peers, cfg)
					done <- err
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("coordinator wedged on an out-of-order host link")
				}
				want := "round 1 recv from member 0: via host 0: member 0's frame is due, " + row.got
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("error %v, want substring %q", err, want)
				}
			})
		}
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
	w, rosters := scalePopulation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runScalePopulation(b, w, rosters)
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
}
