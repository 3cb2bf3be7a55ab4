package transport

// "Same seed, same bytes" as one matrix. In Algorithm 1 every client
// applies the same B, so all of them hold one synchronized model, and
// every deployment of a run reproduces fl.Run bit for bit. The rows of
// TestSameSeedSameBytes are run specs, its columns deployments, and a
// cell passes in one of two ways: its per-round RoundEvents equal the
// engine's (fl.Run at Workers 0) on every field both decide, or the
// deployment refuses the spec with the exact message that
// testdata/matrix_refused.txt lists for that cell. That file is the
// compatibility table; it has no update flag, and a change that lets a
// deployment run more specs deletes lines from it.

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
	"fedsparse/internal/wal"
)

// matrixK is a row's default k: the fixed k, or Algorithm 3's starting
// k.
const matrixK = 40

// runSpec is one row: an algorithm over the test workload
// (buildWorkload: 4 clients, learning rate 0.1, batch 8, seed 5).
type runSpec struct {
	name      string
	rounds    int
	strategy  gs.Strategy
	k         int  // the fixed k, or Algorithm 3's starting k; 0 is matrixK
	alg3      bool // Algorithm 3 picks k; otherwise k is fixed
	quantBits int
	cohort    int  // 0 draws every client
	churn     bool // member 1 leaves at round 2 and rejoins at 6; member 0 drops out of round 4
	staleness int
}

// config is the row as an engine run: the twin every column is held to.
func (s runSpec) config(workers int) fl.Config {
	fed, model, _ := buildWorkload()
	k := float64(cmp.Or(s.k, matrixK))
	cfg := fl.Config{Data: fed, Model: model, LearningRate: 0.1, BatchSize: 8, Rounds: s.rounds, Seed: 5,
		Strategy: s.strategy, Controller: core.NewFixedK(k), Beta: 10,
		QuantBits: s.quantBits, Cohort: s.cohort, Staleness: s.staleness, Workers: workers}
	if cfg.Strategy == nil {
		cfg.Strategy = &gs.FABTopK{}
	}
	if s.alg3 {
		d := model().D()
		cfg.Controller = core.NewAdaptiveSignOGD(10, float64(d), k, 1.5, 2, nil)
	}
	if s.churn {
		cfg.Churn = func(round int) (join, leave []int) {
			switch round {
			case 2:
				return nil, []int{1}
			case 6:
				return []int{1}, nil
			}
			return nil, nil
		}
		cfg.Dropout = func(client, round int) bool { return round == 4 && client == 0 }
	}
	return cfg
}

// matrixRows are the matrix's specs: 25 rounds for the paper's baseline
// (FAB, fixed k, full precision, everyone, lockstep), 10–12 otherwise.
// fab/k>D asks for a k past the model dimension D, which the server
// step clamps to D: every deployment reports the decided k, not the
// asked one.
func matrixRows() []runSpec {
	_, model, _ := buildWorkload()
	var rows []runSpec
	for _, q := range []int{0, 8} {
		for _, cohort := range []int{0, 2} {
			for _, w := range []int{0, 1, 2} {
				cname := "all"
				if cohort > 0 {
					cname = fmt.Sprintf("%dof4", cohort)
				}
				rounds := 10
				switch {
				case q == 0 && cohort == 0 && w == 0:
					rounds = 25
				case w == 0:
					rounds = 12
				}
				rows = append(rows, runSpec{name: fmt.Sprintf("fab/q%d/%s/w%d", q, cname, w),
					rounds: rounds, quantBits: q, cohort: cohort, staleness: w})
			}
		}
	}
	return append(rows,
		runSpec{name: "fab/churn+dropout", rounds: 10, cohort: 3, churn: true},
		runSpec{name: "fub", rounds: 10, strategy: &gs.FUBTopK{}},
		runSpec{name: "uni", rounds: 10, strategy: &gs.UniTopK{}},
		runSpec{name: "periodic", rounds: 10, strategy: &gs.PeriodicK{}},
		runSpec{name: "sendall", rounds: 10, strategy: &gs.SendAll{}},
		runSpec{name: "fab/alg3", rounds: 10, alg3: true},
		runSpec{name: "fab/k>D", rounds: 10, k: model().D() + 7},
	)
}

// The wire mapping's refusals: a field of fl.Config that ServerConfig
// has no way to carry.
var (
	errNoStrategy   = errors.New("ServerConfig has no Strategy")
	errNoController = errors.New("ServerConfig has no Controller")
	errNoCohort     = errors.New("ServerConfig has no Cohort, Churn or Dropout")
)

// wireConfig maps an engine config onto the coordinator's. The initial
// weights and the cohort draw's rng come from the engine's one seeded
// stream: the draw continues where the weight initialization stopped.
// population says whether the deployment has a roster to carry the
// cohort on.
func wireConfig(cfg fl.Config, population bool) (ServerConfig, error) {
	if _, ok := cfg.Strategy.(*gs.FABTopK); !ok {
		return ServerConfig{}, errNoStrategy
	}
	fixed, ok := cfg.Controller.(*core.FixedK)
	if !ok {
		return ServerConfig{}, errNoController
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := cfg.Model()
	net.InitWeights(rng)
	sc := ServerConfig{K: int(fixed.K), Rounds: cfg.Rounds, InitialParams: net.Params(),
		QuantBits: cfg.QuantBits, Staleness: cfg.Staleness}
	switch {
	case population:
		sc.Population = &PopulationConfig{Cohort: cfg.Cohort, Churn: cfg.Churn, Dropout: cfg.Dropout, DrawRng: rng}
	case cfg.Cohort != 0 || cfg.Churn != nil || cfg.Dropout != nil:
		return ServerConfig{}, errNoCohort
	}
	return sc, nil
}

// engineEvents runs cfg in-process.
func engineEvents(t testing.TB, cfg fl.Config) []fl.RoundEvent {
	t.Helper()
	res, err := fl.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// column is one wire deployment of the matrix.
type column struct {
	name       string
	tcp        bool
	shards     int  // 0 = the routed plane
	population bool // virtual hosts with rosters {0, 2} and {1, 3}
	durable    bool // journaled; killed at BoundarySealLogged of the middle round and resumed
}

var matrixColumns = []column{
	{name: "routed/mem"},
	{name: "routed/tcp", tcp: true},
	{name: "direct1/mem", shards: 1},
	{name: "direct2/mem", shards: 2},
	{name: "direct2/tcp", tcp: true, shards: 2},
	{name: "population/routed/mem", population: true},
	{name: "population/routed/tcp", tcp: true, population: true},
	{name: "population/direct2/mem", shards: 2, population: true},
	{name: "population/direct2/tcp", tcp: true, shards: 2, population: true},
	{name: "durable/routed", durable: true},
	{name: "durable/direct2", shards: 2, durable: true},
}

// run deploys spec and returns the coordinator's events, or the first
// refusal or failure.
func (c column) run(t *testing.T, spec runSpec) ([]fl.RoundEvent, error) {
	cfg, err := wireConfig(spec.config(0), c.population)
	if err != nil {
		return nil, err
	}
	net := netFor(t, c.tcp)
	defer net.teardown()
	lay := layout{shards: c.shards}
	if c.population {
		lay.hosts = [][]int{{0, 2}, {1, 3}}
	}
	if c.durable {
		lay.durable, lay.crash, lay.crashRound = true, BoundarySealLogged, spec.rounds/2
	}
	return deploy(t, net, cfg, lay)
}

// trajectory is what a cell compares of one round: every field that
// both the engine and a deployment decide, floats by their bits.
type trajectory struct {
	Round, K                                            int
	KCont, Loss                                         uint64
	DownlinkElems, Participants, Population, CohortSize int
	ChurnEvents, WindowDepth                            int
}

func trajectoryOf(events []fl.RoundEvent) []trajectory {
	out := make([]trajectory, len(events))
	for i, ev := range events {
		out[i] = trajectory{Round: ev.Round, K: ev.K, KCont: math.Float64bits(ev.KCont), Loss: math.Float64bits(ev.Loss),
			DownlinkElems: ev.DownlinkElems, Participants: ev.Participants, Population: ev.Population,
			CohortSize: ev.CohortSize, ChurnEvents: ev.ChurnEvents, WindowDepth: ev.WindowDepth}
	}
	return out
}

// requireSameTrajectory fails unless got and want agree round by round.
func requireSameTrajectory(t testing.TB, got, want []fl.RoundEvent) {
	t.Helper()
	g, w := trajectoryOf(got), trajectoryOf(want)
	if len(g) != len(w) {
		t.Fatalf("ran %d rounds, engine %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("round %d: %+v, engine %+v (loss %v vs %v)", i+1, g[i], w[i], got[i].Loss, want[i].Loss)
		}
	}
}

// readRefused loads the committed refusals: "row<TAB>column<TAB>message"
// per line, '#' lines are comments.
func readRefused(t *testing.T) map[[2]string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "matrix_refused.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	refused := make(map[[2]string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			t.Fatalf("matrix_refused.txt: malformed line %q", line)
		}
		refused[[2]string{parts[0], parts[1]}] = parts[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return refused
}

// TestSameSeedSameBytes is the matrix: every row against the engine at
// Workers 2 and every wire column.
func TestSameSeedSameBytes(t *testing.T) {
	refused := readRefused(t)
	rows := matrixRows()
	for cell := range refused {
		if !slices.ContainsFunc(rows, func(r runSpec) bool { return r.name == cell[0] }) ||
			!slices.ContainsFunc(matrixColumns, func(c column) bool { return c.name == cell[1] }) {
			t.Errorf("matrix_refused.txt lists %s × %s, which is no cell of the matrix", cell[0], cell[1])
		}
	}
	for _, spec := range rows {
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			want := engineEvents(t, spec.config(0))
			t.Run("engine/w2", func(t *testing.T) {
				requireSameTrajectory(t, engineEvents(t, spec.config(2)), want)
			})
			for _, col := range matrixColumns {
				t.Run(col.name, func(t *testing.T) {
					got, err := col.run(t, spec)
					msg, isRefused := refused[[2]string{spec.name, col.name}]
					switch {
					case isRefused && err == nil:
						t.Fatalf("ran, but matrix_refused.txt lists the refusal %q", msg)
					case isRefused && err.Error() != msg:
						t.Fatalf("refused with %q, matrix_refused.txt lists %q", err, msg)
					case isRefused:
					case err != nil:
						t.Fatalf("failed: %v", err)
					default:
						requireSameTrajectory(t, got, want)
					}
				})
			}
		})
	}
}

// TestSameSeedSameBytesCoversConfig walks fl.Config: every field is a
// row dimension the matrix varies, an input every column is given
// identically, or engine-only for a stated reason — so a new knob
// cannot go unnoticed on the wire.
func TestSameSeedSameBytesCoversConfig(t *testing.T) {
	dims := []string{"Strategy", "Controller", "QuantBits", "Cohort", "Churn", "Dropout", "Staleness"}
	inputs := []string{"Data", "Model", "LearningRate", "BatchSize", "Rounds", "Seed"}
	engineOnly := map[string]string{
		"FedAvg":          "weight averaging sends dense models; the wire protocol is Algorithm 1's sparse exchange",
		"FedAvgKEquiv":    "FedAvg's communication budget",
		"Beta":            "normalized communication time is simulated; the wire spends real time",
		"EvalEvery":       "test-set evaluation needs the global test set, which no coordinator holds",
		"TrainLossEvery":  "the full training loss needs every client's data in one process",
		"MaxTime":         "a budget in simulated time",
		"RecordPerClient": "per-client counts are not part of the round event",
		"CheckSync":       "compares the engine's worker replicas; a wire participant holds one model",
		"Workers":         "engine parallelism; the engine/w2 column runs it",
		"WALDir":          "the engine's journal; the wire's is ServerConfig.Durable (the durable columns)",
		"Resume":          "the engine's journal; the wire's is ServerConfig.Durable (the durable columns)",
		"SnapshotEvery":   "the engine's journal; the wire's is ServerConfig.Durable (the durable columns)",
		"HaltAfter":       "the engine's journal; the wire's is ServerConfig.Durable (the durable columns)",
		"Observer":        "passive by contract; every cell reads the same RoundEvent stream",
	}
	var configs []reflect.Value
	for _, spec := range matrixRows() {
		configs = append(configs, reflect.ValueOf(spec.config(0)))
	}
	typ := reflect.TypeOf(fl.Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		switch {
		case slices.Contains(dims, f.Name):
			// A dimension must take at least two shapes across the rows.
			shapes := make(map[string]bool)
			for _, c := range configs {
				v := c.Field(i)
				shapes[fmt.Sprintf("%T %t", v.Interface(), v.IsZero())] = true
			}
			if len(shapes) < 2 {
				t.Errorf("fl.Config.%s is listed as a row dimension, but every row sets it alike", f.Name)
			}
		case slices.Contains(inputs, f.Name):
		case engineOnly[f.Name] != "":
		default:
			t.Errorf("fl.Config.%s is neither a row dimension of TestSameSeedSameBytes, a common input, nor engine-only with a reason", f.Name)
		}
	}
}

// TestRunServerPeersReturnsObservedEvents: what RunServerPeers returns
// is exactly the stream an attached observer saw, bytes and reduce
// waits included, on both planes.
func TestRunServerPeersReturnsObservedEvents(t *testing.T) {
	spec := runSpec{rounds: 4}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg, err := wireConfig(spec.config(0), false)
			if err != nil {
				t.Fatal(err)
			}
			seen := &fl.Collector{}
			cfg.Observer = seen
			net := tcpNet(t)
			defer net.teardown()
			got, err := deploy(t, net, cfg, layout{shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != spec.rounds || !bitEqual(got, seen.Events) {
				t.Fatalf("returned %+v, observer saw %+v", got, seen.Events)
			}
		})
	}
}

// testNet is the wiring of a deployment, over in-memory pairs or real
// TCP sockets alike: every control-plane dial (initial or rejoin) lands
// in coordConns, the data plane is addressed by string, and ingest
// addresses can be added mid-run (a shard restarted fresh listens
// somewhere new).
type testNet struct {
	dialCoord func() (Conn, error)
	dialData  func(addr string) (Conn, error)
	// coordConns receives the coordinator side of every control dial —
	// first the enrolments, then rejoins (fed to the desk).
	coordConns chan Conn
	// addData registers a fresh ingest address and returns its accept
	// hook.
	addData  func(name string) (string, func() (Conn, error))
	teardown func()
}

func netFor(t testing.TB, tcp bool) *testNet {
	if tcp {
		return tcpNet(t)
	}
	return memNet()
}

func memNet() *testNet {
	hub := make(chan Conn, 256)
	var mu sync.Mutex
	data := make(map[string]chan Conn)
	closed := false
	n := &testNet{coordConns: hub}
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
		defer mu.Unlock()
		ch, ok := data[addr]
		switch {
		case closed:
			return nil, errors.New("mem net closed")
		case !ok:
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
		defer mu.Unlock()
		if closed {
			return
		}
		closed = true
		close(hub)
		for _, ch := range data {
			close(ch)
		}
	}
	return n
}

func tcpNet(t testing.TB) *testNet {
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
	lns := []*Listener{coordLn}
	n := &testNet{coordConns: hub}
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
		mu.Lock()
		defer mu.Unlock()
		for _, ln := range lns {
			ln.Close()
		}
	}
	return n
}

// collectNetPeers drains the enrolments off the net's coordinator
// stream: nParticipants Hellos plus one ShardHello per entry of
// shardAddrs, with the shard control conns ordered by advertised
// address (shard identity is positional in ShardConns). wrap, if set,
// wraps each coordinator-side conn before its handshake is read.
func collectNetPeers(t testing.TB, net *testNet, nParticipants int, shardAddrs []string, wrap func(Conn) Conn) ([]Peer, []Conn) {
	t.Helper()
	participants := make([]Peer, 0, nParticipants)
	byAddr := make(map[string]Conn)
	timeout := time.After(20 * time.Second)
	for len(participants) < nParticipants || len(byAddr) < len(shardAddrs) {
		var conn Conn
		select {
		case conn = <-net.coordConns:
		case <-timeout:
			t.Fatalf("timed out collecting initial peers (%d participants, %d shards so far)", len(participants), len(byAddr))
		}
		if wrap != nil {
			conn = wrap(conn)
		}
		p, err := AcceptPeer(conn)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case p.Hello != nil:
			participants = append(participants, p)
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
	return participants, shardConns
}

var errBoom = errors.New("injected coordinator crash")

// workload is what the participants train on: a dataset per member, the
// model, and the batch size (learning rate 0.1 and base seed 5 always).
type workload struct {
	members int
	data    func(member int) *dataset.Dataset
	model   func() *nn.Network
	batch   int
}

// testWorkload is buildWorkload's task.
func testWorkload() workload {
	fed, model, _ := buildWorkload()
	return workload{members: fed.NumClients(), data: func(member int) *dataset.Dataset { return &fed.Clients[member] },
		model: model, batch: 8}
}

// layout is how deploy lays a run out beyond its ServerConfig.
type layout struct {
	shards int
	hosts  [][]int // population rosters; nil = one client per member
	work   workload
	// durable journals the coordinator and makes every peer durable;
	// with crash set, the coordinator is killed at that boundary of
	// crashRound and resumed from the log; with killRound > 0, shard
	// killShard dies after killRound and restarts fresh.
	durable              bool
	crash                Boundary
	crashRound           int
	killShard, killRound int
	// wrapCoord wraps each coordinator-side participant conn.
	wrapCoord func(Conn) Conn
}

// deploy runs one wire deployment of cfg over net: its participants
// (RunClient per member, or RunVirtualHost per roster) and shards on
// goroutines, the coordinator on the caller's. It returns the
// coordinator's events and its error — a refusal, or a failed round,
// after which every peer is released — or, when the coordinator
// succeeded, the first peer error.
func deploy(t testing.TB, net *testNet, cfg ServerConfig, lay layout) ([]fl.RoundEvent, error) {
	t.Helper()
	w := lay.work
	if w.model == nil {
		w = testWorkload()
	}
	runID := wal.RunID(42)
	shardAddrs := make([]string, lay.shards)
	accepts := make([]func() (Conn, error), lay.shards)
	for s := range shardAddrs {
		shardAddrs[s], accepts[s] = net.addData(fmt.Sprintf("shard-%d", s))
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var peerErrs []error
	spawn := func(peer func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := peer(); err != nil {
				mu.Lock()
				peerErrs = append(peerErrs, err)
				mu.Unlock()
			}
		}()
	}
	dialCoord, dialData := net.dialCoord, net.dialData
	nParticipants := len(lay.hosts)
	if lay.hosts == nil {
		nParticipants = w.members
		for id := 0; id < w.members; id++ {
			spawn(func() error {
				conn, err := dialCoord()
				if err != nil {
					return err
				}
				defer conn.Close()
				ccfg := ClientConfig{ID: id, Data: w.data(id), Model: w.model, LearningRate: 0.1, BatchSize: w.batch,
					Seed: fl.ClientSeed(5, id), DialShard: dialData}
				if lay.durable {
					ccfg.Redial = dialCoord
				}
				return RunClient(conn, ccfg)
			})
		}
	}
	for h, roster := range lay.hosts {
		spawn(func() error {
			conn, err := dialCoord()
			if err != nil {
				return err
			}
			defer conn.Close()
			return RunVirtualHost(conn, HostConfig{HostID: h, Members: roster, Data: w.data, Model: w.model,
				LearningRate: 0.1, BatchSize: w.batch, Seed: 5, DialShard: dialData})
		})
	}
	for s := range shardAddrs {
		spawn(func() error {
			if lay.durable {
				dcfg := DurableShardConfig{RunID: runID, ShardID: s, Addr: shardAddrs[s], Dial: dialCoord, AcceptData: accepts[s]}
				if s != lay.killShard || lay.killRound == 0 {
					return RunDurableDirectShard(dcfg)
				}
				dcfg.killAfter = lay.killRound
				if err := RunDurableDirectShard(dcfg); err == nil {
					return errors.New("kill hook did not fire")
				}
				// The shard process "restarts" with no state: a new ingest
				// address, the Rejoin{Fresh} handshake, and a mid-run
				// assignment from the coordinator's redo flow.
				addr, accept := net.addData(fmt.Sprintf("shard-%d-reborn", s))
				return RunDurableDirectShard(DurableShardConfig{RunID: runID, ShardID: s, Addr: addr, Fresh: true,
					Dial: dialCoord, AcceptData: accept})
			}
			conn, err := dialCoord()
			if err != nil {
				return err
			}
			defer conn.Close()
			if err := conn.Send(ShardHello{Addr: shardAddrs[s]}); err != nil {
				return err
			}
			return RunDirectShard(conn, func(n int) ([]Peer, error) {
				peers := make([]Peer, n)
				for i := range peers {
					conn, err := accepts[s]()
					if err != nil {
						return nil, err
					}
					if peers[i], err = AcceptPeer(conn); err != nil {
						return nil, err
					}
				}
				return peers, nil
			})
		})
	}

	participants, shardConns := collectNetPeers(t, net, nParticipants, shardAddrs, lay.wrapCoord)
	cfg.Direct, cfg.ShardConns, cfg.ShardAddrs = lay.shards > 0, shardConns, shardAddrs
	var desk *RejoinDesk
	if lay.durable {
		desk = NewRejoinDesk(func() (Conn, error) {
			conn, ok := <-net.coordConns
			if !ok {
				return nil, errors.New("coordinator accept stream closed")
			}
			return conn, nil
		})
		defer desk.Close()
		dur := &DurableServerConfig{RunID: runID, WALPath: filepath.Join(t.TempDir(), "coord.wal"), Desk: desk}
		if lay.crash != "" {
			crashed := false
			dur.crash = func(b Boundary, m int) error {
				if !crashed && b == lay.crash && m == lay.crashRound {
					crashed = true
					return errBoom
				}
				return nil
			}
		}
		cfg.Durable = dur
	}
	events, err := RunServerPeers(participants, cfg)
	switch {
	case lay.crash != "" && errors.Is(err, errBoom):
		// Resume as a restarted process would: no peers, no shard conns
		// and no shard directory — the log holds the geometry, the
		// rejoins rebuild the links and the directory.
		rdur := *cfg.Durable
		rdur.Resume = true
		rcfg := cfg
		rcfg.ShardConns, rcfg.ShardAddrs, rcfg.Durable = nil, nil, &rdur
		events, err = RunServerPeers(nil, rcfg)
	case lay.crash != "" && err == nil:
		err = fmt.Errorf("the coordinator finished without reaching %s of round %d", lay.crash, lay.crashRound)
	}
	if err != nil {
		for _, p := range participants {
			p.Conn.Close()
		}
		for _, c := range shardConns {
			c.Close()
		}
		if desk != nil {
			desk.Close()
		}
		net.teardown()
	}
	wg.Wait()
	if err == nil {
		err = errors.Join(peerErrs...)
	}
	return events, err
}
