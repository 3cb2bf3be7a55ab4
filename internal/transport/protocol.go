package transport

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/nn"
	"fedsparse/internal/sparse"
)

// ServerConfig parameterizes the coordinator side of a distributed
// fixed-k FAB-top-k run.
type ServerConfig struct {
	// K is the sparsity degree; Rounds the number of training rounds.
	K, Rounds int
	// InitialParams are the synchronized starting weights sent to every
	// client (generate them with the same seed as the reference engine
	// for trajectory-identical runs).
	InitialParams []float64
	// ShardConns are control-plane connections to aggregation shards
	// (RunDirectShard peers). Empty keeps the aggregation on the
	// coordinator (the routed plane); otherwise the run is on the direct
	// data plane (direct.go): the coordinate space is partitioned across
	// the shards, clients learn the shard directory from Init, split each
	// upload by coordinate range, and send every slice straight to the
	// owning shard — and pull the round's broadcast back from the shards
	// the same way, each shard serving its span of the selection from its
	// own merged sums. The coordinator then only handles the handshake,
	// per-round control metadata (RoundMeta up, RoundRelease down), the
	// selection over merged shard reductions, and the O(|J|) shard seals
	// — it never receives a gradient upload and never transmits B
	// payload. Results are bit-identical to the routed plane at any
	// shard count.
	ShardConns []Conn
	// Direct must be set exactly when ShardConns is non-empty: sharding
	// means the direct data plane, so the field carries no choice of its
	// own. It stays only because the frozen benchmark definition
	// (bench/cluster.go) sets it; a benchmark-definition PR may drop it.
	Direct bool
	// ShardAddrs is the client-facing ingest address of each shard, in
	// ShardConns order — the directory sent to clients in Init (shards
	// advertise theirs in ShardHello.Addr; see SplitShardPeers). With a
	// custom ClientConfig.DialShard the entries are opaque tokens passed
	// through to the hook.
	ShardAddrs []string
	// QuantBits quantizes the gradient payloads to this bit width on
	// both legs (0 = off; else 2–64), mirroring the engine's
	// fl.Config.QuantBits: clients snap each upload onto the b-bit grid
	// of its own max |value| before sending, the aggregate is snapped
	// onto its grid before broadcast, and the clients' error-feedback
	// residuals keep the quantization error. For widths up to 32 the
	// binary codec then packs the grid values as b-bit integers on the
	// wire — the paper's communication-efficiency lever as real bytes,
	// ~8× fewer value bytes per round at b=8. Trajectories remain
	// bit-identical to fl.Run with the same QuantBits.
	QuantBits int
	// Observer receives the run's round events synchronously at round
	// boundaries, with OnRunEnd fired exactly once when the server
	// returns — the same contract as fl.Config.Observer, plus the
	// transport-only fields: wire bytes per round from the binary
	// codec's counters and per-shard reduce wait times. nil disables.
	// Observers are passive; attaching one moves no trajectory bit.
	Observer fl.Observer
	// Population is the roster: set, the peers are virtual hosts, each
	// enrolling a roster of population members, and each round's
	// uploaders are a cohort drawn from the population. nil runs every
	// client every round. See population.go.
	Population *PopulationConfig
	// Durable is the journal: set, every round decision is logged to a
	// write-ahead log before it is sent and every broken link is re-seated
	// through a RejoinDesk; with Durable.Resume the coordinator restarts
	// from that log instead of enrolling peers. nil runs without a log.
	// See durable.go.
	Durable *DurableServerConfig
	// Staleness is the bounded-staleness window W, mirroring
	// fl.Config.Staleness: 0 runs the synchronous lockstep protocol;
	// W > 0 runs the same round loops W rounds deep — a client uploads
	// round m before it fetches and applies round m−W's broadcast, and a
	// shard serves round m−W's fetches right after sealing round m. No
	// upload is ever late, so the trajectory equals fl.Run's with the
	// same Staleness and no Delays, bit for bit; a slow client paces the
	// fleet as in lockstep, with W rounds of slack. Direct plane only
	// (the routed plane stays lockstep), and capped at MaxStaleness.
	Staleness int
}

// check is the one validation of a ServerConfig, and the only place a
// coordinator refuses a configuration: the quantization width, the
// staleness window, the tiers that exclude each other, the plane rule —
// shards mean the direct data plane, with one advertised ingest address
// per shard — and the journal's identity. nPeers is the number of
// participants passed in. A resume takes none: it holds no connections,
// every peer rejoins, and the log holds the plane's geometry.
func (cfg ServerConfig) check(nPeers int) error {
	dur, nShards := cfg.Durable, len(cfg.ShardConns)
	resume := dur != nil && dur.Resume
	switch {
	case cfg.QuantBits != 0 && (cfg.QuantBits < 2 || cfg.QuantBits > 64):
		return fmt.Errorf("transport: QuantBits must be 0 (off) or in [2, 64], got %d", cfg.QuantBits)
	case cfg.Staleness < 0 || cfg.Staleness > MaxStaleness:
		return fmt.Errorf("transport: Staleness must be in [0, %d], got %d", MaxStaleness, cfg.Staleness)
	case dur != nil && cfg.Staleness > 0:
		// The WAL's replay protocol assumes lockstep rounds: every round's
		// uploads are complete before the seal is logged.
		return fmt.Errorf("transport: durable coordinator does not support bounded staleness (Staleness=%d)", cfg.Staleness)
	case dur != nil && cfg.Population != nil:
		return fmt.Errorf("transport: the durable coordinator journals a fixed client roster, not a population (set Durable or Population, not both)")
	case cfg.Population != nil && cfg.Staleness > 0:
		return fmt.Errorf("transport: the population tier requires the synchronous protocol (Staleness = 0)")
	case resume && (nPeers > 0 || nShards > 0):
		return fmt.Errorf("transport: a durable resume takes no peers (got %d participants and %d shards): every peer rejoins through the RejoinDesk", nPeers, nShards)
	case resume:
		// The plane has no connections yet; the log holds its geometry.
	case nShards > 0 && !cfg.Direct:
		return fmt.Errorf("transport: ShardConns without Direct (a shard tier is the direct data plane)")
	case cfg.Direct && nShards == 0:
		return fmt.Errorf("transport: Direct needs ShardConns (the coordinator no longer aggregates)")
	case cfg.Staleness > 0 && !cfg.Direct:
		return fmt.Errorf("transport: Staleness requires the direct data plane (the routed topology is lockstep)")
	case len(cfg.ShardAddrs) != nShards:
		return fmt.Errorf("transport: need one ShardAddrs entry per shard (%d addrs for %d shards)", len(cfg.ShardAddrs), nShards)
	}
	for s, addr := range cfg.ShardAddrs {
		if addr == "" && !resume {
			return fmt.Errorf("transport: shard %d advertised no ingest address", s)
		}
	}
	switch {
	case dur != nil && dur.RunID == 0:
		return fmt.Errorf("transport: durable server needs a non-zero RunID (derive one with wal.RunID)")
	case dur != nil && dur.Desk == nil:
		return fmt.Errorf("transport: durable server needs a RejoinDesk (durability implies recovery)")
	case nPeers == 0 && !resume:
		return fmt.Errorf("transport: server needs at least one participant")
	}
	return nil
}

// MaxStaleness caps ServerConfig.Staleness. A W-deep client sends W+1
// uploads and one fetch down each shard link before anything answers
// it, and its control link holds up to W+1 RoundMetas one way and W+1
// RoundReleases the other; the cap keeps those W+2 messages inside the
// in-memory conn's 16-slot buffer, so no Send can block on a peer that
// is itself waiting for this client.
const MaxStaleness = 8

// Peer is one incoming connection classified by its first message:
// exactly one of Hello (a participant — client or virtual host — on the
// coordinator's control plane), Shard (an aggregation shard on the
// coordinator's control plane, with its advertised direct-ingest
// address), Data (a participant on a direct shard's ingest plane), or
// Rejoin (a durable peer redialing) is non-nil. AcceptPeer lets one
// listener serve every role, at any population scale.
type Peer struct {
	Conn   Conn
	Hello  *Hello
	Shard  *ShardHello
	Data   *DataHello
	Rejoin *Rejoin
}

// handshakeTimeout (nanoseconds) bounds the first Recv of every
// handshake: a peer that connects and then says nothing must not park
// an accept loop forever. Deadline expiry surfaces as ErrClosed via
// closedConnErr. Atomic: a test shortens it while handshake goroutines
// parked by earlier tests may still be reading it.
var handshakeTimeout atomic.Int64

func init() { handshakeTimeout.Store(int64(30 * time.Second)) }

// recvHandshake is one deadline-bounded handshake Recv.
func recvHandshake(conn Conn) (any, error) {
	return recvDeadline(conn, time.Duration(handshakeTimeout.Load()))
}

// AcceptPeer reads a connection's first message and classifies the peer.
func AcceptPeer(conn Conn) (Peer, error) {
	msg, err := recvHandshake(conn)
	if err != nil {
		return Peer{}, fmt.Errorf("transport: peer handshake recv: %w", err)
	}
	switch h := msg.(type) {
	case Hello:
		return Peer{Conn: conn, Hello: &h}, nil
	case ShardHello:
		return Peer{Conn: conn, Shard: &h}, nil
	case DataHello:
		return Peer{Conn: conn, Data: &h}, nil
	case Rejoin:
		return Peer{Conn: conn, Rejoin: &h}, nil
	default:
		return Peer{}, fmt.Errorf("transport: expected Hello, ShardHello, DataHello, or Rejoin, got %T", msg)
	}
}

// SplitShardPeers splits classified shard peers into their control-plane
// connections and their advertised direct-ingest addresses (parallel
// slices in peer order) — the inputs ServerConfig.ShardConns/ShardAddrs
// take.
func SplitShardPeers(shards []Peer) ([]Conn, []string) {
	conns := make([]Conn, len(shards))
	addrs := make([]string, len(shards))
	for i, p := range shards {
		conns[i] = p.Conn
		if p.Shard != nil {
			addrs[i] = p.Shard.Addr
		}
	}
	return conns, addrs
}

// SeatShardPeers orders classified shard peers by declared identity: a
// peer whose ShardHello carries HasID is seated at index ID, and peers
// without one fill the remaining slots in arrival order. Real processes
// enroll in whatever order the network delivers them, so a durable
// shard started with a stable `-id` must be seated by declaration — by
// arrival it could receive (and refuse) another shard's assignment.
// Duplicate or out-of-range declared identities error.
func SeatShardPeers(shards []Peer) ([]Peer, error) {
	n := len(shards)
	seated := make([]Peer, n)
	taken := make([]bool, n)
	var undeclared []Peer
	for _, p := range shards {
		if p.Shard == nil || !p.Shard.HasID {
			undeclared = append(undeclared, p)
			continue
		}
		id := p.Shard.ID
		if id < 0 || id >= n {
			return nil, fmt.Errorf("transport: shard declared id %d outside [0, %d)", id, n)
		}
		if taken[id] {
			return nil, fmt.Errorf("transport: two shards declared id %d", id)
		}
		seated[id] = p
		taken[id] = true
	}
	next := 0
	for _, p := range undeclared {
		for taken[next] {
			next++
		}
		seated[next] = p
		taken[next] = true
	}
	return seated, nil
}

// AcceptPeers accepts connections from ln and classifies each by its
// first message until nClients clients and nShards shards have arrived,
// returning them ready for RunServerPeers and (via SplitShardPeers)
// ServerConfig.ShardConns/ShardAddrs.
// Each handshake is read on its own goroutine, so a connection that
// never sends one (a port scanner, a health check, a peer that died
// mid-dial) cannot stall the deployment; unclassifiable connections and
// surplus peers of an already-filled role are closed and ignored. It
// returns an error when the listener fails, or when `timeout` (> 0; 0
// waits forever) elapses before the quota fills — an expected peer that
// crashed before its handshake then surfaces as a loud error reporting
// how far the collection got, instead of a silent hang.
func AcceptPeers(ln *Listener, nClients, nShards int, timeout time.Duration) ([]Peer, []Peer, error) {
	clients, shards, _, err := collectPeers(ln, nClients, nShards, 0, timeout)
	return clients, shards, err
}

// AcceptDataPeers collects n data-plane client connections on a direct
// shard's ingest listener (each opens with a DataHello) with the same
// stray-tolerant, bounded-wait behavior as AcceptPeers.
func AcceptDataPeers(ln *Listener, n int, timeout time.Duration) ([]Peer, error) {
	_, _, data, err := collectPeers(ln, 0, 0, n, timeout)
	return data, err
}

// collectPeers is the classified-accept loop behind AcceptPeers and
// AcceptDataPeers: fill per-role quotas, close strays and surplus.
func collectPeers(ln *Listener, nClients, nShards, nData int, timeout time.Duration) ([]Peer, []Peer, []Peer, error) {
	clients := make([]Peer, 0, nClients)
	shards := make([]Peer, 0, nShards)
	data := make([]Peer, 0, nData)
	if nClients <= 0 && nShards <= 0 && nData <= 0 {
		return clients, shards, data, nil
	}

	type outcome struct {
		peer Peer
		conn Conn
		err  error
	}
	results := make(chan outcome)
	acceptErr := make(chan error, 1)
	done := make(chan struct{})
	defer close(done) // releases the classifier and accept goroutines (LIFO: after the pending close below)

	// Connections accepted but not yet classified; on return, closing
	// them unblocks any handshake reads still parked on silent peers.
	var mu sync.Mutex
	pending := make(map[Conn]bool)
	finished := false
	defer func() {
		mu.Lock()
		finished = true
		conns := make([]Conn, 0, len(pending))
		for c := range pending {
			conns = append(conns, c)
		}
		mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case acceptErr <- err:
				case <-done:
				}
				return
			}
			mu.Lock()
			if finished {
				mu.Unlock()
				conn.Close()
				return
			}
			pending[conn] = true
			mu.Unlock()
			go func(conn Conn) {
				peer, err := AcceptPeer(conn)
				select {
				case results <- outcome{peer: peer, conn: conn, err: err}:
				case <-done:
					conn.Close()
				}
			}(conn)
		}
	}()

	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	for len(clients) < nClients || len(shards) < nShards || len(data) < nData {
		select {
		case <-timeoutCh:
			return nil, nil, nil, fmt.Errorf("transport: timed out after %v waiting for peers (%d/%d clients, %d/%d shards, %d/%d data peers arrived)",
				timeout, len(clients), nClients, len(shards), nShards, len(data), nData)
		case out := <-results:
			mu.Lock()
			delete(pending, out.conn)
			mu.Unlock()
			switch {
			case out.err != nil:
				out.conn.Close() // junk handshake or dead conn: ignore
			case out.peer.Hello != nil && len(clients) < nClients:
				clients = append(clients, out.peer)
			case out.peer.Shard != nil && len(shards) < nShards:
				shards = append(shards, out.peer)
			case out.peer.Data != nil && len(data) < nData:
				data = append(data, out.peer)
			default:
				out.conn.Close() // surplus peer for a filled role
			}
		case err := <-acceptErr:
			return nil, nil, nil, err
		}
	}
	return clients, shards, data, nil
}

// RoundRecord is the server's per-round log.
type RoundRecord struct {
	Round         int
	Loss          float64 // C_i/C-weighted minibatch loss at w(m−1)
	DownlinkElems int
}

// RunServerPeers is the coordinator: it seats the participants' Hellos
// (classified by AcceptPeer or AcceptPeers; shard connections go into
// cfg.ShardConns), then drives Rounds iterations of gather-A_i /
// broadcast-B and returns the per-round records. Which coordinator it
// runs is three ServerConfig values: the plane (ShardConns: the direct
// data plane, else routed), the journal (Durable: a write-ahead log and
// rejoin-based recovery; with Resume, a restart from that log, which
// takes no peers) and the roster (Population: virtual hosts and a cohort
// drawn each round). ServerConfig.check refuses the combinations the
// tiers do not support.
func RunServerPeers(peers []Peer, cfg ServerConfig) (records []RoundRecord, err error) {
	if cfg.Observer != nil {
		defer func() { cfg.Observer.OnRunEnd(err) }()
	}
	if err := cfg.check(len(peers)); err != nil {
		return nil, err
	}
	if cfg.Durable != nil && cfg.Durable.Resume {
		return resumeDurable(cfg)
	}
	if cfg.Population != nil {
		return servePopulation(peers, cfg)
	}
	clients, _, weights, err := seatHellos(peers, true)
	if err != nil {
		return nil, err
	}
	if cfg.Durable != nil {
		return runDurable(clients, weights, cfg)
	}
	c := newCoordRun(cfg, plainPeers{conns: clients, noun: "client"}, len(clients), "client", weights)
	if err := c.open(clients, 0, 0); err != nil {
		return nil, err
	}
	return c.run(1, nil)
}

// seatHellos is every coordinator's reading of its participants' Hellos:
// each is seated at its ClientID, dense in [0, len(peers)), with a
// roster and weights of one shape, every weight finite and positive,
// and the rosters are claimed in the member directory — strictly
// ascending, inside the population, every member once — so together
// they partition the population [0, N). On the per-client coordinators
// (perClient) a roster must be exactly [ClientID]. It returns the connections in ID order, the member →
// participant directory, and the weights C_i by member.
func seatHellos(peers []Peer, perClient bool) ([]Conn, []int, []float64, error) {
	noun := "host"
	if perClient {
		noun = "client"
	}
	n := len(peers)
	conns, seated := make([]Conn, n), make([]*Hello, n)
	nPop := 0
	for _, p := range peers {
		h := p.Hello
		if h == nil {
			return nil, nil, nil, fmt.Errorf("transport: non-participant peer passed as %s (a participant opens with Hello; shard conns belong in ServerConfig.ShardConns)", noun)
		}
		if h.ClientID < 0 || h.ClientID >= n {
			return nil, nil, nil, fmt.Errorf("transport: %s id %d out of range [0, %d)", noun, h.ClientID, n)
		}
		if seated[h.ClientID] != nil {
			return nil, nil, nil, fmt.Errorf("transport: duplicate %s id %d", noun, h.ClientID)
		}
		if len(h.Members) == 0 || len(h.Members) != len(h.Weights) {
			return nil, nil, nil, fmt.Errorf("transport: %s %d roster shape %d members / %d weights", noun, h.ClientID, len(h.Members), len(h.Weights))
		}
		if perClient && (len(h.Members) != 1 || h.Members[0] != h.ClientID) {
			return nil, nil, nil, fmt.Errorf("transport: client %d roster %v, want [%d]", h.ClientID, h.Members, h.ClientID)
		}
		// A weight is C_i, a sample count: it divides every aggregate and
		// the loss, and a member without samples cannot train.
		for i, w := range h.Weights {
			if !(w > 0) || math.IsInf(w, 1) {
				return nil, nil, nil, fmt.Errorf("transport: %s %d member %d weight %v, want a finite sample count > 0", noun, h.ClientID, h.Members[i], w)
			}
		}
		conns[h.ClientID], seated[h.ClientID] = p.Conn, h
		nPop += len(h.Members)
	}
	memberHost := newMemberDirectory(nPop)
	weights := make([]float64, nPop)
	for id, h := range seated {
		if err := claimRoster(memberHost, id, h.Members, "transport"); err != nil {
			return nil, nil, nil, err
		}
		for i, member := range h.Members {
			weights[member] = h.Weights[i]
		}
	}
	// nPop is the sum of the roster sizes and every member landed once
	// in [0, nPop), so the rosters partition the population exactly.
	return conns, memberHost, weights, nil
}

// newMemberDirectory returns the member → participant map of a
// population of nPop members, nobody claimed yet.
func newMemberDirectory(nPop int) []int {
	memberHost := make([]int, nPop)
	for i := range memberHost {
		memberHost[i] = -1
	}
	return memberHost
}

// claimRoster records participant hid as the owner of its roster in the
// member directory: strictly ascending, inside the population, every
// member claimed once. where opens the error (a shard names itself).
func claimRoster(memberHost []int, hid int, members []int, where string) error {
	for i, member := range members {
		if i > 0 && member <= members[i-1] {
			return fmt.Errorf("%s: host %d roster not strictly ascending at member %d", where, hid, member)
		}
		if member < 0 || member >= len(memberHost) {
			return fmt.Errorf("%s: host %d roster member %d outside the population [0, %d)", where, hid, member, len(memberHost))
		}
		if memberHost[member] != -1 {
			return fmt.Errorf("%s: member %d claimed by hosts %d and %d", where, member, memberHost[member], hid)
		}
		memberHost[member] = hid
	}
	return nil
}

// ClientConfig parameterizes one distributed participant.
type ClientConfig struct {
	ID           int
	Data         *dataset.Dataset
	Model        func() *nn.Network
	LearningRate float64
	BatchSize    int
	// Seed must be fl.ClientSeed(base, ID), the reference engine's
	// scheme, for trajectory-identical runs.
	Seed int64
	// DialShard opens the data-plane connection to one shard when the
	// coordinator's Init carries a shard directory (direct mode). nil
	// uses Dial on the directory address; tests inject in-memory pairs
	// here. RunClient owns the returned connection and sends the
	// DataHello itself; a durable client also redials a shard with it.
	DialShard func(addr string) (Conn, error)
	// Redial makes the client durable: it re-establishes the coordinator
	// control connection (e.g. a DialRetry closure), and every exchange
	// after the plain Hello/Init enrolment then survives coordinator
	// restarts, shard restarts (via the coordinator's Redo flow) and
	// dropped connections through the Rejoin handshake. It requires a
	// durable coordinator (the Init must carry its RunID) and, in direct
	// mode, durable shards. nil runs the plain client.
	Redial func() (Conn, error)
}

// RunClient executes the client side of the protocol until the configured
// number of rounds completes — over self-healing links when cfg.Redial
// is set (durable_client.go).
func RunClient(conn Conn, cfg ClientConfig) error {
	p := participant{who: "client", id: cfg.ID, roster: []int{cfg.ID}, weights: []float64{float64(cfg.Data.Len())},
		data: func(int) *dataset.Dataset { return cfg.Data }, seed: func(int) int64 { return cfg.Seed },
		model: cfg.Model, lr: cfg.LearningRate, batch: cfg.BatchSize, dial: cfg.DialShard}
	init, err := clientHandshake(conn, p)
	if err != nil {
		return err
	}
	if cfg.Redial == nil {
		return runClient(conn, p, init, nil)
	}
	if init.RunID == 0 {
		return fmt.Errorf("transport: client %d: coordinator is not durable (Init carries no RunID)", cfg.ID)
	}
	link := &healLink{conn: conn, rj: Rejoin{RunID: init.RunID, Kind: RejoinClient, ID: cfg.ID}, noun: "client", dial: cfg.Redial}
	return runClient(link, p, init, link)
}

// participant is what the one round loop (runClientRounds) runs: a
// client — the roster of its own ID, drawn every round, uploading on the
// control link — or a virtual host (host set), whose roster is its
// population members, drawn by each round's CohortAssign and uploading
// on their enveloped streams. Its roster is its enrolment on both planes
// (the Hello, and a DataHello per shard). who and id name it in errors;
// a member's data and rng seed are looked up by member ID.
type participant struct {
	who     string
	id      int
	roster  []int     // member IDs, strictly ascending
	weights []float64 // the members' aggregation weights C_i, by roster position
	data    func(member int) *dataset.Dataset
	seed    func(member int) int64
	model   func() *nn.Network
	lr      float64
	batch   int
	dial    func(addr string) (Conn, error)
	host    *Mux // a host's coordinator link; nil for a client
}

// clientHandshake enrolls a participant: its Hello up, Init down.
func clientHandshake(conn Conn, p participant) (Init, error) {
	if err := conn.Send(Hello{ClientID: p.id, Members: p.roster, Weights: p.weights}); err != nil {
		return Init{}, fmt.Errorf("transport: %s %d hello: %w", p.who, p.id, err)
	}
	msg, err := conn.Recv()
	if err != nil {
		return Init{}, fmt.Errorf("transport: %s %d init recv: %w", p.who, p.id, err)
	}
	init, ok := msg.(Init)
	if !ok {
		return Init{}, fmt.Errorf("transport: %s %d expected Init, got %T", p.who, p.id, msg)
	}
	return init, nil
}

// runClient is every participant after the handshake. coord is the
// control link — the plain connection, a host's Mux, or the durable
// client's self-healing healLink, passed again as link so the data
// plane can be armed the same way. An Init that carries a shard
// directory switches the participant to the direct data plane: it dials
// the shards, uploads range slices straight to the owners and pulls the
// broadcast slices back from them, and the coordinator link carries
// control scalars only; an Init with a staleness window runs those
// rounds that many deep.
func runClient(coord Conn, p participant, init Init, link *healLink) error {
	if init.Window < 0 || init.Window > MaxStaleness {
		return fmt.Errorf("transport: %s %d: init staleness window %d outside [0, %d]", p.who, p.id, init.Window, MaxStaleness)
	}
	if init.QuantBits != 0 && (init.QuantBits < 2 || init.QuantBits > 64) {
		return fmt.Errorf("transport: %s %d: init quantization width %d outside 0 or [2, 64]", p.who, p.id, init.QuantBits)
	}
	if len(init.Shards) == 0 {
		return runClientRounds(coord, p, init, nil)
	}
	fan, err := dialShards(p, init.Shards, len(init.Params))
	if err != nil {
		return err
	}
	defer fan.close()
	if link != nil {
		fan.rings = make([]ring, len(fan.conns))
		link.fan = fan
	}
	return runClientRounds(coord, p, init, fan)
}

// memberUpload is one drawn member's upload in an in-flight round: its
// roster position, its pairs, kept for the fold-back W steps later, and
// the per-shard split buffers its SliceUploads alias.
type memberUpload struct {
	pos   int
	pairs sparse.Vec
	bufs  sliceBufs
}

// runClientRounds is the participant's one round loop on both data
// planes, W = init.Window rounds deep — the engine's pipeline
// (internal/fl round.go) on the wire. Step m draws round m's cohort
// from the roster and runs each drawn member through the engine's own
// participant step (fl.Step.Run: the training computation and the rng
// order), then sends its upload — routed: one Upload to the coordinator;
// direct (fan set): range slices with explicit local ranks straight to
// the owning shards, and the control scalars to the coordinator. The
// step's probe sample h goes unused: the coordinator runs fixed-k FAB,
// with no mandated set and no probe. Then, once m > W, it receives round
// m−W's aggregated B — routed: the coordinator's Broadcast; direct: the
// shard-served slices, fetched after the coordinator's release and
// reassembled by concatenation — applies it once to the shared model,
// and settles each of that round's uploads out of its member's residual
// (fl.JSet.Settle). Steps past init.Rounds only drain the last W rounds.
// So round m's local step sees the weights of round m−W−1, as in fl.Run
// with the same Staleness, and W = 0 is the lockstep loop.
//
// Member state (fl.Member) is a slice by roster position, found by
// binary search over the ascending roster. A member first drawn at round
// m starts like an engine client that sat out rounds 1..m−1: weights
// synchronized (the shared model), residual zero, rng stream virgin.
//
// The upload buffers live in a ring of W+1 slots, one entry per cohort
// position, reused across rounds (the same zero-alloc hot loop as the
// simulator engine), and the downlink's are reused every round. Reuse
// is safe even over by-reference in-memory conns: slot m is next written
// at step m+W+1, after round m's broadcast was applied at step m+W — and
// every round-m consumer (the coordinator, or every shard's reduction
// and fill queries) is done reading before that broadcast can be
// released. (A durable link copies what it keeps for resends.)
func runClientRounds(coord Conn, p participant, init Init, fan *shardFan) error {
	net := p.model()
	net.SetParams(init.Params)
	step := fl.NewStep(p.batch, init.QuantBits)
	applied := &appliedSet{who: p.who, id: p.id, JSet: fl.NewJSet(net.D())}
	members := make([]fl.Member, len(p.roster))
	w := init.Window
	ring := make([][]memberUpload, w+1)
	var (
		bIdx []int
		bVal []float64
		err  error
	)
	for m := 1; m <= init.Rounds+w; m++ {
		if m <= init.Rounds {
			cohort := p.roster
			if p.host != nil {
				if cohort, err = recvCohort(p.host, p.who, p.id, m); err != nil {
					return err
				}
			}
			slot := ring[m%(w+1)]
			for cap(slot) < len(cohort) {
				slot = append(slot[:cap(slot)], memberUpload{})
			}
			slot = slot[:len(cohort)]
			ring[m%(w+1)] = slot
			for i, id := range cohort {
				pos := sort.SearchInts(p.roster, id)
				if pos == len(p.roster) || p.roster[pos] != id {
					return fmt.Errorf("transport: %s %d round %d: cohort member %d outside its roster", p.who, p.id, m, id)
				}
				st, up := &members[pos], &slot[i]
				if st.Acc == nil {
					*st = fl.Member{Acc: make([]float64, net.D()), Rng: rand.New(rand.NewSource(p.seed(id))), Data: p.data(id)}
				}
				up.pos = pos
				out := step.Run(net, st, nil, init.K, &up.pairs)
				var msg any
				if fan == nil {
					msg = Upload{ClientID: id, Round: m, Idx: up.pairs.Idx, Val: up.pairs.Val,
						BatchLoss: out.BatchLoss, Bits: init.QuantBits, Scale: out.Scale}
				} else {
					fan.split(up.pairs, &up.bufs)
					if err := fan.upload(m, id, &up.bufs, init.QuantBits, out.Scale); err != nil {
						return err
					}
					msg = RoundMeta{ClientID: id, Round: m, BatchLoss: out.BatchLoss, UploadLen: up.pairs.Len()}
				}
				if p.host != nil {
					err = p.host.sendFor(id, msg)
				} else {
					err = coord.Send(msg)
				}
				if err != nil {
					return fmt.Errorf("transport: %s %d round %d upload of %d: %w", p.who, p.id, m, id, err)
				}
			}
		}
		r := m - w
		if r < 1 {
			continue
		}
		if fan == nil {
			bc, err := recvBroadcast(coord, p.who, p.id, r)
			if err != nil {
				return err
			}
			bIdx, bVal = bc.Idx, bc.Val
		} else if bIdx, bVal, err = fan.download(coord, r, bIdx[:0], bVal[:0]); err != nil {
			return err
		}
		if err := applied.apply(r, net.Params(), p.lr, bIdx, bVal); err != nil {
			return err
		}
		for _, up := range ring[r%(w+1)] {
			applied.Settle(members[up.pos].Acc, up.pairs)
		}
	}
	return nil
}

// validateUpload is the routed coordinators' trust boundary on one Upload
// — classic, durable and population alike. The aggregation path trusts
// uploads to be well-formed (parallel Idx/Val, coordinates indexing the
// model, no coordinate repeated within one upload) and the model trusts
// them to be finite: one NaN or ±Inf at full precision would poison the
// global weights on every client and, through error feedback, stay. So a
// malformed peer upload fails here as a protocol error naming the round
// and the client — not as an aggregation panic, a silent double-count or
// a dead model. seen is an epoch slab over the coordinate space
// (seen[j] == token marks j used); the caller bumps token per upload.
func validateUpload(up Upload, m, id, bits int, seen []int, token int) error {
	if up.Round != m || up.ClientID != id {
		return fmt.Errorf("transport: round %d: stale upload (round %d from client %d, want client %d)",
			m, up.Round, up.ClientID, id)
	}
	if len(up.Idx) != len(up.Val) {
		return fmt.Errorf("transport: round %d: client %d uploaded %d indices with %d values",
			m, id, len(up.Idx), len(up.Val))
	}
	if up.Bits != bits {
		return fmt.Errorf("transport: round %d: client %d uploaded at %d-bit quantization, run uses %d",
			m, id, up.Bits, bits)
	}
	for vi, j := range up.Idx {
		if j < 0 || j >= len(seen) {
			return fmt.Errorf("transport: round %d: client %d uploaded index %d out of range [0, %d)",
				m, id, j, len(seen))
		}
		if seen[j] == token {
			return fmt.Errorf("transport: round %d: client %d uploaded duplicate index %d", m, id, j)
		}
		seen[j] = token
		if v := up.Val[vi]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("transport: round %d: client %d uploaded non-finite value %v at index %d", m, id, v, j)
		}
	}
	return nil
}
