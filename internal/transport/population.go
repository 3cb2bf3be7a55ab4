// The population tier: training runs whose client population (100k–1M
// virtual clients) far exceeds anything one-connection-per-client can
// carry. Three ideas compose:
//
//   - Virtual-client hosts. A host process simulates many population
//     members over ONE physical connection to the coordinator and one
//     per shard, with per-member traffic enveloped in MuxFrames
//     (mux.go). Connection count scales with hosts × shards.
//   - Sampled participation. The coordinator draws a per-round cohort
//     from the population with exactly the engine's Fisher–Yates
//     (fl.CohortSampler — one implementation, shared) and only the
//     drawn members compute, upload, and are materialized anywhere.
//     Hosts keep per-member state (error-feedback residual, rng) lazily:
//     a member costs nothing until its first draw.
//   - Churn and dropouts. The drawable population may change between
//     rounds (join/leave schedules) and drawn members may miss the
//     round's deadline (dropout schedules); both follow the engine's
//     fl.Config.Churn/Dropout contracts, so wire runs and simulator
//     runs see the same trajectories.
//
// One weight-synchronization observation makes hosts cheap: in GS mode
// every member applies the same broadcast B every round, so all members
// share one set of global weights — a host keeps ONE model for its
// whole roster, and a member's private state is only its residual and
// its rng stream. Members that sit out rounds stay synchronized for
// free (their residuals simply freeze), which is also why the engine
// needs no "resync" protocol for churned-in clients.
//
// Message flow per round (routed, i.e. no shard tier):
//
//	coordinator ──CohortAssign──────────▶ hosts   (each host: its drawn members)
//	coordinator ◀─MuxFrame{member, Upload}── hosts (one per drawn member)
//	coordinator ──Broadcast─────────────▶ hosts   (ONE per host, not per member)
//
// and with a shard tier (ShardConns — the direct data plane):
//
//	coordinator ──CohortAssign──▶ hosts + shards  (hosts: their members; shards: full cohort)
//	hosts ──MuxFrame{member, SliceUpload}──▶ shards   (data plane)
//	hosts ──MuxFrame{member, RoundMeta}──▶ coordinator (control scalars)
//	coordinator ◀─ShardResult── shards ── FillQuery?/RoundSeal ──▶ (unchanged)
//	hosts ◀─RoundRelease── coordinator; hosts ──SliceFetch──▶ shards (ONE per host)
//	hosts ◀─SliceBroadcast── shards               (ONE per host per shard)
//
// Cohort-sampled trajectories are bit-identical to fl.Run with the same
// Cohort/Churn/Dropout/Seed: the draw shares the engine's code, hosts
// run every client tier's one local step per drawn member
// (localStep.run), and the aggregation runs over cohort-ordered
// uploads, which is the engine's participant order. The routed and direct planes are
// bit-identical to each other; population × bounded staleness is
// rejected (the host loop runs lockstep only, and checkAssign says so).
package transport

import (
	"fmt"
	"math/rand"

	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/nn"
	"fedsparse/internal/sparse"
)

// Population tier message types.
type (
	// HostHello opens a virtual-client host's connection to the
	// population coordinator (the first message on the conn; AcceptPeer
	// classifies it into Peer.Host). Members is the host's roster of
	// population member IDs, strictly ascending; Weights the parallel
	// aggregation weights C_i. Rosters of all hosts must partition the
	// population [0, N) exactly — the coordinator validates.
	HostHello struct {
		HostID  int
		Members []int
		Weights []float64
	}

	// HostData opens a host's ingest connection to one population shard
	// (the direct plane's DataHello at host granularity). The geometry
	// fields echo the coordinator's directory so a stale deployment
	// fails the handshake; Members names the roster whose MuxFrame
	// slices will arrive on this connection.
	HostData struct {
		HostID    int
		ShardID   int
		NumShards int
		Dim       int
		Members   []int
	}

	// CohortAssign announces one round's drawn cohort, post-dropout,
	// sorted ascending. Sender: the coordinator, at the top of every
	// round. Receiver and meaning: a host receives the drawn members of
	// its OWN roster (possibly empty — the host still receives the
	// round's broadcast, which is what keeps its weights synchronized);
	// a population shard receives the FULL cohort (its uplink barrier
	// counts one enveloped SliceUpload per drawn member). Ordering: the
	// round-m assign precedes all round-m uplink traffic.
	CohortAssign struct {
		Round   int
		Members []int
	}
)

// PopulationConfig switches a coordinator into the population tier.
type PopulationConfig struct {
	// Cohort is the number of members drawn each round from the active
	// population (clamped to the active count; 0 draws everyone). The
	// draw is rng-sequence-compatible with the engine's Participation
	// draw: Cohort = c consumes exactly the rng of Participation = c/N.
	Cohort int
	// Churn follows fl.Config.Churn: per-round join/leave schedules
	// over the drawable population, strictly validated. nil = static.
	Churn func(round int) (join, leave []int)
	// Dropout follows fl.Config.Dropout: drawn members for which it
	// returns true miss the round's deadline and are excluded after the
	// draw, consuming no rng. nil = nobody drops.
	Dropout func(client, round int) bool
	// DrawRng drives the cohort draw. For trajectories bit-identical
	// to fl.Run, pass a rand.Rand seeded with the engine's Seed and
	// advanced past the weight initialization (the engine draws from
	// the same stream that initialized the weights). Required when a
	// round can draw a strict subset of the active population.
	DrawRng *rand.Rand
}

// RunPopulationServer drives a population-tier training over
// pre-classified host connections (AcceptPeer fills Peer.Host). Hosts
// are seated by their declared HostID; their rosters must partition
// the population. cfg.Population must be set; bounded staleness is not
// population-aware.
func RunPopulationServer(hosts []Peer, cfg ServerConfig) (records []RoundRecord, err error) {
	if cfg.Observer != nil {
		defer func() { cfg.Observer.OnRunEnd(err) }()
	}
	pcfg := cfg.Population
	if pcfg == nil {
		return nil, fmt.Errorf("transport: RunPopulationServer needs ServerConfig.Population")
	}
	if err := cfg.check(len(cfg.ShardConns), false); err != nil {
		return nil, err
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("transport: population server needs at least one host")
	}
	if cfg.Staleness != 0 {
		return nil, fmt.Errorf("transport: the population tier requires the synchronous protocol (Staleness = 0)")
	}

	// Seat hosts by declared ID and stitch the global member directory.
	muxes := make([]*Mux, len(hosts))
	seated := make([]*HostHello, len(hosts))
	nPop := 0
	for _, p := range hosts {
		h := p.Host
		if h == nil {
			return nil, fmt.Errorf("transport: non-host peer passed to the population server")
		}
		if h.HostID < 0 || h.HostID >= len(hosts) {
			return nil, fmt.Errorf("transport: host id %d out of range [0, %d)", h.HostID, len(hosts))
		}
		if muxes[h.HostID] != nil {
			return nil, fmt.Errorf("transport: duplicate host id %d", h.HostID)
		}
		if len(h.Members) == 0 || len(h.Members) != len(h.Weights) {
			return nil, fmt.Errorf("transport: host %d roster shape %d members / %d weights",
				h.HostID, len(h.Members), len(h.Weights))
		}
		muxes[h.HostID] = NewMux(p.Conn)
		seated[h.HostID] = h
		nPop += len(h.Members)
	}
	memberHost := newMemberDirectory(nPop)
	weights := make([]float64, nPop)
	for hid, h := range seated {
		if err := claimRoster(memberHost, hid, h.Members, "transport"); err != nil {
			return nil, err
		}
		for i, member := range h.Members {
			weights[member] = h.Weights[i]
		}
	}
	// nPop == sum of roster sizes and every member landed uniquely in
	// [0, nPop), so the rosters partition the population exactly.

	if pcfg.Cohort < 0 || pcfg.Cohort > nPop {
		return nil, fmt.Errorf("transport: cohort %d outside [0, %d]", pcfg.Cohort, nPop)
	}
	if pcfg.Cohort > 0 && pcfg.Cohort < nPop && pcfg.DrawRng == nil {
		return nil, fmt.Errorf("transport: a sampling cohort (%d of %d) needs PopulationConfig.DrawRng", pcfg.Cohort, nPop)
	}
	sampler, err := fl.NewCohortSampler(nPop, pcfg.Cohort, pcfg.Churn, pcfg.Dropout)
	if err != nil {
		return nil, err
	}

	p := &popServer{muxes: muxes, memberHost: memberHost, sampler: sampler, hostDrawn: make([][]int, len(muxes))}
	// No fixed roster (every round passes its cohort); the downlink
	// goes to the hosts.
	p.coordRun = newCoordRun(cfg, p, 0, "member", weights)
	p.nDown = len(muxes)
	p.copyUploads = !cfg.Direct
	if err := p.open(hostConns(muxes), 0, len(muxes)); err != nil {
		return nil, err
	}
	return p.run()
}

// newMemberDirectory returns the member → host map of a population of
// nPop members, nobody claimed yet.
func newMemberDirectory(nPop int) []int {
	memberHost := make([]int, nPop)
	for i := range memberHost {
		memberHost[i] = -1
	}
	return memberHost
}

// claimRoster records host hid as the owner of its roster in the member
// directory: strictly ascending, inside the population, every member
// claimed once. where opens the error (a shard names itself).
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

// popServer is the coordinator's population tier around the shared
// round bodies (coordRun, role_coord.go): it supplies the roster — a
// cohort drawn per round — and the links: a drawn member is heard on
// its enveloped stream of its host's connection, and the downlink goes
// to each host ONCE, un-enveloped, for its whole roster. Population
// changes WHO uploads each round, not how a round is gathered,
// selected, or sealed.
type popServer struct {
	*coordRun
	muxes      []*Mux
	memberHost []int
	sampler    *fl.CohortSampler
	hostDrawn  [][]int // per-host drawn members, rebuilt each round
}

func (p *popServer) recv(member, m int) (any, error) {
	h := p.memberHost[member]
	msg, err := p.muxes[h].recvFor(member)
	if err != nil {
		return nil, fmt.Errorf("transport: round %d recv member %d from host %d: %w", m, member, h, err)
	}
	return msg, nil
}

func (p *popServer) send(h, m int, msg any) error {
	if err := p.muxes[h].Send(msg); err != nil {
		return fmt.Errorf("transport: round %d send to host %d: %w", m, h, err)
	}
	return nil
}

// drawRound advances the sampler and sends every host its CohortAssign
// (and, in direct mode, every shard the full cohort). The sent member
// slices are fresh copies: in-memory conns deliver by reference and the
// receiver holds its assign across the whole round, while these
// buffers are rebuilt next round.
func (p *popServer) drawRound(m int) ([]int, cohortDraw, error) {
	cohort, population, drawn, churnEvents, err := p.sampler.Draw(m, p.cfg.Population.DrawRng)
	if err != nil {
		return nil, cohortDraw{}, err
	}
	for h := range p.hostDrawn {
		p.hostDrawn[h] = p.hostDrawn[h][:0]
	}
	for _, member := range cohort {
		h := p.memberHost[member]
		p.hostDrawn[h] = append(p.hostDrawn[h], member)
	}
	for h, mux := range p.muxes {
		assign := CohortAssign{Round: m, Members: append([]int(nil), p.hostDrawn[h]...)}
		if err := mux.Send(assign); err != nil {
			return nil, cohortDraw{}, fmt.Errorf("transport: round %d cohort assign to host %d: %w", m, h, err)
		}
	}
	if p.cfg.Direct {
		for s, conn := range p.cfg.ShardConns {
			assign := CohortAssign{Round: m, Members: append([]int(nil), cohort...)}
			if err := conn.Send(assign); err != nil {
				return nil, cohortDraw{}, fmt.Errorf("transport: round %d cohort assign to shard %d: %w", m, s, err)
			}
		}
	}
	return cohort, cohortDraw{population: population, drawn: drawn, churnEvents: churnEvents}, nil
}

// run is the population round loop on both planes: draw the cohort,
// then the shared round body over it — weighted by the cohort's own
// total, the engine's per-round participant normalization.
func (p *popServer) run() ([]RoundRecord, error) {
	for m := 1; m <= p.cfg.Rounds; m++ {
		p.startRound(m)
		cohort, draw, err := p.drawRound(m)
		if err != nil {
			return p.records, err
		}
		var partWeight float64
		for _, member := range cohort {
			partWeight += p.weights[member]
		}
		rec, err := p.roundBody(m, cohort, partWeight)
		if err != nil {
			return p.records, err
		}
		p.finish(rec, len(cohort), &draw)
	}
	return p.records, nil
}

// hostConns unwraps the physical connections under the host muxes for
// byte metering.
func hostConns(muxes []*Mux) []Conn {
	conns := make([]Conn, len(muxes))
	for i, m := range muxes {
		conns[i] = m.phys
	}
	return conns
}

// HostConfig parameterizes one virtual-client host: a process that
// simulates its whole member roster over one physical connection to
// the coordinator (plus one per shard in direct mode).
type HostConfig struct {
	// HostID seats the host at the coordinator; ids must be dense
	// [0, numHosts).
	HostID int
	// Members is this host's roster of population member IDs, strictly
	// ascending. Rosters across hosts must partition [0, N).
	Members []int
	// Data yields one member's private dataset. Called lazily: a
	// member's dataset is first touched when the member is first drawn
	// (plus once per member at handshake for the aggregation weight).
	Data func(member int) *dataset.Dataset
	// Model builds the host's network. ONE instance serves the whole
	// roster — in GS mode every member applies the identical broadcast
	// each round, so all members share the global weights.
	Model        func() *nn.Network
	LearningRate float64
	BatchSize    int
	// Seed is the run's base seed; member rngs derive as
	// Seed + 1000003·(member+1), the engine's per-client scheme.
	Seed int64
	// DialShard opens the data-plane connection to one shard in direct
	// mode (nil uses Dial). Called once per shard per run — this is
	// the M:N point: connections scale with hosts × shards, never with
	// members.
	DialShard func(addr string) (Conn, error)
}

// vcState is one population member's private state, materialized
// lazily at the member's first draw. Everything else a classic client
// owns (model weights, batch buffers, top-k scratch) is shared across
// the roster.
type vcState struct {
	acc   []float64  // error-feedback residual
	rng   *rand.Rand // the member's private rng stream
	data  *dataset.Dataset
	pairs sparse.Vec // the member's upload buffer (stable within a round)
	// Per-shard slice buffers (direct mode): referenced by the wire
	// until the shard's barrier copies them, so they must survive
	// until this member's next draw.
	bufs sliceBufs
}

// RunVirtualHost executes one virtual-client host against a population
// coordinator: handshake with the roster, then per round receive the
// drawn cohort, run each drawn member's local computation (the shared
// localStep: minibatch gradient into the member's residual, the
// probe-sample rng draw, top-k extraction, quantization), upload per
// member over the shared links, and apply the round's broadcast ONCE
// to the shared model (then fold each drawn member's upload out of its
// residual). Undrawn members cost nothing per round and stay
// synchronized by construction.
func RunVirtualHost(coord Conn, cfg HostConfig) error {
	if len(cfg.Members) == 0 {
		return fmt.Errorf("transport: host %d has an empty roster", cfg.HostID)
	}
	for i, member := range cfg.Members {
		if member < 0 || (i > 0 && member <= cfg.Members[i-1]) {
			return fmt.Errorf("transport: host %d roster not strictly ascending at member %d", cfg.HostID, member)
		}
	}
	mux := NewMux(coord)
	hello := HostHello{HostID: cfg.HostID, Members: cfg.Members, Weights: make([]float64, len(cfg.Members))}
	states := make(map[int]*vcState, len(cfg.Members))
	for i, member := range cfg.Members {
		data := cfg.Data(member)
		hello.Weights[i] = float64(data.Len())
		states[member] = &vcState{data: data}
	}
	if err := mux.Send(hello); err != nil {
		return fmt.Errorf("transport: host %d hello: %w", cfg.HostID, err)
	}
	msg, err := mux.Recv()
	if err != nil {
		return fmt.Errorf("transport: host %d init recv: %w", cfg.HostID, err)
	}
	init, ok := msg.(Init)
	if !ok {
		return fmt.Errorf("transport: host %d expected Init, got %T", cfg.HostID, msg)
	}
	if init.Window != 0 {
		return fmt.Errorf("transport: host %d: population hosts do not support a staleness window (got %d)", cfg.HostID, init.Window)
	}
	step, err := newLocalStep("host", cfg.HostID, cfg.Model, init, cfg.BatchSize)
	if err != nil {
		return err
	}
	h := &virtualHost{cfg: cfg, mux: mux, init: init, states: states, step: step,
		applied: newAppliedSet("host", cfg.HostID, step.net.D())}
	if len(init.Shards) == 0 {
		return h.run(nil)
	}
	// Direct plane: dial every shard ONCE — this is the M:N point:
	// connections scale with hosts × shards, never with members.
	fan, err := dialShards("host", cfg.HostID, init.Shards, len(init.Params), cfg.DialShard, cfg.Members)
	if err != nil {
		return err
	}
	defer fan.close()
	return h.run(fan)
}

// virtualHost is the per-run state of RunVirtualHost: ONE model, local
// step and applied set for the whole roster (a member's values never
// outlive its turn, so sharing moves no trajectory bit).
type virtualHost struct {
	cfg     HostConfig
	mux     *Mux
	init    Init
	states  map[int]*vcState
	step    *localStep
	applied *appliedSet
}

// state materializes one member's lazy private state. A member first
// drawn at round m starts exactly like an engine client that sat out
// rounds 1..m−1: weights synchronized (the shared model), residual
// zero, rng stream virgin.
func (h *virtualHost) state(member int) (*vcState, error) {
	st, ok := h.states[member]
	if !ok {
		return nil, fmt.Errorf("transport: host %d drawn for member %d outside its roster", h.cfg.HostID, member)
	}
	if st.acc == nil {
		st.acc = make([]float64, h.step.net.D())
		st.rng = rand.New(rand.NewSource(h.cfg.Seed + 1000003*int64(member+1)))
	}
	return st, nil
}

// recvAssign receives and validates the round's cohort assignment.
func (h *virtualHost) recvAssign(m int) (CohortAssign, error) {
	msg, err := h.mux.Recv()
	if err != nil {
		return CohortAssign{}, fmt.Errorf("transport: host %d round %d assign recv: %w", h.cfg.HostID, m, err)
	}
	assign, ok := msg.(CohortAssign)
	if !ok {
		return CohortAssign{}, fmt.Errorf("transport: host %d round %d: expected CohortAssign, got %T", h.cfg.HostID, m, msg)
	}
	if assign.Round != m {
		return CohortAssign{}, fmt.Errorf("transport: host %d round %d: stale cohort assign (round %d)", h.cfg.HostID, m, assign.Round)
	}
	for i, member := range assign.Members {
		if i > 0 && member <= assign.Members[i-1] {
			return CohortAssign{}, fmt.Errorf("transport: host %d round %d: cohort assign not strictly ascending at member %d", h.cfg.HostID, m, member)
		}
	}
	return assign, nil
}

// run is the host's round loop on both data planes. Per drawn member:
// the local step on the member's own residual and rng, then its upload
// on its enveloped stream — routed (fan nil): one Upload to the
// coordinator; direct: each shard its range slice and the coordinator
// the control scalars. Per round, for the whole roster: ONE plain
// downlink (the coordinator's Broadcast, or one fetched slice per
// shard), applied once to the shared model, then each drawn member's
// upload folded out of its residual (the engine's error-feedback
// update, per participant).
func (h *virtualHost) run(fan *shardFan) error {
	id, bits := h.cfg.HostID, h.init.QuantBits
	var bIdx []int
	var bVal []float64
	for m := 1; m <= h.init.Rounds; m++ {
		assign, err := h.recvAssign(m)
		if err != nil {
			return err
		}
		for _, member := range assign.Members {
			st, err := h.state(member)
			if err != nil {
				return err
			}
			var batchLoss, scale float64
			st.pairs, batchLoss, scale = h.step.run(st.data, st.rng, st.acc, st.pairs)
			var ctl any
			if fan == nil {
				ctl = Upload{ClientID: member, Round: m, Idx: st.pairs.Idx, Val: st.pairs.Val,
					BatchLoss: batchLoss, Bits: bits, Scale: scale}
			} else {
				fan.split(st.pairs, &st.bufs)
				if err := fan.upload(m, member, &st.bufs, bits, scale); err != nil {
					return err
				}
				ctl = RoundMeta{ClientID: member, Round: m, BatchLoss: batchLoss, UploadLen: st.pairs.Len()}
			}
			if err := h.mux.sendFor(member, ctl); err != nil {
				return fmt.Errorf("transport: host %d round %d member %d upload: %w", id, m, member, err)
			}
		}
		if fan == nil {
			bc, err := recvBroadcast(h.mux, "host", id, m)
			if err != nil {
				return err
			}
			bIdx, bVal = bc.Idx, bc.Val
		} else if bIdx, bVal, err = fan.download(h.mux, m, bIdx[:0], bVal[:0]); err != nil {
			return err
		}
		if err := h.applied.apply(m, h.step.net.Params(), h.cfg.LearningRate, bIdx, bVal); err != nil {
			return err
		}
		for _, member := range assign.Members {
			st := h.states[member]
			h.applied.settle(st.acc, st.pairs)
		}
	}
	return nil
}

// populationIngest is the population tier's shard links
// (ShardAssign.NumHosts > 0): NumHosts host connections instead of one
// per client, a barrier over the cohort the coordinator announces each
// round — one enveloped SliceUpload per drawn member, in ascending
// member order, at its cohort POSITION, so fill candidates name
// positions as their client, the same positions an engine run with
// partial participation uses, which keeps the sharded population
// selection bit-identical to the engine's — and ONE fetch per host.
func populationIngest(coord Conn, assign ShardAssign, peers []Peer) (*shardLinks, error) {
	id, nHosts := assign.ShardID, assign.NumHosts
	muxes := make([]*Mux, nHosts)
	memberHost := newMemberDirectory(len(assign.Weights))
	for _, p := range peers {
		d := p.HostData
		if d == nil {
			return nil, fmt.Errorf("transport: shard %d: non-host peer on the population ingest plane", id)
		}
		if d.NumShards != assign.NumShards || d.Dim != assign.Dim || d.ShardID != id {
			return nil, fmt.Errorf("transport: shard %d: host %d presented a stale shard directory (%d shards over dim %d aimed at shard %d; this deployment is %d over %d)",
				id, d.HostID, d.NumShards, d.Dim, d.ShardID, assign.NumShards, assign.Dim)
		}
		if d.HostID < 0 || d.HostID >= nHosts {
			return nil, fmt.Errorf("transport: shard %d: host id %d out of range [0, %d)", id, d.HostID, nHosts)
		}
		if muxes[d.HostID] != nil {
			return nil, fmt.Errorf("transport: shard %d: duplicate host id %d on the ingest plane", id, d.HostID)
		}
		if err := claimRoster(memberHost, d.HostID, d.Members, fmt.Sprintf("transport: shard %d", id)); err != nil {
			return nil, err
		}
		muxes[d.HostID] = NewMux(p.Conn)
	}
	hosts := make(connPeers, nHosts)
	for h, mux := range muxes {
		if mux == nil {
			return nil, fmt.Errorf("transport: shard %d: no ingest connection from host %d", id, h)
		}
		hosts[h] = mux
	}
	roster := func(m int) ([]int, error) {
		msg, err := coord.Recv()
		if err != nil {
			return nil, fmt.Errorf("transport: shard %d round %d cohort recv: %w", id, m, err)
		}
		ca, ok := msg.(CohortAssign)
		if !ok {
			return nil, fmt.Errorf("transport: shard %d round %d: expected CohortAssign, got %T", id, m, msg)
		}
		if ca.Round != m {
			return nil, fmt.Errorf("transport: shard %d round %d: stale cohort assign (round %d)", id, m, ca.Round)
		}
		if len(ca.Members) == 0 {
			return nil, fmt.Errorf("transport: shard %d round %d: empty cohort", id, m)
		}
		for i, member := range ca.Members {
			if i > 0 && member <= ca.Members[i-1] {
				return nil, fmt.Errorf("transport: shard %d round %d: cohort not strictly ascending at member %d", id, m, member)
			}
			if member < 0 || member >= len(memberHost) || memberHost[member] < 0 {
				return nil, fmt.Errorf("transport: shard %d round %d: cohort member %d not in any host roster", id, m, member)
			}
		}
		return ca.Members, nil
	}
	return &shardLinks{up: memberStreams{muxes, memberHost}, down: hosts, nDown: nHosts, roster: roster, copies: true}, nil
}

// memberStreams are a population shard's uplinks: a member's messages
// travel enveloped on its host's connection.
type memberStreams struct {
	muxes      []*Mux
	memberHost []int
}

func (s memberStreams) recv(member, _ int) (any, error) {
	h := s.memberHost[member]
	msg, err := s.muxes[h].recvFor(member)
	if err != nil {
		return nil, fmt.Errorf("via host %d: %w", h, err)
	}
	return msg, nil
}
