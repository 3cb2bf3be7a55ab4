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
// and with the direct shard plane (ShardConns + Direct):
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
// mirror the engine's per-member compute exactly (runClientRounds'
// body), and the aggregation runs over cohort-ordered uploads, which is
// the engine's participant order. The routed and direct planes are
// bit-identical to each other; population × bounded staleness and
// population × the routed shard tier are rejected (the cohort changes
// every round, which neither plane's admission bookkeeping models).
package transport

import (
	"fmt"
	"math/rand"
	"sort"

	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
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
// the population. cfg.Population must be set; the shard tier, when
// present, must be Direct (the routed shard plane and bounded
// staleness are not population-aware).
func RunPopulationServer(hosts []Peer, cfg ServerConfig) (records []RoundRecord, err error) {
	if cfg.Observer != nil {
		defer func() { cfg.Observer.OnRunEnd(err) }()
	}
	pcfg := cfg.Population
	if pcfg == nil {
		return nil, fmt.Errorf("transport: RunPopulationServer needs ServerConfig.Population")
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("transport: population server needs at least one host")
	}
	if cfg.QuantBits != 0 && (cfg.QuantBits < 2 || cfg.QuantBits > 64) {
		return nil, fmt.Errorf("transport: QuantBits must be 0 (off) or in [2, 64], got %d", cfg.QuantBits)
	}
	if cfg.Staleness != 0 {
		return nil, fmt.Errorf("transport: the population tier requires the synchronous protocol (Staleness = 0)")
	}
	if len(cfg.ShardConns) > 0 && !cfg.Direct {
		return nil, fmt.Errorf("transport: the population tier supports shards on the direct data plane only")
	}

	// Seat hosts by declared ID and stitch the global member directory.
	muxes := make([]*Mux, len(hosts))
	rosters := make([][]int, len(hosts))
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
		rosters[h.HostID] = h.Members
	}
	nPop := 0
	for _, roster := range rosters {
		nPop += len(roster)
	}
	memberHost := make([]int, nPop)
	weights := make([]float64, nPop)
	for i := range memberHost {
		memberHost[i] = -1
	}
	for hid, p := range seatByID(hosts) {
		for i, member := range p.Host.Members {
			if i > 0 && member <= p.Host.Members[i-1] {
				return nil, fmt.Errorf("transport: host %d roster not strictly ascending at member %d", hid, member)
			}
			if member < 0 || member >= nPop {
				return nil, fmt.Errorf("transport: host %d roster member %d outside the population [0, %d)", hid, member, nPop)
			}
			if memberHost[member] != -1 {
				return nil, fmt.Errorf("transport: member %d claimed by hosts %d and %d", member, memberHost[member], hid)
			}
			memberHost[member] = hid
			weights[member] = p.Host.Weights[i]
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

	p := &popServer{
		cfg:        cfg,
		muxes:      muxes,
		memberHost: memberHost,
		weights:    weights,
		sampler:    sampler,
		hostDrawn:  make([][]int, len(muxes)),
		seen:       make([]int, len(cfg.InitialParams)),
	}
	if cfg.Direct {
		return p.runDirect()
	}
	return p.runRouted()
}

// seatByID returns the host peers indexed by declared HostID. The
// caller has already validated range and uniqueness.
func seatByID(hosts []Peer) []Peer {
	seated := make([]Peer, len(hosts))
	for _, p := range hosts {
		seated[p.Host.HostID] = p
	}
	return seated
}

// popServer is the coordinator's population-run state, shared by the
// routed and direct round loops.
type popServer struct {
	cfg        ServerConfig
	muxes      []*Mux
	memberHost []int
	weights    []float64
	sampler    *fl.CohortSampler

	hostDrawn [][]int // per-host drawn members, rebuilt each round
	seen      []int   // duplicate-coordinate slab for upload validation
	seenToken int

	// Per-cohort-position retained buffers: uploads from many members
	// share one physical connection (and, on the binary codec, one
	// decode scratch), so each member's payload is copied out before
	// the next Recv on that connection can overwrite it.
	slotIdx [][]int
	slotVal [][]float64
	uploads []gs.ClientUpload
}

// drawRound advances the sampler and sends every host its CohortAssign
// (and, when shardCohort is true, every shard the full cohort). The
// sent member slices are fresh copies: in-memory conns deliver by
// reference and the receiver holds its assign across the whole round,
// while these buffers are rebuilt next round.
func (p *popServer) drawRound(m int, shardCohort bool) (cohort []int, population, drawn, churnEvents int, err error) {
	cohort, population, drawn, churnEvents, err = p.sampler.Draw(m, p.cfg.Population.DrawRng)
	if err != nil {
		return nil, 0, 0, 0, err
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
			return nil, 0, 0, 0, fmt.Errorf("transport: round %d cohort assign to host %d: %w", m, h, err)
		}
	}
	if shardCohort {
		for s, conn := range p.cfg.ShardConns {
			assign := CohortAssign{Round: m, Members: append([]int(nil), cohort...)}
			if err := conn.Send(assign); err != nil {
				return nil, 0, 0, 0, fmt.Errorf("transport: round %d cohort assign to shard %d: %w", m, s, err)
			}
		}
	}
	return cohort, population, drawn, churnEvents, nil
}

// growSlots sizes the per-cohort-position buffers.
func (p *popServer) growSlots(n int) {
	for len(p.slotIdx) < n {
		p.slotIdx = append(p.slotIdx, nil)
		p.slotVal = append(p.slotVal, nil)
	}
	if cap(p.uploads) < n {
		p.uploads = make([]gs.ClientUpload, n)
	}
	p.uploads = p.uploads[:n]
}

// emit records the round and publishes the population-aware event.
func (p *popServer) emit(records []RoundRecord, rec RoundRecord, cohortLen, population, drawn, churnEvents int, bm *byteMeter, reduce []float64) []RoundRecord {
	records = append(records, rec)
	if p.cfg.Observer != nil {
		ev := roundEvent(rec, p.cfg.K, cohortLen, bm, reduce)
		ev.Population = population
		ev.CohortSize = drawn
		ev.ChurnEvents = churnEvents
		p.cfg.Observer.OnRoundEnd(ev)
	}
	return records
}

// runRouted is the population round loop without a shard tier: cohort
// uploads arrive enveloped on the host links, the aggregation runs on
// the coordinator, and each host receives ONE broadcast per round.
func (p *popServer) runRouted() ([]RoundRecord, error) {
	cfg := p.cfg
	init := Init{Params: cfg.InitialParams, K: cfg.K, Rounds: cfg.Rounds, QuantBits: cfg.QuantBits}
	for h, mux := range p.muxes {
		if err := mux.Send(init); err != nil {
			return nil, fmt.Errorf("transport: send init to host %d: %w", h, err)
		}
	}
	strategy := &gs.FABTopK{}
	scratch := gs.NewAggScratch(0)
	scratch.Reserve(len(cfg.InitialParams))
	var bm *byteMeter
	if cfg.Observer != nil {
		bm = newByteMeter(hostConns(p.muxes))
		bm.delta()
	}
	records := make([]RoundRecord, 0, cfg.Rounds)
	for m := 1; m <= cfg.Rounds; m++ {
		if cfg.Observer != nil {
			cfg.Observer.OnRoundStart(m)
		}
		cohort, population, drawn, churnEvents, err := p.drawRound(m, false)
		if err != nil {
			return records, err
		}
		p.growSlots(len(cohort))
		var partWeight float64
		for _, member := range cohort {
			partWeight += p.weights[member]
		}
		var weightedLoss float64
		for i, member := range cohort {
			up, err := p.recvUpload(m, member)
			if err != nil {
				return records, err
			}
			p.slotIdx[i] = append(p.slotIdx[i][:0], up.Idx...)
			p.slotVal[i] = append(p.slotVal[i][:0], up.Val...)
			p.uploads[i] = gs.ClientUpload{
				Pairs:  sparse.Vec{Idx: p.slotIdx[i], Val: p.slotVal[i]},
				Weight: p.weights[member],
			}
			weightedLoss += p.weights[member] / partWeight * up.BatchLoss
		}
		agg, _ := strategy.AggregateInto(scratch, p.uploads[:len(cohort)], cfg.K, 0)
		bc := Broadcast{
			Round: m,
			Idx:   append([]int(nil), agg.Indices...),
			Val:   append([]float64(nil), agg.Values...),
		}
		if cfg.QuantBits > 0 {
			bc.Bits = cfg.QuantBits
			bc.Scale = sparse.QuantizeInPlace(bc.Val, cfg.QuantBits)
		}
		for h, mux := range p.muxes {
			if err := mux.Send(bc); err != nil {
				return records, fmt.Errorf("transport: round %d broadcast to host %d: %w", m, h, err)
			}
		}
		rec := RoundRecord{Round: m, Loss: weightedLoss, DownlinkElems: len(agg.Indices)}
		records = p.emit(records, rec, len(cohort), population, drawn, churnEvents, bm, nil)
	}
	return records, nil
}

// recvUpload receives and validates one drawn member's enveloped Upload
// from its host link.
func (p *popServer) recvUpload(m, member int) (Upload, error) {
	h := p.memberHost[member]
	msg, err := p.muxes[h].Virtual(member).Recv()
	if err != nil {
		return Upload{}, fmt.Errorf("transport: round %d recv member %d from host %d: %w", m, member, h, err)
	}
	up, ok := msg.(Upload)
	if !ok {
		return Upload{}, fmt.Errorf("transport: round %d: member %d sent %T, want Upload", m, member, msg)
	}
	p.seenToken++
	if err := validateUpload(up, m, member, p.cfg.QuantBits, p.seen, p.seenToken); err != nil {
		return Upload{}, err
	}
	return up, nil
}

// runDirect is the population round loop over the direct shard plane:
// slices flow host→shard enveloped per member, control scalars flow
// host→coordinator the same way, and the selection/seal machinery is
// the classic DirectGroup — population changes WHO uploads each round,
// not how a round is sealed.
func (p *popServer) runDirect() ([]RoundRecord, error) {
	cfg := p.cfg
	dim := len(cfg.InitialParams)
	if len(cfg.ShardConns) == 0 {
		return nil, fmt.Errorf("transport: direct mode needs ShardConns (the coordinator no longer aggregates)")
	}
	if len(cfg.ShardAddrs) != len(cfg.ShardConns) {
		return nil, fmt.Errorf("transport: direct mode needs one ShardAddrs entry per shard (%d addrs for %d shards)",
			len(cfg.ShardAddrs), len(cfg.ShardConns))
	}
	for s, addr := range cfg.ShardAddrs {
		if addr == "" {
			return nil, fmt.Errorf("transport: direct mode: shard %d advertised no ingest address", s)
		}
	}
	group, err := newDirectGroupState(cfg.ShardConns, dim, p.weights, cfg.QuantBits)
	if err != nil {
		return nil, err
	}
	assign := ShardAssign{NumShards: len(cfg.ShardConns), Dim: dim, Rounds: cfg.Rounds,
		Weights: append([]float64(nil), p.weights...), Direct: true, QuantBits: cfg.QuantBits,
		NumHosts: len(p.muxes)}
	for s, conn := range cfg.ShardConns {
		assign.ShardID = s
		if err := conn.Send(assign); err != nil {
			return nil, fmt.Errorf("transport: assign population shard %d: %w", s, err)
		}
	}
	init := Init{Params: cfg.InitialParams, K: cfg.K, Rounds: cfg.Rounds, QuantBits: cfg.QuantBits, Shards: cfg.ShardAddrs}
	for h, mux := range p.muxes {
		if err := mux.Send(init); err != nil {
			return nil, fmt.Errorf("transport: send init to host %d: %w", h, err)
		}
	}
	strategy := &gs.FABTopK{}
	var bm *byteMeter
	if cfg.Observer != nil {
		bm = newByteMeter(hostConns(p.muxes), cfg.ShardConns)
		bm.delta()
	}
	records := make([]RoundRecord, 0, cfg.Rounds)
	for m := 1; m <= cfg.Rounds; m++ {
		if cfg.Observer != nil {
			cfg.Observer.OnRoundStart(m)
		}
		cohort, population, drawn, churnEvents, err := p.drawRound(m, true)
		if err != nil {
			return records, err
		}
		var partWeight float64
		for _, member := range cohort {
			partWeight += p.weights[member]
		}
		var weightedLoss float64
		maxLen := 0
		for _, member := range cohort {
			h := p.memberHost[member]
			msg, err := p.muxes[h].Virtual(member).Recv()
			if err != nil {
				return records, fmt.Errorf("transport: round %d recv member %d meta from host %d: %w", m, member, h, err)
			}
			meta, ok := msg.(RoundMeta)
			if !ok {
				return records, fmt.Errorf("transport: round %d: member %d sent %T, want RoundMeta (gradient payloads go to the shards)", m, member, msg)
			}
			if meta.Round != m || meta.ClientID != member {
				return records, fmt.Errorf("transport: round %d: stale metadata (round %d from member %d, want member %d)",
					m, meta.Round, meta.ClientID, member)
			}
			if meta.UploadLen < 0 || meta.UploadLen > dim {
				return records, fmt.Errorf("transport: round %d: member %d reported upload length %d outside [0, %d]",
					m, member, meta.UploadLen, dim)
			}
			weightedLoss += p.weights[member] / partWeight * meta.BatchLoss
			maxLen = max(maxLen, meta.UploadLen)
		}
		agg, err := group.Aggregate(strategy, m, cfg.K, maxLen)
		if err != nil {
			return records, err
		}
		rel := RoundRelease{Round: m, Elems: len(agg.Indices)}
		for h, mux := range p.muxes {
			if err := mux.Send(rel); err != nil {
				return records, fmt.Errorf("transport: round %d release to host %d: %w", m, h, err)
			}
		}
		rec := RoundRecord{Round: m, Loss: weightedLoss, DownlinkElems: len(agg.Indices)}
		records = p.emit(records, rec, len(cohort), population, drawn, churnEvents, bm, group.reduceSecs)
	}
	return records, nil
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
	sIdx  [][]int
	sVal  [][]float64
	sRank [][]int
}

// RunVirtualHost executes one virtual-client host against a population
// coordinator: handshake with the roster, then per round receive the
// drawn cohort, run each drawn member's local computation (the exact
// engine body: minibatch gradient into the member's residual, the
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
	if init.QuantBits != 0 && (init.QuantBits < 2 || init.QuantBits > 64) {
		return fmt.Errorf("transport: host %d: init quantization width %d outside 0 or [2, 64]", cfg.HostID, init.QuantBits)
	}
	if init.Window != 0 {
		return fmt.Errorf("transport: host %d: population hosts do not support a staleness window (got %d)", cfg.HostID, init.Window)
	}

	h := &virtualHost{cfg: cfg, mux: mux, init: init, states: states}
	h.net = cfg.Model()
	h.net.SetParams(init.Params)
	h.applied = newAppliedSet(h.net.D())
	if len(init.Shards) > 0 {
		return h.runDirect()
	}
	return h.runRouted()
}

// virtualHost is the per-run state of RunVirtualHost.
type virtualHost struct {
	cfg    HostConfig
	mux    *Mux
	init   Init
	net    *nn.Network
	states map[int]*vcState

	// Shared member-compute scratch (values never outlive one member's
	// turn, so sharing moves no trajectory bit).
	topk sparse.TopKScratch
	xs   [][]float64
	ys   []int

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
		st.acc = make([]float64, h.net.D())
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

// computeMember runs one drawn member's local round: minibatch
// gradient accumulated into the member's residual, the engine's
// probe-sample rng draw, top-k extraction into the member's upload
// buffer, and quantization. Mirrors runClientRounds' body exactly —
// this is the bit-identity-critical code.
func (h *virtualHost) computeMember(st *vcState) (batchLoss, scale float64) {
	h.xs, h.ys = st.data.BatchInto(h.xs, h.ys, st.rng, h.cfg.BatchSize)
	batchLoss = h.net.MeanLossGrad(h.xs, h.ys)
	tensor.AXPY(1, h.net.Grads(), st.acc)
	_ = st.rng.Intn(len(h.xs))
	st.pairs = sparse.TopKInto(st.pairs, &h.topk, st.acc, h.init.K)
	if h.init.QuantBits > 0 {
		scale = sparse.QuantizeInPlace(st.pairs.Val, h.init.QuantBits)
	}
	return batchLoss, scale
}

// applyBroadcast applies the round's aggregate ONCE to the shared
// model, then folds each drawn member's uploaded values out of its
// residual (the engine's error-feedback update, per participant).
func (h *virtualHost) applyBroadcast(drawn []int, bIdx []int, bVal []float64) {
	h.applied.apply(h.net.Params(), h.cfg.LearningRate, bIdx, bVal)
	for _, member := range drawn {
		st := h.states[member]
		for vi, j := range st.pairs.Idx {
			if h.applied.has(j) {
				st.acc[j] -= st.pairs.Val[vi]
			}
		}
	}
}

// runRouted is the host's round loop without shards: per drawn member
// one enveloped Upload up, ONE plain Broadcast down per host.
func (h *virtualHost) runRouted() error {
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
			batchLoss, scale := h.computeMember(st)
			up := Upload{ClientID: member, Round: m, Idx: st.pairs.Idx, Val: st.pairs.Val,
				BatchLoss: batchLoss, Bits: h.init.QuantBits, Scale: scale}
			if err := h.mux.Virtual(member).Send(up); err != nil {
				return fmt.Errorf("transport: host %d round %d member %d upload: %w", h.cfg.HostID, m, member, err)
			}
		}
		msg, err := h.mux.Recv()
		if err != nil {
			return fmt.Errorf("transport: host %d round %d broadcast recv: %w", h.cfg.HostID, m, err)
		}
		bc, ok := msg.(Broadcast)
		if !ok || bc.Round != m {
			return fmt.Errorf("transport: host %d round %d: bad broadcast %T", h.cfg.HostID, m, msg)
		}
		h.applyBroadcast(assign.Members, bc.Idx, bc.Val)
	}
	return nil
}

// runDirect is the host's round loop over the direct shard plane: dial
// every shard ONCE, then per drawn member send each shard its range
// slice (enveloped) and the coordinator the control scalars, and per
// round fetch ONE broadcast slice per shard for the whole roster.
func (h *virtualHost) runDirect() error {
	cfg, init := h.cfg, h.init
	dim := len(init.Params)
	nShards := len(init.Shards)
	dial := cfg.DialShard
	if dial == nil {
		dial = Dial
	}
	shardMux := make([]Conn, nShards)
	defer func() {
		for _, c := range shardMux {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	bounds := make([]int, nShards+1)
	for s := 0; s < nShards; s++ {
		lo, hi := tensor.ChunkBounds(dim, nShards, s)
		bounds[s], bounds[s+1] = lo, hi
		conn, err := dial(init.Shards[s])
		if err != nil {
			return fmt.Errorf("transport: host %d dial shard %d (%s): %w", cfg.HostID, s, init.Shards[s], err)
		}
		mux := NewMux(conn)
		shardMux[s] = mux
		hello := HostData{HostID: cfg.HostID, ShardID: s, NumShards: nShards, Dim: dim, Members: cfg.Members}
		if err := mux.Send(hello); err != nil {
			return fmt.Errorf("transport: host %d data hello to shard %d: %w", cfg.HostID, s, err)
		}
	}
	shardOf := func(j int) int { return sort.SearchInts(bounds, j+1) - 1 }

	var bIdx []int
	var bVal []float64
	for m := 1; m <= init.Rounds; m++ {
		assign, err := h.recvAssign(m)
		if err != nil {
			return err
		}
		for _, member := range assign.Members {
			st, err := h.state(member)
			if err != nil {
				return err
			}
			batchLoss, scale := h.computeMember(st)
			if st.sIdx == nil {
				st.sIdx = make([][]int, nShards)
				st.sVal = make([][]float64, nShards)
				st.sRank = make([][]int, nShards)
			}
			for s := 0; s < nShards; s++ {
				st.sIdx[s] = st.sIdx[s][:0]
				st.sVal[s] = st.sVal[s][:0]
				st.sRank[s] = st.sRank[s][:0]
			}
			for pi, j := range st.pairs.Idx {
				s := shardOf(j)
				st.sIdx[s] = append(st.sIdx[s], j)
				st.sVal[s] = append(st.sVal[s], st.pairs.Val[pi])
				st.sRank[s] = append(st.sRank[s], pi)
			}
			for s := 0; s < nShards; s++ {
				up := SliceUpload{ClientID: member, Round: m, Idx: st.sIdx[s], Val: st.sVal[s],
					Rank: st.sRank[s], Bits: init.QuantBits, Scale: scale}
				if err := shardMux[s].(*Mux).Virtual(member).Send(up); err != nil {
					return fmt.Errorf("transport: host %d round %d member %d slice to shard %d: %w", cfg.HostID, m, member, s, err)
				}
			}
			meta := RoundMeta{ClientID: member, Round: m, BatchLoss: batchLoss, UploadLen: st.pairs.Len()}
			if err := h.mux.Virtual(member).Send(meta); err != nil {
				return fmt.Errorf("transport: host %d round %d member %d metadata: %w", cfg.HostID, m, member, err)
			}
		}
		msg, err := h.mux.Recv()
		if err != nil {
			return fmt.Errorf("transport: host %d round %d release recv: %w", cfg.HostID, m, err)
		}
		rel, ok := msg.(RoundRelease)
		if !ok {
			return fmt.Errorf("transport: host %d round %d: expected RoundRelease, got %T", cfg.HostID, m, msg)
		}
		if rel.Round != m {
			return fmt.Errorf("transport: host %d round %d: stale release (round %d)", cfg.HostID, m, rel.Round)
		}
		// One fetch per shard for the WHOLE roster — the host-level
		// (un-enveloped) downlink, identified by HostID.
		bIdx, bVal, err = fetchBroadcastSlices(cfg.HostID, shardMux, bounds, m, rel.Elems, bIdx[:0], bVal[:0])
		if err != nil {
			return err
		}
		h.applyBroadcast(assign.Members, bIdx, bVal)
	}
	return nil
}

// runDirectShardPopulation is RunDirectShard's population-tier round
// loop (ShardAssign.NumHosts > 0): the ingest plane carries NumHosts
// host connections instead of one per client, the per-round barrier
// covers the cohort the coordinator announces (one enveloped
// SliceUpload per drawn member, received in ascending member order),
// and the downlink serves ONE SliceBroadcast per host. Fill candidates
// are reported with cohort POSITIONS as their client field — the same
// positions an engine run with partial participation uses — which is
// what keeps the sharded population selection bit-identical to the
// engine's.
func runDirectShardPopulation(coord Conn, assign ShardAssign, peers []Peer, lo, hi int) error {
	nPop := len(assign.Weights)
	nHosts := assign.NumHosts
	defer func() {
		for _, p := range peers {
			_ = p.Conn.Close()
		}
	}()
	muxes := make([]*Mux, nHosts)
	memberHost := make([]int, nPop)
	for i := range memberHost {
		memberHost[i] = -1
	}
	for _, p := range peers {
		d := p.HostData
		if d == nil {
			return fmt.Errorf("transport: shard %d: non-host peer on the population ingest plane", assign.ShardID)
		}
		if d.NumShards != assign.NumShards || d.Dim != assign.Dim || d.ShardID != assign.ShardID {
			return fmt.Errorf("transport: shard %d: host %d presented a stale shard directory (%d shards over dim %d aimed at shard %d; this deployment is %d over %d)",
				assign.ShardID, d.HostID, d.NumShards, d.Dim, d.ShardID, assign.NumShards, assign.Dim)
		}
		if d.HostID < 0 || d.HostID >= nHosts {
			return fmt.Errorf("transport: shard %d: host id %d out of range [0, %d)", assign.ShardID, d.HostID, nHosts)
		}
		if muxes[d.HostID] != nil {
			return fmt.Errorf("transport: shard %d: duplicate host id %d on the ingest plane", assign.ShardID, d.HostID)
		}
		for i, member := range d.Members {
			if i > 0 && member <= d.Members[i-1] {
				return fmt.Errorf("transport: shard %d: host %d roster not strictly ascending at member %d", assign.ShardID, d.HostID, member)
			}
			if member < 0 || member >= nPop {
				return fmt.Errorf("transport: shard %d: host %d roster member %d outside the population [0, %d)", assign.ShardID, d.HostID, member, nPop)
			}
			if memberHost[member] != -1 {
				return fmt.Errorf("transport: shard %d: member %d claimed by hosts %d and %d", assign.ShardID, member, memberHost[member], d.HostID)
			}
			memberHost[member] = d.HostID
		}
		muxes[d.HostID] = NewMux(p.Conn)
	}
	for h, mux := range muxes {
		if mux == nil {
			return fmt.Errorf("transport: shard %d: no ingest connection from host %d", assign.ShardID, h)
		}
	}

	scratch := gs.NewAggScratch(0)
	scratch.Reserve(assign.Dim)
	seen := make([]int, assign.Dim)
	seenToken := 0
	var uploads []gs.ClientUpload
	var ranks [][]int
	var slotIdx [][]int
	var slotVal [][]float64
	var slotRank [][]int
	var fill []gs.FillCand
	var fillClient, fillIdx []int
	var fillAbs []float64
	var sealIdx []int
	var sealVal []float64

	for m := 1; m <= assign.Rounds; m++ {
		msg, err := coord.Recv()
		if err != nil {
			return fmt.Errorf("transport: shard %d round %d cohort recv: %w", assign.ShardID, m, err)
		}
		assignMsg, ok := msg.(CohortAssign)
		if !ok {
			return fmt.Errorf("transport: shard %d round %d: expected CohortAssign, got %T", assign.ShardID, m, msg)
		}
		if assignMsg.Round != m {
			return fmt.Errorf("transport: shard %d round %d: stale cohort assign (round %d)", assign.ShardID, m, assignMsg.Round)
		}
		cohort := assignMsg.Members
		nCoh := len(cohort)
		if nCoh == 0 {
			return fmt.Errorf("transport: shard %d round %d: empty cohort", assign.ShardID, m)
		}
		for len(slotIdx) < nCoh {
			slotIdx = append(slotIdx, nil)
			slotVal = append(slotVal, nil)
			slotRank = append(slotRank, nil)
		}
		if cap(uploads) < nCoh {
			uploads = make([]gs.ClientUpload, nCoh)
			ranks = make([][]int, nCoh)
		}
		uploads, ranks = uploads[:nCoh], ranks[:nCoh]
		// The cohort barrier: one enveloped slice per drawn member, in
		// ascending member order. Each slice is copied out of its
		// connection's decode scratch into the cohort-position slot —
		// many members share one physical link, so the next Recv on
		// that link would overwrite a by-reference payload.
		for i, member := range cohort {
			if i > 0 && member <= cohort[i-1] {
				return fmt.Errorf("transport: shard %d round %d: cohort not strictly ascending at member %d", assign.ShardID, m, member)
			}
			if member < 0 || member >= nPop || memberHost[member] < 0 {
				return fmt.Errorf("transport: shard %d round %d: cohort member %d not in any host roster", assign.ShardID, m, member)
			}
			hid := memberHost[member]
			msg, err := muxes[hid].Virtual(member).Recv()
			if err != nil {
				return fmt.Errorf("transport: shard %d round %d recv member %d from host %d: %w", assign.ShardID, m, member, hid, err)
			}
			up, ok := msg.(SliceUpload)
			if !ok {
				return fmt.Errorf("transport: shard %d round %d: member %d sent %T, want SliceUpload", assign.ShardID, m, member, msg)
			}
			if up.Round != m {
				return fmt.Errorf("transport: shard %d round %d: stale slice from member %d (round %d) — duplicate or skipped upload",
					assign.ShardID, m, member, up.Round)
			}
			if up.ClientID != member {
				return fmt.Errorf("transport: shard %d round %d: slice on member %d's stream claims member %d",
					assign.ShardID, m, member, up.ClientID)
			}
			if up.Bits != assign.QuantBits {
				return fmt.Errorf("transport: shard %d round %d: member %d slice at %d-bit quantization, run uses %d",
					assign.ShardID, m, member, up.Bits, assign.QuantBits)
			}
			seenToken++
			if err := gs.ValidateRangeSlice(up.Idx, up.Val, up.Rank, lo, hi, seen, seenToken); err != nil {
				return fmt.Errorf("transport: shard %d round %d: member %d slice: %w", assign.ShardID, m, member, err)
			}
			slotIdx[i] = append(slotIdx[i][:0], up.Idx...)
			slotVal[i] = append(slotVal[i][:0], up.Val...)
			slotRank[i] = append(slotRank[i][:0], up.Rank...)
			uploads[i] = gs.ClientUpload{
				Pairs:  sparse.Vec{Idx: slotIdx[i], Val: slotVal[i]},
				Weight: assign.Weights[member],
			}
			ranks[i] = slotRank[i]
		}
		red := gs.RangeReduceInto(scratch, uploads, ranks, lo, hi)
		res := ShardResult{Round: m, ShardID: assign.ShardID, Idx: red.Idx, Sum: red.Sum, MinRank: red.MinRank}
		if err := coord.Send(res); err != nil {
			return fmt.Errorf("transport: shard %d round %d send: %w", assign.ShardID, m, err)
		}
		var sealBits int
		var sealScale float64
		for {
			msg, err := coord.Recv()
			if err != nil {
				return fmt.Errorf("transport: shard %d round %d control recv: %w", assign.ShardID, m, err)
			}
			if q, ok := msg.(FillQuery); ok {
				if q.Round != m {
					return fmt.Errorf("transport: shard %d round %d: stale fill query (round %d)", assign.ShardID, m, q.Round)
				}
				fill = gs.AppendFillCands(fill[:0], uploads, ranks, q.Kappa)
				fillClient, fillIdx, fillAbs = fillClient[:0], fillIdx[:0], fillAbs[:0]
				for _, c := range fill {
					fillClient = append(fillClient, c.Client)
					fillIdx = append(fillIdx, c.Idx)
					fillAbs = append(fillAbs, c.AbsVal)
				}
				reply := FillCandidates{Round: m, ShardID: assign.ShardID, Client: fillClient, Idx: fillIdx, AbsVal: fillAbs}
				if err := coord.Send(reply); err != nil {
					return fmt.Errorf("transport: shard %d round %d fill send: %w", assign.ShardID, m, err)
				}
				continue
			}
			seal, ok := msg.(RoundSeal)
			if !ok {
				return fmt.Errorf("transport: shard %d round %d: expected FillQuery or RoundSeal, got %T", assign.ShardID, m, msg)
			}
			if seal.Round != m {
				return fmt.Errorf("transport: shard %d round %d: stale round seal (round %d)", assign.ShardID, m, seal.Round)
			}
			if seal.Bits != assign.QuantBits {
				return fmt.Errorf("transport: shard %d round %d: seal at %d-bit quantization, run uses %d",
					assign.ShardID, m, seal.Bits, assign.QuantBits)
			}
			sealIdx, sealVal, err = gs.BuildDownlinkSlice(sealIdx[:0], sealVal[:0], seal.Members, red, lo, hi)
			if err != nil {
				return fmt.Errorf("transport: shard %d round %d seal: %w", assign.ShardID, m, err)
			}
			if seal.Bits > 0 {
				sparse.QuantizeToScale(sealVal, seal.Bits, seal.Scale)
			}
			sealBits, sealScale = seal.Bits, seal.Scale
			break
		}
		// The downlink serve: ONE fetch per host for its whole roster,
		// answered with the shard's span of the selection. The served
		// slices are fresh copies, never the reused seal buffers: mem
		// conns deliver by reference, and a host with no drawn member
		// next round sits outside the upload barrier — it can still be
		// reading this round's slices when the shard rebuilds the
		// buffers for the next seal. (The classic per-client plane
		// needs no copy: every client uploads every round, so the
		// barrier itself orders the reads before the rebuild.)
		srvIdx := append([]int(nil), sealIdx...)
		srvVal := append([]float64(nil), sealVal...)
		for hid, mux := range muxes {
			msg, err := mux.Recv()
			if err != nil {
				return fmt.Errorf("transport: shard %d round %d downlink serve recv from host %d: %w", assign.ShardID, m, hid, err)
			}
			f, ok := msg.(SliceFetch)
			if !ok {
				return fmt.Errorf("transport: shard %d round %d: host %d sent %T, want SliceFetch", assign.ShardID, m, hid, msg)
			}
			if f.Round != m {
				return fmt.Errorf("transport: shard %d round %d: stale fetch from host %d (round %d)", assign.ShardID, m, hid, f.Round)
			}
			if f.ClientID != hid {
				return fmt.Errorf("transport: shard %d round %d: fetch on host %d's connection claims host %d",
					assign.ShardID, m, hid, f.ClientID)
			}
			sb := SliceBroadcast{Round: m, ShardID: assign.ShardID, Idx: srvIdx, Val: srvVal, Bits: sealBits, Scale: sealScale}
			if err := mux.Send(sb); err != nil {
				return fmt.Errorf("transport: shard %d round %d slice broadcast to host %d: %w", assign.ShardID, m, hid, err)
			}
		}
	}
	return nil
}
