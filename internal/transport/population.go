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
//     A host keeps per-member state (error-feedback residual, rng) in
//     one slice over its roster, filled at the member's first draw: an
//     undrawn member costs no allocation.
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
// A host enrolls exactly as a client does, with a longer roster: one
// Hello to the coordinator and one DataHello per shard, each naming its
// members — the coordinator and every shard claim the rosters in a
// member directory, which must partition the population [0, N).
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
// The tier has no round loop of its own, only a roster: a host runs the
// client's loop (runClientRounds) over each round's CohortAssign, and
// the coordinator runs coordRun.run with drawRound as its roster.
// Cohort-sampled trajectories are bit-identical to fl.Run with the same
// Cohort/Churn/Dropout/Seed: the draw shares the engine's code, a drawn
// member runs the engine's own participant step (fl.Step), and the
// aggregation runs over cohort-ordered uploads, which is the engine's
// participant order. The routed and direct planes are bit-identical to
// each other; population × bounded staleness is refused by name
// (ServerConfig.check, checkAssign, RunVirtualHost).
package transport

import (
	"fmt"
	"math/rand"

	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/nn"
)

// CohortAssign announces one round's drawn cohort, post-dropout, sorted
// ascending. Sender: the coordinator, at the top of every round.
// Receiver and meaning: a host receives the drawn members of its OWN
// roster (possibly empty — the host still receives the round's
// broadcast, which is what keeps its weights synchronized); a
// population shard receives the FULL cohort (its uplink barrier counts
// one enveloped SliceUpload per drawn member). Ordering: the round-m
// assign precedes all round-m uplink traffic.
type CohortAssign struct {
	Round   int
	Members []int
}

// PopulationConfig is a coordinator's roster (ServerConfig.Population):
// how each round's cohort is drawn from the hosts' members.
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

// RunPopulationServer is RunServerPeers. It is kept only because the
// frozen benchmark definition (bench/cluster.go) calls it; a change to
// the benchmark definition may drop it.
func RunPopulationServer(hosts []Peer, cfg ServerConfig) ([]RoundRecord, error) {
	return RunServerPeers(hosts, cfg)
}

// servePopulation is RunServerPeers with a roster
// (ServerConfig.Population): the hosts are seated by their Hello's
// ClientID, their rosters must partition the population (seatHellos),
// and the one round loop draws each round's cohort (drawRound).
func servePopulation(hosts []Peer, cfg ServerConfig) ([]RoundRecord, error) {
	pcfg := cfg.Population
	conns, memberHost, weights, err := seatHellos(hosts, false)
	if err != nil {
		return nil, err
	}
	muxes := make([]*Mux, len(conns))
	for h, conn := range conns {
		muxes[h] = NewMux(conn)
	}
	nPop := len(weights)
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
	if err := p.open(conns, 0, len(muxes)); err != nil {
		return nil, err
	}
	return p.run(1, p.drawRound)
}

// popServer is the coordinator's population tier around the one round
// loop (coordRun.run, role_coord.go): it supplies the roster — a cohort
// drawn per round (drawRound) — and the links: a drawn member is heard on
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

// drawRound is the population's roster: it advances the sampler and
// sends every host its CohortAssign (and, in direct mode, every shard
// the full cohort). The sent member slices are fresh copies: in-memory
// conns deliver by reference and the receiver holds its assign across
// the whole round, while these buffers are rebuilt next round.
func (p *popServer) drawRound(m int) ([]int, *cohortDraw, error) {
	cohort, population, drawn, churnEvents, err := p.sampler.Draw(m, p.cfg.Population.DrawRng)
	if err != nil {
		return nil, nil, err
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
			return nil, nil, fmt.Errorf("transport: round %d cohort assign to host %d: %w", m, h, err)
		}
	}
	if p.cfg.Direct {
		for s, conn := range p.cfg.ShardConns {
			assign := CohortAssign{Round: m, Members: append([]int(nil), cohort...)}
			if err := conn.Send(assign); err != nil {
				return nil, nil, fmt.Errorf("transport: round %d cohort assign to shard %d: %w", m, s, err)
			}
		}
	}
	return cohort, &cohortDraw{population: population, drawn: drawn, churnEvents: churnEvents}, nil
}

// recvCohort reads round m's CohortAssign off link and checks what every
// reader needs — the type, the round, strictly ascending members; who
// and id name the reader, which adds its own membership check.
func recvCohort(link Conn, who string, id, m int) ([]int, error) {
	msg, err := link.Recv()
	if err != nil {
		return nil, fmt.Errorf("transport: %s %d round %d cohort recv: %w", who, id, m, err)
	}
	ca, ok := msg.(CohortAssign)
	if !ok {
		return nil, fmt.Errorf("transport: %s %d round %d: expected CohortAssign, got %T", who, id, m, msg)
	}
	if ca.Round != m {
		return nil, fmt.Errorf("transport: %s %d round %d: stale cohort assign (round %d)", who, id, m, ca.Round)
	}
	for i, member := range ca.Members {
		if i > 0 && member <= ca.Members[i-1] {
			return nil, fmt.Errorf("transport: %s %d round %d: cohort not strictly ascending at member %d", who, id, m, member)
		}
	}
	return ca.Members, nil
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
	// fl.ClientSeed(Seed, member), the engine's per-client scheme.
	Seed int64
	// DialShard opens the data-plane connection to one shard in direct
	// mode (nil uses Dial). Called once per shard per run — this is
	// the M:N point: connections scale with hosts × shards, never with
	// members.
	DialShard func(addr string) (Conn, error)
}

// RunVirtualHost executes one virtual-client host against a population
// coordinator: handshake with the roster, then the participant's one
// round loop (runClientRounds) over it — each round's members are the
// drawn cohort the coordinator assigns, each runs the shared local step
// on its own residual and rng and uploads on its enveloped stream, and
// the round's broadcast is applied ONCE to the roster's shared model.
// Undrawn members cost nothing per round and stay synchronized by
// construction.
func RunVirtualHost(coord Conn, cfg HostConfig) error {
	if len(cfg.Members) == 0 {
		return fmt.Errorf("transport: host %d has an empty roster", cfg.HostID)
	}
	weights := make([]float64, len(cfg.Members))
	for i, member := range cfg.Members {
		if member < 0 || (i > 0 && member <= cfg.Members[i-1]) {
			return fmt.Errorf("transport: host %d roster not strictly ascending at member %d", cfg.HostID, member)
		}
		weights[i] = float64(cfg.Data(member).Len())
	}
	mux := NewMux(coord)
	p := participant{who: "host", id: cfg.HostID, roster: cfg.Members, weights: weights, data: cfg.Data,
		seed:  func(member int) int64 { return fl.ClientSeed(cfg.Seed, member) },
		model: cfg.Model, lr: cfg.LearningRate, batch: cfg.BatchSize, dial: cfg.DialShard, host: mux}
	init, err := clientHandshake(mux, p)
	if err != nil {
		return err
	}
	if init.Window != 0 {
		return fmt.Errorf("transport: host %d: population hosts do not support a staleness window (got %d)", cfg.HostID, init.Window)
	}
	return runClient(mux, p, init, nil)
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
	hosts, memberHost, err := seatData(assign, peers)
	if err != nil {
		return nil, err
	}
	muxes := make([]*Mux, nHosts)
	for h, conn := range hosts {
		muxes[h] = NewMux(conn)
		hosts[h] = muxes[h]
	}
	roster := func(m int) ([]int, error) {
		ids, err := recvCohort(coord, "shard", id, m)
		if err != nil {
			return nil, err
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("transport: shard %d round %d: empty cohort", id, m)
		}
		for _, member := range ids {
			if member < 0 || member >= len(memberHost) || memberHost[member] < 0 {
				return nil, fmt.Errorf("transport: shard %d round %d: cohort member %d outside every host roster", id, m, member)
			}
		}
		return ids, nil
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
