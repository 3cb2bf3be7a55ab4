// The population tier: training runs whose client population (100k–1M
// virtual clients) far exceeds anything one-connection-per-client can
// carry. Three ideas compose:
//
//   - Virtual-client hosts. A host process simulates many population
//     members over ONE physical connection to the coordinator and one
//     per shard, with per-member traffic enveloped in MuxFrames
//     (mux.go). Connection count scales with hosts × shards. No
//     demultiplexer sits on those links: each is read in the order the
//     flows below fix, a drawn member's frame in its ascending turn
//     (memberStreams), and anything out of turn fails the round.
//   - Sampled participation. The coordinator draws a per-round cohort
//     from the population with exactly the engine's Fisher–Yates
//     (fl.CohortSampler — one implementation, shared) and only the
//     drawn members compute, upload, and are materialized anywhere.
//     A host keeps per-member state in one slice over its roster,
//     filled at the member's first draw: an error-feedback residual of
//     D × 8 bytes, carved from a slab shared with up to 63 other
//     members, and a position in the member's rng stream, replayed
//     through the host's one source when the member steps. An undrawn
//     member costs no allocation.
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
// its rng stream's position. Members that sit out rounds stay
// synchronized for free (their residuals simply freeze), which is also
// why the engine needs no "resync" protocol for churned-in clients.
//
// A host enrolls exactly as a client does, with a longer roster: one
// Hello to the coordinator and one DataHello per shard, each naming its
// members — the coordinator and every shard claim the rosters in a
// member directory, which must partition the population [0, N).
//
// Message flow per round m (routed, i.e. no shard tier):
//
//	coordinator ──CohortAssign(m)───────▶ hosts   (phase A; each host: its drawn members)
//	coordinator ◀─MuxFrame{member, Upload}── hosts (one per drawn member, ascending)
//	coordinator ──Broadcast(m−W)────────▶ hosts   (ONE per host, not per member)
//
// and with a shard tier (ShardConns — the direct data plane):
//
//	coordinator ──CohortAssign(m)──▶ hosts (phase A), shards (full cohort, at round m's gather)
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
// participant order — on both planes, at any staleness window W, since
// round m's cohort is drawn at its phase A, W steps before its seal.
package transport

import (
	"errors"
	"fmt"
	"math/rand"

	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/nn"
)

// CohortAssign announces one round's drawn cohort, post-dropout, sorted
// ascending. Sender: the coordinator, at the round's phase A to hosts
// and at its gather to shards.
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
	// draw is the engine's own (fl.CohortSampler): Cohort = c consumes
	// exactly the rng of fl.Config.Cohort = c.
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
func RunPopulationServer(hosts []Peer, cfg ServerConfig) ([]fl.RoundEvent, error) {
	return RunServerPeers(hosts, cfg)
}

// servePopulation is RunServerPeers with a roster
// (ServerConfig.Population): the hosts are seated by their Hello's
// ClientID, their rosters must partition the population (seatHellos),
// and the one round loop draws each round's cohort (drawRound).
func servePopulation(hosts []Peer, cfg ServerConfig) (events []fl.RoundEvent, err error) {
	pcfg := cfg.Population
	conns, memberHost, weights, err := seatHellos(hosts, false)
	if err != nil {
		return nil, err
	}
	nPop := len(weights)
	if pcfg.Cohort > 0 && pcfg.Cohort < nPop && pcfg.DrawRng == nil {
		return nil, fmt.Errorf("transport: a sampling cohort (%d of %d) needs PopulationConfig.DrawRng", pcfg.Cohort, nPop)
	}
	sampler, err := fl.NewCohortSampler(nPop, pcfg.Cohort, pcfg.Churn, pcfg.Dropout)
	if err != nil {
		return nil, err
	}

	p := &popServer{members: memberStreams{conns, memberHost}, sampler: sampler, hostDrawn: make([][]int, len(conns))}
	var stop func(wait bool) error
	if p.plainPeers, stop = plainLinks(conns, "host", cfg); stop != nil {
		defer func() { err = errors.Join(err, stop(err == nil)) }()
	}
	// No fixed roster; the downlink goes to the hosts.
	p.coordRun = newCoordRun(cfg, p, 0, "member", weights)
	p.nDown = len(conns)
	p.copyUploads = !cfg.Direct
	if err := p.open(conns, 0, len(conns)); err != nil {
		return nil, err
	}
	return p.run(1, p.drawRound)
}

// popServer is the coordinator's population tier around the one round
// loop (coordRun.run, role_coord.go): it supplies the roster — a cohort
// drawn per round (drawRound) — and the links: a drawn member is heard in
// its turn on its host's connection (memberStreams), and the downlink
// goes to each host ONCE, un-enveloped, for its whole roster
// (plainPeers). Population changes WHO uploads each round, not how a
// round is gathered, selected, or sealed.
type popServer struct {
	*coordRun
	plainPeers // the hosts, for send
	members    memberStreams
	sampler    *fl.CohortSampler
	hostDrawn  [][]int // per-host drawn members, rebuilt each round
}

func (p *popServer) recv(member, m int) (any, error) {
	msg, err := p.members.recv(member, m)
	if err != nil {
		return nil, fmt.Errorf("transport: round %d recv from member %d: %w", m, member, err)
	}
	return msg, nil
}

// drawRound is the population's roster at round m's phase A: it
// advances the sampler, copies the cohort into the slot (the sampler
// reuses its buffer) and sends every host its CohortAssign, ahead of its
// round-m−W downlink. The sent member slices are fresh copies: in-memory
// conns deliver by reference, and these buffers are rebuilt next round.
func (p *popServer) drawRound(m int, slot *coordSlot) error {
	cohort, population, size, churnEvents, err := p.sampler.Draw(m, p.cfg.Population.DrawRng)
	if err != nil {
		return err
	}
	slot.ids = append(slot.ids[:0], cohort...)
	slot.drawn, slot.population, slot.size, slot.churnEvents = true, population, size, churnEvents
	for h := range p.hostDrawn {
		p.hostDrawn[h] = p.hostDrawn[h][:0]
	}
	for _, member := range cohort {
		h := p.members.memberHost[member]
		p.hostDrawn[h] = append(p.hostDrawn[h], member)
	}
	for h, members := range p.hostDrawn {
		if err := p.send(h, m, CohortAssign{Round: m, Members: append([]int(nil), members...)}); err != nil {
			return err
		}
	}
	return nil
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
	p := participant{who: "host", id: cfg.HostID, roster: cfg.Members, weights: weights, data: cfg.Data,
		seed:  func(member int) int64 { return fl.ClientSeed(cfg.Seed, member) },
		model: cfg.Model, lr: cfg.LearningRate, batch: cfg.BatchSize, dial: cfg.DialShard, host: true}
	init, err := clientHandshake(coord, p)
	if err != nil {
		return err
	}
	return runClient(coord, p, init, nil)
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
	return &shardLinks{up: memberStreams{hosts, memberHost}, down: hosts, nDown: nHosts, roster: roster, copies: true}, nil
}

// memberStreams are the population uplinks, the coordinator's and a
// shard's alike: a member's messages travel enveloped on its host's
// connection, read in the round's ascending member order (recvMember).
type memberStreams struct {
	hosts      []Conn
	memberHost []int
}

func (s memberStreams) recv(member, _ int) (any, error) {
	h := s.memberHost[member]
	msg, err := recvMember(s.hosts[h], member)
	if err != nil {
		return nil, fmt.Errorf("via host %d: %w", h, err)
	}
	return msg, nil
}
