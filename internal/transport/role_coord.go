package transport

import (
	"errors"
	"fmt"

	"fedsparse/internal/core"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
	"fedsparse/internal/wal"
)

// This file is the coordinator's round, written once: one step loop
// (coordRun.run), the engine's pipeline (internal/fl round.go) W rounds
// deep. Step m runs round m's phase A — the server's decision
// (fl.Server.Decide) and the roster — and then seals round m−W over one
// routed or one direct round body, selecting and quantizing through the
// same server step (Aggregate over the uploads, or Select over the
// shards' reductions). Every coordinator tier — classic (protocol.go),
// durable (durable.go, lockstep, after a resume's preamble), population
// (population.go) — runs that loop and supplies only what distinguishes
// it:
//
//	links    how a round reaches its peers: plain connections, the
//	         durable server's rejoin-healing links, or the population's
//	         member streams and host links
//	journal  whether a decision is logged before it is sent (nil, or
//	         the WAL with its crash points)
//	roster   who uploads each round: every client (a fixed list), or a
//	         drawn cohort (the population's drawRound)

// peerLinks is how a coordinator round reaches one side of its
// deployment — its clients, or its direct shards. recv returns peer
// id's next message for round m; send delivers a round-m message to
// peer id. A healing implementation re-seats a broken link and drops
// stale resends inside the call; on the population plane recv addresses
// a member's stream and send a host.
type peerLinks interface {
	recv(id, m int) (any, error)
	send(id, m int, msg any) error
}

// plainPeers are links that never heal: a failed connection fails the
// round, naming the peer. With out set, sends go through the peers'
// outboxes (plainLinks).
type plainPeers struct {
	conns []Conn
	out   []chan any
	noun  string
}

func (p plainPeers) recv(id, m int) (any, error) {
	msg, err := p.conns[id].Recv()
	if err != nil {
		return nil, fmt.Errorf("transport: round %d recv from %s %d: %w", m, p.noun, id, err)
	}
	return msg, nil
}

func (p plainPeers) send(id, m int, msg any) error {
	if p.out != nil {
		p.out[id] <- msg
		return nil
	}
	if err := p.conns[id].Send(msg); err != nil {
		return fmt.Errorf("transport: round %d send to %s %d: %w", m, p.noun, id, err)
	}
	return nil
}

// outboxDepth is the queue of an outbox (plainLinks).
const outboxDepth = 2 * (fl.MaxStaleness + 1)

// plainLinks are the links to a run's downlink receivers (noun). Routed
// W ≥ 1 rounds deep, each gets an outbox, a goroutine sending from a
// queue: a participant sends W+1 uploads before it reads a downlink, so
// sends in line would block once they outgrow the socket buffers. One
// blocked on its round-r upload has at most W broadcasts and W cohort
// assigns queued unread, so outboxDepth never fills under it. stop (nil
// without outboxes) closes the queues; with wait it returns the send
// errors once every queued message went out (without, a sender stuck
// on a live peer exits when the caller closes the connections).
func plainLinks(conns []Conn, noun string, cfg ServerConfig) (links plainPeers, stop func(wait bool) error) {
	links = plainPeers{conns: conns, noun: noun}
	if cfg.Staleness == 0 || cfg.Direct {
		return links, nil
	}
	links.out = make([]chan any, len(conns))
	errs := make(chan error, len(conns))
	for id, conn := range conns {
		q := make(chan any, outboxDepth)
		links.out[id] = q
		go func() {
			var err error
			for msg := range q {
				if err == nil {
					err = conn.Send(msg)
				}
			}
			if err != nil {
				err = fmt.Errorf("transport: send to %s %d: %w", noun, id, err)
			}
			errs <- err
		}()
	}
	return links, func(wait bool) error {
		for _, q := range links.out {
			close(q)
		}
		var sendErrs []error
		for i := 0; wait && i < len(links.out); i++ {
			sendErrs = append(sendErrs, <-errs)
		}
		return errors.Join(sendErrs...)
	}
}

// journal is the durable coordinator's write-ahead log seen from the
// round bodies: three decision records per round — seal, release,
// finish — each followed by its crash point. A nil journal is the
// classic path: every method returns at once.
type journal struct {
	log *wal.Log
	// crash is the test hook: invoked at every Boundary with the round;
	// a non-nil return runs closeAll (process-death emulation: peers
	// observe EOF and start rejoining) and unwinds with that error.
	crash    func(Boundary, int) error
	closeAll func()
	appends  uint64 // this process's log appends, for the event stream
	spanOffs []int  // reusable Seal.Spans offsets buffer
}

func (j *journal) logSync(r wal.Record) error {
	if err := j.log.Append(r); err != nil {
		return fmt.Errorf("transport: wal append: %w", err)
	}
	if err := j.log.Sync(); err != nil {
		return fmt.Errorf("transport: wal sync: %w", err)
	}
	j.appends++
	return nil
}

func (j *journal) crashAt(b Boundary, m int) error {
	if j == nil || j.crash == nil {
		return nil
	}
	if err := j.crash(b, m); err != nil {
		j.closeAll()
		return err
	}
	return nil
}

// sealed makes the round's selection durable before any peer learns it,
// so a crash between here and the sends re-issues it verbatim: indices
// and scalars only — values are never logged. A routed seal is B itself
// (kappa 0, members B, elems |B|); a direct one is the cut the shards
// were sealed with — the cutoff kappa, |J| = elems and the fill members —
// and spans, the per-shard fill spans, logged as len(shards)+1 offsets
// into members.
func (j *journal) sealed(m int, loss, scale float64, bits, kappa, elems int, members []int, spans [][]int) error {
	if j == nil {
		return nil
	}
	var offs []int
	if spans != nil {
		offs = append(j.spanOffs[:0], 0)
		for _, sp := range spans {
			offs = append(offs, offs[len(offs)-1]+len(sp))
		}
		j.spanOffs = offs
	}
	seal := &wal.Seal{Round: m, Loss: loss, Scale: scale, Bits: bits, Kappa: kappa, Elems: elems, Members: members, Spans: offs}
	if err := j.logSync(seal); err != nil {
		return err
	}
	return j.crashAt(BoundarySealLogged, m)
}

// released logs that the round's downlink is cleared.
func (j *journal) released(m int, loss float64, elems int) error {
	if j == nil {
		return nil
	}
	if err := j.logSync(&wal.Release{Round: m, Loss: loss, Elems: elems}); err != nil {
		return err
	}
	return j.crashAt(BoundaryReleaseLogged, m)
}

// finished logs the round closed.
func (j *journal) finished(m int, loss float64, elems int) error {
	if j == nil {
		return nil
	}
	if err := j.logSync(&wal.Finish{Round: m, Ints: []int64{int64(elems)}, Floats: []float64{loss}}); err != nil {
		return err
	}
	return j.crashAt(BoundaryFinishLogged, m)
}

// coordSlot is one round between its phase A and its seal: the server's
// decision, the roster in gather order with its total weight, and, when
// the roster was drawn, the draw's counts for the round's event.
type coordSlot struct {
	dec                           fl.Decision
	ids                           []int
	total                         float64
	drawn                         bool
	population, size, churnEvents int
}

// coordRun is a coordinator's per-run round state.
type coordRun struct {
	cfg ServerConfig
	// clients reaches the uploaders (recv) and the downlink receivers
	// (send); nDown counts the latter — the clients themselves, or the
	// population's hosts. noun names an uploader in errors.
	clients peerLinks
	nDown   int
	noun    string
	// fixed is the fixed roster, every client by ID (empty on the
	// population plane); weights holds C_i by uploader identity.
	fixed   []int
	weights []float64
	journal *journal
	round   int // the round in progress (a healing link acks rejoins with it)

	// server is the run's server step (fl.Server): fixed-k FAB, whose
	// integral k and empty mandate draw nothing, so it holds no rng.
	server *fl.Server
	// Routed plane: the gathered uploads; the duplicate-coordinate slab
	// of upload validation (seen[j] == token marks j used by the upload
	// being checked), both sized by the first gather. copyUploads
	// retains each payload in a per-position slot — the population
	// plane, where many members share one connection's decode scratch.
	uploads     []gs.ClientUpload
	seen        []int
	token       int
	copyUploads bool
	slotIdx     [][]int
	slotVal     [][]float64
	// frames are the Broadcast's encode buffers, slot m%len(frames) for
	// round m: one for a coordinator that sends in line, outboxDepth/2+1
	// for the outboxes (see runClientRounds for why slot m is free again
	// at round m+len(frames)).
	frames [][]byte
	// Direct plane.
	group *directGroup

	bm     *byteMeter
	events []fl.RoundEvent
}

func newCoordRun(cfg ServerConfig, clients peerLinks, nClients int, noun string, weights []float64) *coordRun {
	c := &coordRun{cfg: cfg, clients: clients, nDown: nClients, noun: noun, fixed: make([]int, nClients), weights: weights,
		server: fl.NewServer(&gs.FABTopK{}, core.NewFixedK(float64(cfg.K)), nil, len(cfg.InitialParams), cfg.QuantBits),
		frames: make([][]byte, 1+min(cfg.Staleness, 1)*outboxDepth/2),
		events: make([]fl.RoundEvent, 0, max(cfg.Rounds, 0))}
	for id := range c.fixed {
		c.fixed[id] = id
	}
	return c
}

// open is every coordinator's start sequence: set up the plane (the
// direct plane assigns the partition first — shards need the weight
// vector; numHosts > 0 announces the population tier's M:N ingest plane
// to them), release the enrolled peers into the round loop with the
// Init (weights, run parameters and, in direct mode, the shard
// directory ServerConfig.check validated), and start the byte meter.
func (c *coordRun) open(peers []Conn, runID uint64, numHosts int) error {
	cfg := c.cfg
	dim := len(cfg.InitialParams)
	init := Init{Params: cfg.InitialParams, K: cfg.K, Rounds: cfg.Rounds, QuantBits: cfg.QuantBits,
		RunID: runID, Window: cfg.Staleness}
	if cfg.Direct {
		g, err := newDirectGroup(cfg.ShardConns, dim, c.weights, cfg.QuantBits)
		if err != nil {
			return err
		}
		c.group = g
		assign := directAssign(len(cfg.ShardConns), dim, cfg.Rounds, c.weights, cfg.QuantBits)
		assign.Window, assign.NumHosts = cfg.Staleness, numHosts
		if err := g.assign(assign); err != nil {
			return err
		}
		init.Shards = cfg.ShardAddrs
	}
	var msg any = init
	for id, conn := range peers {
		if err := conn.Send(msg); err != nil {
			return fmt.Errorf("transport: send init to %s %d: %w", c.noun, id, err)
		}
	}
	c.meter(peers, cfg.ShardConns)
	return nil
}

// directAssign is the one constructor of a ShardAssign; the caller adds
// its tier's fields (Window, NumHosts, StartRound) and the sender stamps
// ShardID.
func directAssign(nShards, dim, rounds int, weights []float64, quantBits int) ShardAssign {
	return ShardAssign{NumShards: nShards, Dim: dim, Rounds: rounds,
		Weights: append([]float64(nil), weights...), QuantBits: quantBits}
}

// meter starts the byte meter over the run's live connection groups,
// baselined past the handshake traffic so round 1's delta covers round
// 1 only. Built only when someone is listening — the hot path stays
// untouched without an observer. In direct mode the gradient payloads
// flow client↔shard and never cross the coordinator, so the deltas are
// the control plane's cost — which is the point of the topology.
func (c *coordRun) meter(groups ...[]Conn) {
	if c.cfg.Observer != nil {
		c.bm = &byteMeter{groups: groups}
		c.bm.delta()
	}
}

// run is the coordinator's step loop: step m runs round m's phase A
// into a ring of W+1 slots, then seals round m−W on the run's plane —
// the round starts there, at its gather; steps past Rounds only drain.
// draw is the roster: nil is every client each round; otherwise it
// fills the slot with round m's cohort and its counts, and the round is
// weighted by the cohort's own total — the engine's per-round
// participant normalization.
func (c *coordRun) run(from int, draw func(m int, slot *coordSlot) error) ([]fl.RoundEvent, error) {
	w, seal := c.cfg.Staleness, c.routedRound
	if c.cfg.Direct {
		seal = c.directRound
	}
	ring := make([]coordSlot, w+1)
	for m := from; m <= c.cfg.Rounds+w; m++ {
		if m <= c.cfg.Rounds {
			if err := c.phaseA(m, &ring[m%(w+1)], draw); err != nil {
				return c.events, err
			}
		}
		if r := m - w; r >= from {
			c.startRound(r)
			if err := seal(r, &ring[r%(w+1)]); err != nil {
				return c.events, err
			}
		}
	}
	return c.events, nil
}

// phaseA opens round m into slot: the server's decision and the roster.
func (c *coordRun) phaseA(m int, slot *coordSlot, draw func(m int, slot *coordSlot) error) (err error) {
	if slot.dec, err = c.server.Decide(m); err != nil {
		return err
	}
	if draw == nil {
		slot.ids = c.fixed
	} else if err = draw(m, slot); err != nil {
		return err
	}
	slot.total = 0
	for _, id := range slot.ids {
		slot.total += c.weights[id]
	}
	return nil
}

// startRound opens round m and publishes the boundary.
func (c *coordRun) startRound(m int) {
	c.round = m
	if obs := c.cfg.Observer; obs != nil {
		obs.OnRoundStart(m)
	}
}

// finish records round m's event and publishes it: the engine's fields
// (roundEvent) plus what this process measured — wire bytes (metered
// only when someone listens), per-shard reduce waits, the cohort draw,
// the WAL appends.
func (c *coordRun) finish(m int, loss float64, elems int, slot *coordSlot) {
	ev := c.roundEvent(slot.dec, loss, elems, len(slot.ids))
	if c.bm != nil {
		ev.BytesUp, ev.BytesDown = c.bm.delta()
	}
	if c.group != nil {
		ev.ShardReduceSeconds = append([]float64(nil), c.group.reduceSecs...)
	}
	if slot.drawn {
		ev.Population, ev.CohortSize, ev.ChurnEvents = slot.population, slot.size, slot.churnEvents
	}
	if c.journal != nil {
		ev.WALAppends = c.journal.appends
	}
	c.events = append(c.events, ev)
	if obs := c.cfg.Observer; obs != nil {
		obs.OnRoundEnd(ev)
	}
}

// gatherUploads is the routed plane's barrier: one validated Upload
// (validateUpload) per uploader, in roster order — the aggregation's
// client order. It fills c.uploads and returns the weighted loss.
func (c *coordRun) gatherUploads(m int, slot *coordSlot) (float64, error) {
	n := len(slot.ids)
	for c.copyUploads && len(c.slotIdx) < n {
		c.slotIdx = append(c.slotIdx, nil)
		c.slotVal = append(c.slotVal, nil)
	}
	if cap(c.uploads) < n {
		c.uploads = make([]gs.ClientUpload, n)
	}
	if c.seen == nil {
		c.seen = make([]int, len(c.cfg.InitialParams))
	}
	c.uploads = c.uploads[:n]
	var weightedLoss float64
	for i, id := range slot.ids {
		msg, err := c.clients.recv(id, m)
		if err != nil {
			return 0, err
		}
		up, ok := msg.(Upload)
		if !ok {
			return 0, fmt.Errorf("transport: round %d: %s %d sent %T, want Upload", m, c.noun, id, msg)
		}
		c.token++
		if err := validateUpload(up, m, id, c.cfg.QuantBits, c.seen, c.token); err != nil {
			return 0, err
		}
		pairs := sparse.Vec{Idx: up.Idx, Val: up.Val}
		if c.copyUploads {
			c.slotIdx[i] = append(c.slotIdx[i][:0], up.Idx...)
			c.slotVal[i] = append(c.slotVal[i][:0], up.Val...)
			pairs = sparse.Vec{Idx: c.slotIdx[i], Val: c.slotVal[i]}
		}
		c.uploads[i] = gs.ClientUpload{Pairs: pairs, Weight: c.weights[id]}
		weightedLoss += c.weights[id] / slot.total * up.BatchLoss
	}
	return weightedLoss, nil
}

// aggregate reduces the gathered uploads into the round's Broadcast
// through the server step, which snaps B onto its b-bit grid — what
// lets the codec pack the values on the wire — and encodes it once into
// the round's frame slot, for every receiver's Send to copy. The
// |J|-sized result is copied out of the server's scratch because
// in-memory conns pass messages by reference and the scratch is
// overwritten next round.
func (c *coordRun) aggregate(m, k int) Broadcast {
	agg, _, scale := c.server.Aggregate(c.uploads, k, 0)
	bc := Broadcast{
		Round: m,
		Idx:   append([]int(nil), agg.Indices...),
		Val:   append([]float64(nil), agg.Values...),
	}
	if c.cfg.QuantBits > 0 {
		bc.Bits, bc.Scale = c.cfg.QuantBits, scale
	}
	f := &c.frames[m%len(c.frames)]
	*f = bc.encodeFrame(*f)
	return bc
}

// routedRound runs one routed round: gather the uploads, aggregate,
// journal the seal (member indices and scalars — a resume recomputes
// the values from re-sent uploads), broadcast B, journal release and
// finish. The release carries no separate message in routed mode; the
// boundary exists so the crash matrix is uniform across topologies.
func (c *coordRun) routedRound(m int, slot *coordSlot) error {
	loss, err := c.gatherUploads(m, slot)
	if err != nil {
		return err
	}
	bc := c.aggregate(m, slot.dec.K)
	if err := c.journal.sealed(m, loss, bc.Scale, bc.Bits, 0, len(bc.Idx), bc.Idx, nil); err != nil {
		return err
	}
	if err := c.downlink(m, bc); err != nil {
		return err
	}
	if err := c.journal.crashAt(BoundarySealSent, m); err != nil {
		return err
	}
	return c.closeRound(m, slot, loss, len(bc.Idx), nil)
}

// downlink sends one round-m message to every receiver: boxed into any
// once, and a Broadcast's frame encoded once (aggregate).
func (c *coordRun) downlink(m int, msg any) error {
	for r := 0; r < c.nDown; r++ {
		if err := c.clients.send(r, m, msg); err != nil {
			return err
		}
	}
	return nil
}

// closeRound journals the release, sends it when the plane has one (the
// direct plane's RoundRelease), journals the finish and publishes the
// round's event.
func (c *coordRun) closeRound(m int, slot *coordSlot, loss float64, elems int, release any) error {
	if err := c.journal.released(m, loss, elems); err != nil {
		return err
	}
	if release != nil {
		if err := c.downlink(m, release); err != nil {
			return err
		}
	}
	if err := c.journal.finished(m, loss, elems); err != nil {
		return err
	}
	c.finish(m, loss, elems, slot)
	return nil
}

// gatherMeta is the direct plane's control barrier: one RoundMeta per
// uploader — its minibatch loss and upload length, the only things a
// participant sends the coordinator. Returns the weighted loss and the
// round's longest upload (the κ-search bound).
func (c *coordRun) gatherMeta(m int, slot *coordSlot) (weightedLoss float64, maxLen int, err error) {
	dim := len(c.cfg.InitialParams)
	for _, id := range slot.ids {
		msg, err := c.clients.recv(id, m)
		if err != nil {
			return 0, 0, err
		}
		meta, ok := msg.(RoundMeta)
		if !ok {
			return 0, 0, fmt.Errorf("transport: round %d: %s %d sent %T, want RoundMeta (gradient payloads go to the shards)", m, c.noun, id, msg)
		}
		if meta.Round != m || meta.ClientID != id {
			return 0, 0, fmt.Errorf("transport: round %d: stale metadata (round %d from %s %d, want %s %d)",
				m, meta.Round, c.noun, meta.ClientID, c.noun, id)
		}
		if meta.UploadLen < 0 || meta.UploadLen > dim {
			return 0, 0, fmt.Errorf("transport: round %d: %s %d reported upload length %d outside [0, %d]",
				m, c.noun, id, meta.UploadLen, dim)
		}
		weightedLoss += c.weights[id] / slot.total * meta.BatchLoss
		maxLen = max(maxLen, meta.UploadLen)
	}
	return weightedLoss, maxLen, nil
}

// directRound runs one direct-plane round: announce the cohort to the
// shards on the population plane, gather the control scalars, select
// off the shards' merged rank histograms, journal the seal, seal every
// shard with the cut, journal the release, release the participants into
// their downlink fetches, journal the finish. Every shard is sealed
// before the release goes out: the release is the participants'
// guarantee that round m's slices are servable at every shard, and
// Elems lets each verify its reassembled B against the coordinator's
// |J| — a truncated shard slice fails at the client, loudly. The
// coordinator sends no B payload in either direction.
func (c *coordRun) directRound(m int, slot *coordSlot) error {
	g := c.group
	// A population shard ingests round m after it sealed round m−1. The
	// shards share the slot's list: it is rebuilt at phase A of round
	// m+W+1, after every shard's round-m result ended its ingest.
	for s := 0; c.cfg.Population != nil && s < len(g.conns); s++ {
		if err := g.links.send(s, m, CohortAssign{Round: m, Members: slot.ids}); err != nil {
			return err
		}
	}
	loss, maxLen, err := c.gatherMeta(m, slot)
	if err != nil {
		return err
	}
	cut, scale, err := g.selectRound(c.server, m, slot.dec.K, maxLen, len(slot.ids))
	if err != nil {
		return err
	}
	elems := cut.Len()
	if err := c.journal.sealed(m, loss, scale, c.cfg.QuantBits, cut.Kappa, elems, cut.Fill, g.spans); err != nil {
		return err
	}
	if err := g.seal(m, scale); err != nil {
		return err
	}
	if err := c.journal.crashAt(BoundarySealSent, m); err != nil {
		return err
	}
	return c.closeRound(m, slot, loss, elems, RoundRelease{Round: m, Elems: elems})
}
