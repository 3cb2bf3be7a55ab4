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

// This file is the coordinator's round, written once: one round loop
// (coordRun.run) over one routed and one direct round body, each
// deciding, selecting and quantizing through the engine's own server
// step (fl.Server: Decide, then Aggregate over the uploads or Select over
// the shards' reductions). Every coordinator tier — classic at any
// staleness window (protocol.go; the window lives in the clients' and
// shards' loops, the coordinator's rounds stay in order and exact),
// durable (durable.go, after a resume's preamble), population
// (population.go) — runs that loop and supplies only what distinguishes
// it:
//
//	links    how a round reaches its peers: plain connections, the
//	         durable server's rejoin-healing links, or the population's
//	         member streams and host muxes
//	journal  whether a decision is logged before it is sent (nil, or
//	         the WAL with its crash points)
//	roster   who uploads this round: every client (nil), or a drawn
//	         cohort (the population's drawRound)

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
// outboxes (startOutboxes).
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

// startOutboxes gives every client of a routed run W rounds deep a
// queue and a goroutine that sends from it: such a client sends W+1
// uploads before it reads a broadcast, so a coordinator sending in line
// would block on it once the payloads outgrow the socket buffers. A
// client is at most W+1 broadcasts behind, so a queue of fl.MaxStaleness+1
// never fills. stop closes the queues; with wait it returns once every
// queued message went out, with the send errors (without, a sender
// stuck on a live peer exits when the caller closes the connections).
func startOutboxes(conns []Conn) (out []chan any, stop func(wait bool) error) {
	out = make([]chan any, len(conns))
	errs := make(chan error, len(conns))
	for id, conn := range conns {
		q := make(chan any, fl.MaxStaleness+1)
		out[id] = q
		go func() {
			var err error
			for msg := range q {
				if err == nil {
					err = conn.Send(msg)
				}
			}
			if err != nil {
				err = fmt.Errorf("transport: send to client %d: %w", id, err)
			}
			errs <- err
		}()
	}
	return out, func(wait bool) error {
		for _, q := range out {
			close(q)
		}
		var sendErrs []error
		for i := 0; wait && i < len(out); i++ {
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
// so a crash between here and the sends re-issues it verbatim: member
// indices and scalars only — values are never logged. spans (direct
// mode) are the per-shard member spans, logged as len(shards)+1 offsets
// into members.
func (j *journal) sealed(m int, loss, scale float64, bits int, members []int, spans [][]int) error {
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
	if err := j.logSync(&wal.Seal{Round: m, Loss: loss, Scale: scale, Bits: bits, Members: members, Spans: offs}); err != nil {
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

// cohortDraw is what a sampled roster adds to a round's event.
type cohortDraw struct {
	population, drawn, churnEvents int
}

// coordRun is a coordinator's per-run round state.
type coordRun struct {
	cfg ServerConfig
	// clients reaches the uploaders (recv) and the downlink receivers
	// (send); nDown counts the latter — the clients themselves, or the
	// population's hosts. noun names an uploader in errors.
	clients  peerLinks
	nClients int
	nDown    int
	noun     string
	// weights holds C_i by uploader identity; total is their sum over
	// the fixed roster (a cohort round passes its own).
	weights []float64
	total   float64
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
	// frames are the Broadcast's encode buffers, slot m%(W+1) for round
	// m: one for a coordinator that sends in line, W+1 for the outboxes
	// (see runClientRounds for why slot m is free again at round m+W+1).
	frames [][]byte
	// Direct plane.
	group *DirectGroup

	bm     *byteMeter
	events []fl.RoundEvent
}

func newCoordRun(cfg ServerConfig, clients peerLinks, nClients int, noun string, weights []float64) *coordRun {
	c := &coordRun{cfg: cfg, clients: clients, nClients: nClients, nDown: nClients, noun: noun, weights: weights,
		server: fl.NewServer(&gs.FABTopK{}, core.NewFixedK(float64(cfg.K)), nil, len(cfg.InitialParams), cfg.QuantBits),
		frames: make([][]byte, cfg.Staleness+1),
		events: make([]fl.RoundEvent, 0, max(cfg.Rounds, 0))}
	for _, w := range weights {
		c.total += w
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

// run is the coordinator's one round loop: rounds from..Rounds on the
// run's data plane. draw is the roster: nil is every client each round;
// otherwise it returns round m's cohort and what the draw adds to the
// round's event, and the round is weighted by the cohort's own total —
// the engine's per-round participant normalization.
func (c *coordRun) run(from int, draw func(m int) ([]int, *cohortDraw, error)) ([]fl.RoundEvent, error) {
	for m := from; m <= c.cfg.Rounds; m++ {
		c.startRound(m)
		dec, err := c.server.Decide(m)
		if err != nil {
			return c.events, err
		}
		var (
			ids   []int
			cd    *cohortDraw
			loss  float64
			elems int
		)
		n, total := c.nClients, c.total
		if draw != nil {
			if ids, cd, err = draw(m); err != nil {
				return c.events, err
			}
			n, total = len(ids), 0
			for _, id := range ids {
				total += c.weights[id]
			}
		}
		if c.cfg.Direct {
			loss, elems, err = c.directRound(m, dec.K, ids, total)
		} else {
			loss, elems, err = c.routedRound(m, dec.K, ids, total)
		}
		if err != nil {
			return c.events, err
		}
		c.finish(m, loss, elems, n, cd)
	}
	return c.events, nil
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
func (c *coordRun) finish(m int, loss float64, elems, participants int, draw *cohortDraw) {
	ev := c.roundEvent(m, loss, elems, participants)
	if c.bm != nil {
		ev.BytesUp, ev.BytesDown = c.bm.delta()
	}
	if c.group != nil {
		ev.ShardReduceSeconds = append([]float64(nil), c.group.reduceSecs...)
	}
	if draw != nil {
		ev.Population, ev.CohortSize, ev.ChurnEvents = draw.population, draw.drawn, draw.churnEvents
	}
	if c.journal != nil {
		ev.WALAppends = c.journal.appends
	}
	c.events = append(c.events, ev)
	if obs := c.cfg.Observer; obs != nil {
		obs.OnRoundEnd(ev)
	}
}

// uploader maps gather position i to an identity: ids is the round's
// cohort, or nil for the fixed roster (position = client ID).
func uploader(ids []int, i int) int {
	if ids != nil {
		return ids[i]
	}
	return i
}

// gatherUploads is the routed plane's barrier: one validated Upload
// (validateUpload) per uploader, in roster order — the aggregation's
// client order. It fills c.uploads and returns the weighted loss.
func (c *coordRun) gatherUploads(m int, ids []int, total float64) (float64, error) {
	n := c.nClients
	if ids != nil {
		n = len(ids)
		for len(c.slotIdx) < n {
			c.slotIdx = append(c.slotIdx, nil)
			c.slotVal = append(c.slotVal, nil)
		}
	}
	if cap(c.uploads) < n {
		c.uploads = make([]gs.ClientUpload, n)
	}
	if c.seen == nil {
		c.seen = make([]int, len(c.cfg.InitialParams))
	}
	c.uploads = c.uploads[:n]
	var weightedLoss float64
	for i := 0; i < n; i++ {
		id := uploader(ids, i)
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
		weightedLoss += c.weights[id] / total * up.BatchLoss
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
func (c *coordRun) routedRound(m, k int, ids []int, total float64) (loss float64, elems int, err error) {
	if loss, err = c.gatherUploads(m, ids, total); err != nil {
		return 0, 0, err
	}
	bc := c.aggregate(m, k)
	if err := c.journal.sealed(m, loss, bc.Scale, bc.Bits, bc.Idx, nil); err != nil {
		return 0, 0, err
	}
	if err := c.downlink(m, bc); err != nil {
		return 0, 0, err
	}
	if err := c.journal.crashAt(BoundarySealSent, m); err != nil {
		return 0, 0, err
	}
	return loss, len(bc.Idx), c.closeRound(m, loss, len(bc.Idx), nil)
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
// direct plane's RoundRelease), and journals the finish.
func (c *coordRun) closeRound(m int, loss float64, elems int, release any) error {
	if err := c.journal.released(m, loss, elems); err != nil {
		return err
	}
	if release != nil {
		if err := c.downlink(m, release); err != nil {
			return err
		}
	}
	return c.journal.finished(m, loss, elems)
}

// gatherMeta is the direct plane's control barrier: one RoundMeta per
// uploader — its minibatch loss and upload length, the only things a
// participant sends the coordinator. Returns the weighted loss and the
// round's longest upload (the κ-search bound).
func (c *coordRun) gatherMeta(m int, ids []int, total float64) (weightedLoss float64, maxLen int, err error) {
	n := c.nClients
	if ids != nil {
		n = len(ids)
	}
	dim := len(c.cfg.InitialParams)
	for i := 0; i < n; i++ {
		id := uploader(ids, i)
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
		weightedLoss += c.weights[id] / total * meta.BatchLoss
		maxLen = max(maxLen, meta.UploadLen)
	}
	return weightedLoss, maxLen, nil
}

// directRound runs one direct-plane round: gather the control scalars,
// select over the shards' merged reductions, journal the seal, seal
// every shard with its span, journal the release, release the
// participants into their downlink fetches, journal the finish. Every
// shard is sealed before the release goes out: the release is the
// participants' guarantee that round m's slices are servable at every
// shard, and Elems lets each verify its reassembled B against the
// coordinator's |J| — a truncated shard slice fails at the client,
// loudly. The coordinator sends no B payload in either direction.
func (c *coordRun) directRound(m, k int, ids []int, total float64) (float64, int, error) {
	loss, maxLen, err := c.gatherMeta(m, ids, total)
	if err != nil {
		return 0, 0, err
	}
	g := c.group
	main, scale, err := g.selectRound(c.server, m, k, maxLen)
	if err != nil {
		return 0, 0, err
	}
	if err := c.journal.sealed(m, loss, scale, c.cfg.QuantBits, main.Indices, g.spans); err != nil {
		return 0, 0, err
	}
	if err := g.seal(m, scale); err != nil {
		return 0, 0, err
	}
	if err := c.journal.crashAt(BoundarySealSent, m); err != nil {
		return 0, 0, err
	}
	elems := len(main.Indices)
	return loss, elems, c.closeRound(m, loss, elems, RoundRelease{Round: m, Elems: elems})
}
