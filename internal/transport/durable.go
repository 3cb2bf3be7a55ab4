// The durable coordinator: the crash-recoverable control plane of the
// distributed protocol. Every round the coordinator logs its decisions
// to a write-ahead log (internal/wal) at three boundaries — the seal
// (selection finished), the release (downlink cleared), the finish
// (round closed) — as indices and scalars only; gradient payloads
// never enter the log. It is RunServerPeers with ServerConfig.Durable
// set. After a crash, the same call with Durable.Resume replays the
// log, re-seats every peer through the Rejoin handshake (rejoin.go),
// re-issues whatever the partial round still owes (the last seal or
// release), and continues the run from the round in progress — with
// trajectories bit-identical to an uninterrupted run, because every
// decision is either replayed from the log or recomputed from
// deterministically re-sent inputs.
//
// Recovery is synchronous and rests on one universal idempotency rule:
// a RejoinAck tells the peer to resend every buffered message with
// round >= NeedFrom, and EVERY receiver discards messages staler than
// the round it is waiting for. Conservative resends are therefore
// always safe — duplicates die at the receiver — which removes all
// precise delivery bookkeeping from the protocol.
//
// Scope limits, each failing loudly rather than corrupting a run: a
// shard death in the middle of a fill-query round trip or during the
// downlink fetch phase errors the run; a FRESH shard arriving while a
// resume preamble is still re-issuing an old round's seal errors the
// resume (restart it once the round is finished); clients must survive
// (client state is not checkpointed — the paper's participants hold the
// model).
package transport

import (
	"fmt"
	"time"

	"fedsparse/internal/wal"
)

// Boundary names the per-round WAL decision points of the durable
// coordinator — the instants a crash-recovery test kills the process
// at, and the vocabulary of the crash hook.
type Boundary string

const (
	// BoundarySealLogged: the round's Seal record is durable, no seal
	// or broadcast has been sent.
	BoundarySealLogged Boundary = "seal-logged"
	// BoundarySealSent: every shard seal (direct) or client broadcast
	// (routed) has been sent.
	BoundarySealSent Boundary = "seal-sent"
	// BoundaryReleaseLogged: the Release record is durable, no client
	// has been released.
	BoundaryReleaseLogged Boundary = "release-logged"
	// BoundaryFinishLogged: the Finish record is durable, the round is
	// fully closed.
	BoundaryFinishLogged Boundary = "finish-logged"
)

// DurableServerConfig is a coordinator's journal (ServerConfig.Durable):
// the write-ahead log it keeps and the desk its peers rejoin through.
type DurableServerConfig struct {
	// RunID identifies the run (non-zero; derive it with wal.RunID).
	// It stamps the WAL, the Init, and every Rejoin handshake.
	RunID uint64
	// WALPath is the log: a fresh run creates it; a resume opens it,
	// repairing a torn tail, and continues the run it holds.
	WALPath string
	// Desk supplies rejoining peers; required. The coordinator pulls
	// from it whenever a live connection fails (or, on resume, is not
	// yet established).
	Desk *RejoinDesk
	// Resume restarts a crashed coordinator from the log at WALPath
	// instead of enrolling peers: RunServerPeers then takes no peers and
	// no ShardConns, and the client and shard counts come from the log.
	Resume bool

	// crash is the test hook: invoked at every Boundary with the
	// round; a non-nil return closes every peer connection (emulating
	// process death) and unwinds the run with that error.
	crash func(Boundary, int) error
}

// rejoinTimeout bounds each wait of the durable coordinator for a
// rejoining peer.
const rejoinTimeout = 30 * time.Second

// coordConf is the configuration fingerprint stored in the RunStart
// record and validated on resume: a log is never replayed under a
// different geometry. A resume reads the client and shard counts from
// it (fields confClients and confShards) and checks every other field.
func coordConf(cfg ServerConfig, nClients, nShards int) []int64 {
	direct := int64(0)
	if cfg.Direct {
		direct = 1
	}
	return []int64{int64(len(cfg.InitialParams)), int64(cfg.K), int64(cfg.Rounds),
		int64(cfg.QuantBits), int64(nClients), int64(nShards), direct}
}

// The fingerprint fields a resume takes from the log.
const confClients, confShards = 4, 5

// durServer is the durable coordinator's recovery state around the
// shared round bodies (coordRun, role_coord.go): the rounds reach their
// peers through its two rejoin-healing link sides and log through its
// journal.
type durServer struct {
	*coordRun
	dur *DurableServerConfig

	cl *durSide // the clients' control conns, in ID order
	sh *durSide // direct mode: the shards' control conns (the DirectGroup's)

	// noRedo: a resume preamble is re-issuing a logged seal — a shard
	// that restarted empty cannot be re-fed, and errors the resume.
	noRedo bool
}

// durSide is one side of the durable coordinator's links — its clients
// or its direct shards — as the round bodies reach it (peerLinks). A
// nil connection is a broken link, re-established through the rejoin
// desk at the next use.
type durSide struct {
	s     *durServer
	kind  int // RejoinClient or RejoinShard
	noun  string
	conns []Conn
	// Rejoins that arrived while a different peer was being awaited.
	pending map[int]rejoinArrival
}

func (s *durServer) side(kind int, noun string, conns []Conn) *durSide {
	return &durSide{s: s, kind: kind, noun: noun, conns: conns, pending: make(map[int]rejoinArrival)}
}

// runDurable is a fresh durable run over the seated clients: it creates
// the WAL at WALPath (RunStart carries the configuration fingerprint and
// the clients' Hello weights, which rejoins do not resend), then drives
// the round loop with WAL appends at every decision boundary and
// rejoin-based recovery on every link failure.
func runDurable(clients []Conn, weights []float64, cfg ServerConfig) ([]RoundRecord, error) {
	dur := cfg.Durable
	rs := wal.RunStart{RunID: dur.RunID, Kind: wal.KindCoordinator,
		Conf: coordConf(cfg, len(clients), len(cfg.ShardConns)), Weights: weights}
	log, err := wal.Create(dur.WALPath, rs)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	s := newDurServer(cfg, log, clients, weights)
	if err := s.open(clients, dur.RunID, 0); err != nil {
		return nil, err
	}
	if cfg.Direct {
		s.healShards()
	}
	return s.run(1, nil)
}

// resumeDurable restarts a crashed coordinator from the log at WALPath,
// which it opens (repairing a torn tail: the crash may have interrupted
// an append) and closes on return. The log is the authority on the
// geometry it was written under: the client and shard counts come from
// its RunStart fingerprint, and every field cfg supplies — dim, K,
// Rounds, QuantBits, plane — must match it. No peer connections exist
// yet: every client and shard re-establishes its link through the
// Desk's Rejoin handshake as the resume needs it. The preamble finishes
// the partial round exactly where the crash left it — the logged seal
// is re-issued verbatim (direct) or re-derived from re-sent uploads and
// verified bit-exact against the log (routed) — and the loop then
// continues to cfg.Rounds.
func resumeDurable(cfg ServerConfig) ([]RoundRecord, error) {
	log, replayed, err := wal.Open(cfg.Durable.WALPath, cfg.Durable.RunID, true)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	rs := replayed[0].(*wal.RunStart) // wal.Open checked the record type and the RunID
	if rs.Kind != wal.KindCoordinator {
		return nil, fmt.Errorf("transport: resume: log written by writer kind %d, not a coordinator", rs.Kind)
	}
	want := coordConf(cfg, 0, 0)
	if len(rs.Conf) != len(want) {
		return nil, fmt.Errorf("transport: resume: configuration fingerprint has %d fields, want %d", len(rs.Conf), len(want))
	}
	want[confClients], want[confShards] = rs.Conf[confClients], rs.Conf[confShards]
	for i := range want {
		if rs.Conf[i] != want[i] {
			return nil, fmt.Errorf("transport: resume: configuration fingerprint field %d is %d, log has %d — refusing to replay under a different run configuration",
				i, want[i], rs.Conf[i])
		}
	}
	nClients, nShards := int(rs.Conf[confClients]), int(rs.Conf[confShards])
	if nClients < 1 || nShards < 0 {
		return nil, fmt.Errorf("transport: resume: log fingerprint holds %d clients and %d shards", nClients, nShards)
	}
	if len(rs.Weights) != nClients {
		return nil, fmt.Errorf("transport: resume: log holds %d client weights, want %d", len(rs.Weights), nClients)
	}
	if cfg.Direct && len(cfg.ShardAddrs) != nShards {
		// A restarted coordinator holds no connections at all, so it
		// starts with no shard directory either. Every rejoining shard
		// advertises its ingest address (awaitShard refills the slots),
		// so redos after the resume still broadcast a correct directory.
		cfg.ShardAddrs = make([]string, nShards)
	}
	s := newDurServer(cfg, log, make([]Conn, nClients), append([]float64(nil), rs.Weights...))

	records, seal, release, err := replayRounds(replayed[1:])
	if err != nil {
		return nil, err
	}
	s.records = records
	// The replayed prefix flows through the event stream too (no byte
	// meter and no reduce times — those rounds moved nothing in this
	// process), so a follower always sees every round exactly once.
	if obs := cfg.Observer; obs != nil {
		for _, rec := range records {
			obs.OnRoundStart(rec.Round)
			obs.OnRoundEnd(roundEvent(rec, cfg.K, nClients, nil, nil))
		}
	}
	// Rejoins swap entries of the metered slices in place; the meter
	// clamps the resulting counter regressions.
	if cfg.Direct {
		if s.group, err = newDirectGroup(make([]Conn, nShards), len(cfg.InitialParams), s.weights, cfg.QuantBits); err != nil {
			return nil, err
		}
		s.healShards()
		s.meter(s.cl.conns, s.sh.conns)
	} else {
		s.startRouted()
		s.meter(s.cl.conns)
	}
	next := len(records) + 1
	if next > cfg.Rounds {
		if seal != nil {
			return s.records, fmt.Errorf("transport: resume: seal for round %d past the final round %d", seal.Round, cfg.Rounds)
		}
		return s.records, nil
	}
	if seal != nil {
		s.startRound(next)
		if cfg.Direct {
			err = s.resumeDirectSeal(seal, release)
		} else {
			err = s.resumeRoutedSeal(seal, release)
		}
		if err != nil {
			return s.records, err
		}
		next++
	}
	return s.run(next, nil)
}

// newDurServer wraps the shared round state in the durable tier's
// values: healing links over clients and a journal over log.
func newDurServer(cfg ServerConfig, log *wal.Log, clients []Conn, weights []float64) *durServer {
	s := &durServer{dur: cfg.Durable}
	s.cl = s.side(RejoinClient, "client", clients)
	s.coordRun = newCoordRun(cfg, s.cl, len(clients), "client", weights)
	s.journal = &journal{log: log, crash: cfg.Durable.crash, closeAll: s.closeAll}
	return s
}

// healShards puts the DirectGroup's shard connections behind a healing
// side: the slice is shared, so rejoins swap entries in place.
func (s *durServer) healShards() {
	s.sh = s.side(RejoinShard, "shard", s.group.conns)
	s.group.links = s.sh
}

// replayRounds rebuilds the finished rounds from the replayed records
// and returns the trailing partial round's seal/release, if any.
func replayRounds(recs []wal.Record) ([]RoundRecord, *wal.Seal, *wal.Release, error) {
	var records []RoundRecord
	var seal *wal.Seal
	var release *wal.Release
	for _, r := range recs {
		next := len(records) + 1
		switch r := r.(type) {
		case *wal.Seal:
			if seal != nil || r.Round != next {
				return nil, nil, nil, fmt.Errorf("transport: resume: out-of-order seal for round %d (next round is %d)", r.Round, next)
			}
			seal = r
		case *wal.Release:
			if seal == nil || release != nil || r.Round != next {
				return nil, nil, nil, fmt.Errorf("transport: resume: out-of-order release for round %d (next round is %d)", r.Round, next)
			}
			release = r
		case *wal.Finish:
			if seal == nil || release == nil || r.Round != next {
				return nil, nil, nil, fmt.Errorf("transport: resume: finish for round %d without its seal and release", r.Round)
			}
			if len(r.Ints) != 1 || len(r.Floats) != 1 {
				return nil, nil, nil, fmt.Errorf("transport: resume: finish for round %d carries %d ints and %d floats, want 1 and 1",
					r.Round, len(r.Ints), len(r.Floats))
			}
			records = append(records, RoundRecord{Round: r.Round, Loss: r.Floats[0], DownlinkElems: int(r.Ints[0])})
			seal, release = nil, nil
		default:
			return nil, nil, nil, fmt.Errorf("transport: resume: unexpected %T record in a coordinator log", r)
		}
	}
	return records, seal, release, nil
}

// closeAll is the journal's crash action: close every peer connection,
// staged rejoins included.
func (s *durServer) closeAll() {
	for _, d := range []*durSide{s.cl, s.sh} {
		if d == nil {
			continue
		}
		for _, c := range d.conns {
			if c != nil {
				c.Close()
			}
		}
		for _, a := range d.pending {
			a.conn.Close()
		}
	}
}

// --- rejoin plumbing -------------------------------------------------

// msgRound extracts the round of a peer→coordinator protocol message,
// for the universal discard-stale rule.
func msgRound(msg any) (int, bool) {
	switch m := msg.(type) {
	case Upload:
		return m.Round, true
	case RoundMeta:
		return m.Round, true
	case ShardResult:
		return m.Round, true
	case FillCandidates:
		return m.Round, true
	}
	return 0, false
}

// await blocks until peer id rejoins (consulting the stash of rejoins
// that arrived out of turn first), acks it with the current round as
// NeedFrom, swaps the connection in, and returns the Rejoin. An ack
// that cannot be delivered means the peer gave up and will redial: wait
// for the next arrival.
func (d *durSide) await(id int) (Rejoin, error) {
	s := d.s
	for {
		a, ok := d.pending[id]
		if !ok {
			if err := s.stageRejoin(fmt.Sprintf("%s %d", d.noun, id)); err != nil {
				return Rejoin{}, err
			}
			continue
		}
		delete(d.pending, id)
		ack := RejoinAck{RunID: s.dur.RunID, Round: s.round, NeedFrom: s.round}
		if err := a.conn.Send(ack); err != nil {
			a.conn.Close()
			continue
		}
		if d.conns[id] != nil {
			d.conns[id].Close()
		}
		d.conns[id] = a.conn
		if d.kind != RejoinShard {
			// Only a shard can restart empty; clients hold the model.
			a.rj.Fresh = false
		} else if a.rj.Addr != "" && id < len(s.cfg.ShardAddrs) {
			// Keep the client-facing directory current: after a
			// coordinator resume the slot starts empty, and a restarted
			// shard may listen on a new address.
			s.cfg.ShardAddrs[id] = a.rj.Addr
		}
		return a.rj, nil
	}
}

// stageRejoin pulls one classified rejoin from the desk into its side's
// stash, validating identity (a newer redial supersedes a staged one);
// who names the peer being waited on, for the timeout error.
func (s *durServer) stageRejoin(who string) error {
	conn, rj, err := s.dur.Desk.Next(rejoinTimeout)
	if err != nil {
		return fmt.Errorf("transport: link to %s lost and no rejoin arrived: %w", who, err)
	}
	d := s.cl
	if rj.Kind == RejoinShard {
		d = s.sh
	}
	if rj.RunID != s.dur.RunID || (rj.Kind != RejoinClient && rj.Kind != RejoinShard) ||
		d == nil || rj.ID < 0 || rj.ID >= len(d.conns) {
		conn.Close()
		return nil
	}
	if old, ok := d.pending[rj.ID]; ok {
		old.conn.Close()
	}
	d.pending[rj.ID] = rejoinArrival{conn: conn, rj: rj}
	return nil
}

// recv returns peer id's next round-m-or-later message, discarding
// stale resends (already consumed before a rejoin) and recovering the
// link through rejoins. A FRESH rejoin — a shard that restarted empty —
// triggers the redo flow: re-assign the shard at round m and point
// every client at its new address to re-feed the barrier.
func (d *durSide) recv(id, m int) (any, error) {
	for {
		if d.conns[id] == nil {
			rj, err := d.await(id)
			if err != nil {
				return nil, err
			}
			if rj.Fresh {
				if err := d.s.redoShard(id, m, rj); err != nil {
					return nil, err
				}
			}
		}
		msg, err := d.conns[id].Recv()
		if err != nil {
			d.conns[id].Close()
			d.conns[id] = nil
			continue
		}
		if r, ok := msgRound(msg); ok && r < m {
			continue
		}
		return msg, nil
	}
}

// send delivers the round-m downlink (a client's broadcast or release,
// a shard's seal); see deliver.
func (d *durSide) send(id, m int, msg any) error { return d.deliver(id, m, msg, true) }

// deliver sends a round-m message to peer id, recovering through
// rejoins. gated: a rejoining peer that already holds round m
// (LastSeal >= m) is skipped — a duplicate would be discarded anyway;
// ungated is for Redo, which is idempotent at the client and not
// covered by LastSeal. A FRESH rejoin here means the old shard died
// after its result was consumed: the redo flow reruns the round-m
// barrier at the new shard (clients re-feed it from their rings; the
// rebuilt reduction is bit-identical) and the seal is then delivered on
// top; during a resume preamble (noRedo) that is unsupported and errors
// instead.
func (d *durSide) deliver(id, m int, msg any, gated bool) error {
	for {
		if d.conns[id] == nil {
			rj, err := d.await(id)
			if err != nil {
				return err
			}
			switch {
			case rj.Fresh && d.s.noRedo:
				return fmt.Errorf("transport: resume: shard %d restarted empty while round %d's seal was being re-issued — restart it after the round finishes", id, m)
			case rj.Fresh:
				if err := d.s.redoShard(id, m, rj); err != nil {
					return err
				}
			case gated && rj.LastSeal >= m:
				return nil
			}
		}
		if err := d.conns[id].Send(msg); err == nil {
			return nil
		}
		d.conns[id].Close()
		d.conns[id] = nil
	}
}

// redoShard re-seats a shard that restarted with no state: send it a
// round-m assignment (StartRound winds its barrier to the round in
// progress), adopt its new ingest address, and tell every client to
// re-dial it and resend their round-m slices. The rebuilt reduction is
// bit-identical to the lost one — the clients' rings hold exact copies
// of what they sent.
func (s *durServer) redoShard(sid, m int, rj Rejoin) error {
	g := s.group
	assign := directAssign(len(g.conns), g.dim, s.cfg.Rounds, s.weights, s.cfg.QuantBits)
	assign.ShardID, assign.StartRound = sid, m
	if err := g.conns[sid].Send(assign); err != nil {
		return fmt.Errorf("transport: round %d: re-assigning restarted shard %d: %w", m, sid, err)
	}
	if sid < len(s.cfg.ShardAddrs) {
		s.cfg.ShardAddrs[sid] = rj.Addr
	}
	var redo any = Redo{Round: m, ShardID: sid, Addr: rj.Addr}
	for id := range s.cl.conns {
		if err := s.cl.deliver(id, m, redo, false); err != nil {
			return err
		}
	}
	return nil
}
