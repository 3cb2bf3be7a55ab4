// The durable direct shard: the plain shard (RunDirectShard, the same
// runShard body) with two links of its own. Its control link is the
// healLink (rejoin.go), which rejoins the coordinator, re-offers its
// buffered ShardResults and drops replayed fill queries and seals. Its
// ingest is a desk (rejoin.go) under the DataHello rule, accepting
// client connections for the whole run, so a client that redials
// mid-round is re-seated at the barrier or the serve and its replayed
// slices die as stale (durIngest). A shard process that restarted with
// no state starts fresh: it announces itself with Rejoin{Fresh: true}
// and the coordinator's redo flow re-assigns it at the round in
// progress and points every client at its new ingest address.
package transport

import (
	"fmt"
	"slices"
)

// DurableShardConfig parameterizes RunDurableDirectShard.
type DurableShardConfig struct {
	// RunID is the durable run's identity (the coordinator's).
	RunID uint64
	// ShardID is this shard's identity in the partition.
	ShardID int
	// Addr is the ingest address the shard advertises (ShardHello on a
	// fresh run, Rejoin.Addr on a fresh restart — the coordinator's
	// Redo re-points clients here).
	Addr string
	// Fresh marks a shard process that restarted with no state: it
	// joins through the Rejoin handshake and receives a mid-run
	// ShardAssign (StartRound = the round in progress) instead of
	// opening with ShardHello.
	Fresh bool
	// Dial establishes (and re-establishes) the coordinator control
	// connection. Required.
	Dial func() (Conn, error)
	// AcceptData accepts one client ingest connection (e.g. a
	// Listener's Accept); required. The shard's desk calls it for the
	// whole run, until it fails (its listener closed).
	AcceptData func() (Conn, error)

	// killAfter is the test hook: when > 0, the shard closes every
	// connection and unwinds with an error after fully serving round
	// killAfter — emulating a shard process death between rounds.
	killAfter int
}

// durIngest is the durable shard's ingest links (peerLinks): each
// client's connection is (re)taken from the desk wherever the round is.
// A re-seated client conservatively replays its ring, so every
// SliceUpload and SliceFetch at or below the last round of its kind
// consumed (uploaded, served) dies here.
type durIngest struct {
	desk             *desk
	conns            []Conn // nil = not (re)connected yet
	uploaded, served []int
	killAfter        int // DurableShardConfig's test hook
}

// recv returns client ci's next fresh message, re-seating its link on
// any failure.
func (d *durIngest) recv(ci, m int) (any, error) {
	if d.killAfter > 0 && m > d.killAfter {
		return nil, fmt.Errorf("killed by test hook after round %d", d.killAfter)
	}
	for {
		if d.conns[ci] == nil {
			p, err := d.desk.take(deskKey{"client", ci}, deskWait)
			if err != nil {
				return nil, err
			}
			d.conns[ci] = p.Conn
		}
		msg, err := d.conns[ci].Recv()
		if err != nil {
			d.drop(ci)
			continue
		}
		switch v := msg.(type) {
		case SliceUpload:
			if v.Round <= d.uploaded[ci] {
				continue
			}
			d.uploaded[ci] = v.Round
		case SliceFetch:
			if v.Round <= d.served[ci] {
				continue
			}
		}
		return msg, nil
	}
}

// send answers client ci's round-m fetch. A failed send means the
// client redialed mid-fetch: re-seat the link and answer the fetch it
// replays there.
func (d *durIngest) send(ci, m int, msg any) error {
	for d.conns[ci].Send(msg) != nil {
		d.drop(ci)
		replay, err := d.recv(ci, m)
		if err != nil {
			return err
		}
		if f, ok := replay.(SliceFetch); !ok || f.ClientID != ci || f.Round != m {
			return fmt.Errorf("replayed %T in place of the round-%d fetch", replay, m)
		}
	}
	d.served[ci] = m
	return nil
}

func (d *durIngest) drop(ci int) {
	d.conns[ci].Close()
	d.conns[ci] = nil
}

// dataRule is a durable shard desk's admit rule: the assignment's
// clients by their DataHello (checkDataHello), keyed by ClientID.
func dataRule(assign ShardAssign) func(Peer) (deskKey, error) {
	return func(p Peer) (deskKey, error) {
		if err := checkDataHello(p, assign); err != nil {
			return deskKey{}, err
		}
		return deskKey{"client", p.Data.ClientID}, nil
	}
}

// RunDurableDirectShard executes one durable aggregation shard of the
// direct data plane: it opens its control link with ShardHello, or on
// a fresh restart (cfg.Fresh) with Rejoin{Fresh: true} for a mid-run
// assignment whose StartRound winds the loop to the round in progress
// (the clients re-feed it from their rings, so the rebuilt reduction is
// bit-identical to the lost one), and then runs the plain shard's body
// over a desk on cfg.AcceptData. Returns when the assigned rounds are
// done.
func RunDurableDirectShard(cfg DurableShardConfig) error {
	if cfg.Dial == nil || cfg.AcceptData == nil {
		return fmt.Errorf("transport: durable shard %d needs Dial and AcceptData hooks", cfg.ShardID)
	}
	if cfg.RunID == 0 {
		return fmt.Errorf("transport: durable shard %d needs a non-zero RunID", cfg.ShardID)
	}
	ctl := &healLink{rj: Rejoin{RunID: cfg.RunID, Kind: RejoinShard, ID: cfg.ShardID, Addr: cfg.Addr},
		noun: "shard", dial: cfg.Dial}
	defer ctl.Close()
	// A fresh run's coordinator assigns once its whole quota enrolled,
	// which may outlast a handshake; a redo assigns right after the ack.
	recv := func() (any, error) { return ctl.conn.Recv() }
	var err error
	if cfg.Fresh {
		rj := ctl.rj
		rj.Fresh = true
		if ctl.conn, err = rejoinRun(cfg.Dial, 1, rj, "fresh shard", func(Conn, int) error { return nil }); err != nil {
			return err
		}
		recv = func() (any, error) { return recvHandshake(ctl.conn) }
	} else {
		if ctl.conn, err = cfg.Dial(); err != nil {
			return fmt.Errorf("transport: shard %d dial coordinator: %w", cfg.ShardID, err)
		}
		if err := ctl.conn.Send(ShardHello{Addr: cfg.Addr, ID: cfg.ShardID, HasID: true}); err != nil {
			return fmt.Errorf("transport: shard %d hello: %w", cfg.ShardID, err)
		}
	}
	in := &durIngest{desk: newDesk(cfg.AcceptData), killAfter: cfg.killAfter}
	defer func() {
		in.desk.Close()
		closeConns(in.conns)
	}()
	return runShard(ctl, recv, true, func(assign ShardAssign) (*shardLinks, error) {
		if assign.ShardID != cfg.ShardID {
			return nil, fmt.Errorf("transport: shard %d received shard %d's assignment", cfg.ShardID, assign.ShardID)
		}
		n := len(assign.Weights)
		// The rounds before the first one this shard runs count as
		// consumed: a fresh shard's clients may replay them.
		in.conns, in.uploaded = make([]Conn, n), slices.Repeat([]int{max(assign.StartRound, 1) - 1}, n)
		in.served = slices.Clone(in.uploaded)
		in.desk.open(dataRule(assign))
		return &shardLinks{up: in, down: in, nDown: n, roster: fixedRoster(n)}, nil
	})
}
