// The durable direct shard: RunDirectShard with rejoin-based recovery
// on every link. The round itself is the shared shardRound
// (role_shard.go); durability adds (a) a control
// link that rejoins the coordinator and re-offers its last ShardResult
// (the only message the coordinator could have lost), (b) a data desk
// that keeps accepting client ingest connections for the whole run, so
// a client that redials mid-round is re-seated at the barrier, and (c)
// a fresh-start mode for a shard process that restarted with no state:
// it announces itself with Rejoin{Fresh: true} and the coordinator's
// redo flow re-assigns it at the round in progress and points every
// client at its new ingest address.
package transport

import (
	"fmt"
	"sync"
	"time"
)

// DurableShardConfig parameterizes RunDurableDirectShard.
type DurableShardConfig struct {
	// RunID is the durable run's identity (must match the
	// coordinator's).
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
	// Listener.Accept closure). Required. It is called from a
	// background goroutine for the whole run; it should return an
	// error once its listener closes.
	AcceptData func() (Conn, error)
	// RejoinAttempts bounds each coordinator rejoin loop (default 10).
	RejoinAttempts int
	// BarrierTimeout bounds each wait for a (re)connecting client at
	// the barrier (default 30s).
	BarrierTimeout time.Duration

	// killAfter is the test hook: when > 0, the shard closes every
	// connection and unwinds with an error after fully serving round
	// killAfter — emulating a shard process death between rounds.
	killAfter int
}

func (d DurableShardConfig) attempts() int {
	if d.RejoinAttempts > 0 {
		return d.RejoinAttempts
	}
	return 10
}

func (d DurableShardConfig) barrierTimeout() time.Duration {
	if d.BarrierTimeout > 0 {
		return d.BarrierTimeout
	}
	return 30 * time.Second
}

// dataDesk accepts, classifies, and stages client ingest connections
// for the whole run: every accepted connection's DataHello is
// validated against the shard's geometry, then the connection waits in
// its client's slot until the barrier pulls it. A redialing client
// simply queues a replacement — the dead predecessor surfaces as a
// recv error and is discarded.
type dataDesk struct {
	shardID, nShards, dim, nClients int

	ch   []chan Conn
	done chan struct{}
	once sync.Once
}

func newDataDesk(accept func() (Conn, error), shardID, nShards, dim, nClients int) *dataDesk {
	d := &dataDesk{
		shardID:  shardID,
		nShards:  nShards,
		dim:      dim,
		nClients: nClients,
		ch:       make([]chan Conn, nClients),
		done:     make(chan struct{}),
	}
	for i := range d.ch {
		d.ch[i] = make(chan Conn, 2)
	}
	go func() {
		for {
			conn, err := accept()
			if err != nil {
				return
			}
			go d.handshake(conn)
		}
	}()
	return d
}

// handshake validates one accepted connection's DataHello and stages
// it; anything else — a stray, a stale directory, an out-of-range
// identity — is closed.
func (d *dataDesk) handshake(conn Conn) {
	p, err := AcceptPeer(conn)
	if err != nil || p.Data == nil {
		conn.Close()
		return
	}
	h := p.Data
	if h.ShardID != d.shardID || h.NumShards != d.nShards || h.Dim != d.dim ||
		h.ClientID < 0 || h.ClientID >= d.nClients {
		conn.Close()
		return
	}
	select {
	case d.ch[h.ClientID] <- conn:
	case <-d.done:
		conn.Close()
	}
}

// next returns client ci's staged connection, waiting up to timeout.
func (d *dataDesk) next(ci int, timeout time.Duration) (Conn, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case conn := <-d.ch[ci]:
		return conn, nil
	case <-t.C:
		return nil, fmt.Errorf("no ingest connection from client %d within %v", ci, timeout)
	case <-d.done:
		return nil, fmt.Errorf("data desk closed")
	}
}

// close stops staging and discards every staged connection. The accept
// loop itself unwinds when the caller's listener closes.
func (d *dataDesk) close() {
	d.once.Do(func() { close(d.done) })
	for _, ch := range d.ch {
		for {
			select {
			case conn := <-ch:
				conn.Close()
			default:
			}
			break
		}
	}
}

// shardCtl is the shard's durable control link to the coordinator — a
// Conn that heals itself, so the shared round (shardRound.seal) runs
// over it exactly as over a plain connection. Its resend buffer is
// exactly one message deep: the last ShardResult is the only
// shard→coordinator message recovery can owe (fill replies are never
// resent — the coordinator re-queries fill from scratch when it
// recomputes a round).
type shardCtl struct {
	conn       Conn
	runID      uint64
	shardID    int
	addr       string
	round      int
	lastSeal   int
	lastResult ShardResult // deep copy; Round == 0 means none yet
	dial       func() (Conn, error)
	attempts   int
}

// rejoin redials the coordinator, re-identifies with a (non-fresh)
// Rejoin — the shard still holds its round state — and re-offers the
// last result if the coordinator's NeedFrom asks for it.
func (c *shardCtl) rejoin() error {
	rj := Rejoin{RunID: c.runID, Kind: RejoinShard, ID: c.shardID, Round: c.round, LastSeal: c.lastSeal, Addr: c.addr}
	conn, err := rejoinRun(c.dial, c.attempts, rj, "shard", func(conn Conn, needFrom int) error {
		if c.lastResult.Round >= needFrom && c.lastResult.Round > 0 {
			return conn.Send(c.lastResult)
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.Close()
	c.conn = conn
	return nil
}

// Send delivers one control message. A ShardResult is first deep-copied
// into the resend buffer (the round's reduction scratch is reused). On
// failure the link rejoins and reports success: a lost result is
// delivered by the rejoin's re-offer, a lost fill reply by
// recomputation — the coordinator that lost it redoes the round and
// queries fill afresh.
func (c *shardCtl) Send(msg any) error {
	if res, ok := msg.(ShardResult); ok {
		c.lastResult = ShardResult{Round: res.Round, ShardID: res.ShardID,
			Idx:     append([]int(nil), res.Idx...),
			Sum:     append([]float64(nil), res.Sum...),
			MinRank: append([]int(nil), res.MinRank...)}
	}
	if c.conn != nil {
		if err := c.conn.Send(msg); err == nil {
			return nil
		}
		c.Close()
	}
	return c.rejoin()
}

// Recv returns the next control message for the round in progress,
// rejoining on failure and discarding the stale fill queries and seals
// a restarted coordinator may replay.
func (c *shardCtl) Recv() (any, error) {
	for {
		if c.conn == nil {
			if err := c.rejoin(); err != nil {
				return nil, err
			}
		}
		msg, err := c.conn.Recv()
		if err != nil {
			c.Close()
			continue
		}
		switch v := msg.(type) {
		case FillQuery:
			if v.Round < c.round {
				continue
			}
		case RoundSeal:
			if v.Round < c.round {
				continue
			}
		}
		return msg, nil
	}
}

// Close drops the current connection; the next Send or Recv rejoins.
func (c *shardCtl) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// RunDurableDirectShard executes one durable aggregation shard of the
// direct data plane. A fresh run opens with ShardHello and starts at
// round 1; a fresh restart (cfg.Fresh) opens with Rejoin{Fresh: true}
// and receives a mid-run assignment whose StartRound winds the barrier
// to the round in progress — the clients re-feed it from their resend
// rings, so the rebuilt reduction is bit-identical to the lost one.
// Client ingest connections are accepted for the whole run through
// cfg.AcceptData; a client that redials is re-seated wherever the
// round is. Returns when the assigned rounds are done.
func RunDurableDirectShard(cfg DurableShardConfig) error {
	if cfg.Dial == nil || cfg.AcceptData == nil {
		return fmt.Errorf("transport: durable shard %d needs Dial and AcceptData hooks", cfg.ShardID)
	}
	if cfg.RunID == 0 {
		return fmt.Errorf("transport: durable shard %d needs a non-zero RunID", cfg.ShardID)
	}
	ctl := &shardCtl{runID: cfg.RunID, shardID: cfg.ShardID, addr: cfg.Addr,
		dial: cfg.Dial, attempts: cfg.attempts()}
	defer ctl.Close()
	var conn Conn
	var err error
	if cfg.Fresh {
		rj := Rejoin{RunID: cfg.RunID, Kind: RejoinShard, ID: cfg.ShardID, Fresh: true, Addr: cfg.Addr}
		conn, err = rejoinRun(cfg.Dial, 1, rj, "fresh shard", func(Conn, int) error { return nil })
		if err != nil {
			return err
		}
	} else {
		if conn, err = cfg.Dial(); err != nil {
			return fmt.Errorf("transport: shard %d dial coordinator: %w", cfg.ShardID, err)
		}
		if err := conn.Send(ShardHello{Addr: cfg.Addr, ID: cfg.ShardID, HasID: true}); err != nil {
			conn.Close()
			return fmt.Errorf("transport: shard %d hello: %w", cfg.ShardID, err)
		}
	}
	ctl.conn = conn
	msg, err := recvHandshake(conn)
	if err != nil {
		return fmt.Errorf("transport: shard %d assign recv: %w", cfg.ShardID, err)
	}
	assign, ok := msg.(ShardAssign)
	if !ok {
		return fmt.Errorf("transport: shard %d expected ShardAssign, got %T", cfg.ShardID, msg)
	}
	if assign.ShardID != cfg.ShardID {
		return fmt.Errorf("transport: shard %d received shard %d's assignment", cfg.ShardID, assign.ShardID)
	}
	if err := checkAssign(assign); err != nil {
		return err
	}
	start := max(assign.StartRound, 1)
	n := len(assign.Weights)

	desk := newDataDesk(cfg.AcceptData, assign.ShardID, assign.NumShards, assign.Dim, n)
	defer desk.close()
	conns := make([]Conn, n) // nil = not (re)connected yet
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()

	// recvData returns client ci's next data message at round m,
	// re-seating the connection from the desk on any failure and
	// discarding stale resends (a reconnecting client conservatively
	// replays its ring; consumed rounds die here).
	recvData := func(ci, m int, serving bool) (any, error) {
		for {
			if conns[ci] == nil {
				c, err := desk.next(ci, cfg.barrierTimeout())
				if err != nil {
					return nil, fmt.Errorf("transport: shard %d round %d: %w", assign.ShardID, m, err)
				}
				conns[ci] = c
			}
			msg, err := conns[ci].Recv()
			if err != nil {
				conns[ci].Close()
				conns[ci] = nil
				continue
			}
			switch v := msg.(type) {
			case SliceUpload:
				// While serving round m's downlink, round m's own slice is
				// also stale — the barrier consumed the original.
				if v.Round < m || (serving && v.Round == m) {
					continue
				}
			case SliceFetch:
				if v.Round < m {
					continue
				}
			}
			return msg, nil
		}
	}

	sr := newShardRound(assign, n, "client", "client")
	var ds downSlice
	for m := start; m <= assign.Rounds; m++ {
		ctl.round = m
		// The client barrier, with re-seating: one validated slice per
		// client completes the range, exactly as in RunDirectShard.
		for ci := range conns {
			msg, err := recvData(ci, m, false)
			if err != nil {
				return err
			}
			up, ok := msg.(SliceUpload)
			if !ok {
				return sr.wrongType(m, sr.peer, ci, msg, "SliceUpload")
			}
			if err := sr.admit(m, ci, ci, &up); err != nil {
				return err
			}
		}
		if err := sr.seal(m, ctl, &ds); err != nil {
			return err
		}
		ctl.lastSeal = m
		// The downlink serve, with re-seating: a client whose fetch link
		// broke redials and replays slice + fetch; the stale slice dies
		// in recvData and the fetch is served on the new connection.
		reply := ds.message(m, assign.ShardID)
		for ci := range conns {
			for {
				msg, err := recvData(ci, m, true)
				if err != nil {
					return err
				}
				if err := sr.checkFetch(m, ci, msg); err != nil {
					return err
				}
				if err := conns[ci].Send(reply); err != nil {
					// The client redialed mid-fetch: discard the link and
					// serve its replayed fetch on the replacement.
					conns[ci].Close()
					conns[ci] = nil
					continue
				}
				break
			}
		}
		if cfg.killAfter > 0 && m == cfg.killAfter {
			ctl.Close()
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
			return fmt.Errorf("transport: shard %d killed by test hook after round %d", assign.ShardID, m)
		}
	}
	return nil
}
