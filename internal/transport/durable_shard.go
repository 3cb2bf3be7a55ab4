// The durable direct shard: RunDirectShard's round loop
// (shardRound.run) over links that recover by rejoining. Durability is
// two values the loop runs over: (a) the control link is the healLink
// (rejoin.go), which rejoins the coordinator, re-offers its buffered
// ShardResults and drops replayed fill queries and seals, and (b) the
// ingest links are a data desk that keeps accepting client connections
// for the whole run, so a client that redials mid-round is re-seated at
// the barrier or the serve and its replayed slices die as stale. A
// shard process that restarted with no state starts fresh: it
// announces itself with Rejoin{Fresh: true} and the coordinator's redo
// flow re-assigns it at the round in progress and points every client
// at its new ingest address.
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

	// killAfter is the test hook: when > 0, the shard closes every
	// connection and unwinds with an error after fully serving round
	// killAfter — emulating a shard process death between rounds.
	killAfter int
}

// barrierTimeout bounds each wait of a durable shard for a
// (re)connecting client at the barrier or the serve.
const barrierTimeout = 30 * time.Second

// dataDesk is the durable shard's ingest links (peerLinks). It accepts,
// classifies, and stages client ingest connections for the whole run:
// every accepted connection's DataHello passes the shard tiers' one
// check (checkDataHello), then the connection waits in its client's
// slot until the round pulls it. A redialing client simply queues a
// replacement — the dead predecessor surfaces as a recv error and is
// discarded.
type dataDesk struct {
	assign  ShardAssign
	timeout time.Duration

	ch   []chan Conn
	done chan struct{}
	once sync.Once

	// The seated links (nil = not (re)connected yet) and, per client,
	// the last SliceUpload and SliceFetch round the round consumed.
	conns            []Conn
	uploaded, served []int
}

func newDataDesk(accept func() (Conn, error), assign ShardAssign, timeout time.Duration) *dataDesk {
	n := len(assign.Weights)
	d := &dataDesk{
		assign: assign, timeout: timeout,
		ch:    make([]chan Conn, n),
		done:  make(chan struct{}),
		conns: make([]Conn, n), uploaded: make([]int, n), served: make([]int, n),
	}
	for i := range d.ch {
		// Room for a redial staged behind a link not yet seated; a later
		// one waits in its handshake goroutine.
		d.ch[i] = make(chan Conn, 2)
		// The rounds before the first one this shard runs count as
		// consumed: a fresh shard's clients may replay them.
		d.uploaded[i] = max(assign.StartRound, 1) - 1
		d.served[i] = d.uploaded[i]
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
// identity, a roster other than the client's own ID — is closed, and
// the refusal returned.
func (d *dataDesk) handshake(conn Conn) error {
	p, err := AcceptPeer(conn)
	if err == nil {
		err = checkDataHello(p, d.assign)
	}
	if err != nil {
		conn.Close()
		return err
	}
	ci := p.Data.ClientID
	select {
	case d.ch[ci] <- conn:
	case <-d.done:
		conn.Close()
		return nil
	}
	// Staged just as the desk closed, after close drained the slot.
	select {
	case <-d.done:
		d.drain(ci)
	default:
	}
	return nil
}

// drain closes every connection staged for client ci.
func (d *dataDesk) drain(ci int) {
	for {
		select {
		case conn := <-d.ch[ci]:
			conn.Close()
		default:
			return
		}
	}
}

// recv returns client ci's next message, re-seating its link from the
// desk on any failure and dropping every SliceUpload or SliceFetch
// whose round is at or below the last one of its kind the round
// consumed — a re-seated client conservatively replays its ring.
func (d *dataDesk) recv(ci, _ int) (any, error) {
	for {
		if d.conns[ci] == nil {
			if err := d.seat(ci); err != nil {
				return nil, err
			}
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
func (d *dataDesk) send(ci, m int, msg any) error {
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

// seat pulls client ci's next staged connection, waiting up to the
// barrier timeout.
func (d *dataDesk) seat(ci int) error {
	t := time.NewTimer(d.timeout)
	defer t.Stop()
	select {
	case d.conns[ci] = <-d.ch[ci]:
		return nil
	case <-t.C:
		return fmt.Errorf("no ingest connection within %v", d.timeout)
	case <-d.done:
		return fmt.Errorf("data desk closed")
	}
}

func (d *dataDesk) drop(ci int) {
	d.conns[ci].Close()
	d.conns[ci] = nil
}

// close stops staging and closes every staged and seated connection.
// The accept loop itself unwinds when the caller's listener closes.
func (d *dataDesk) close() {
	d.once.Do(func() { close(d.done) })
	for ci := range d.ch {
		d.drain(ci)
		if d.conns[ci] != nil {
			d.conns[ci].Close()
		}
	}
}

// RunDurableDirectShard executes one durable aggregation shard of the
// direct data plane. A fresh run opens with ShardHello and starts at
// round 1; a fresh restart (cfg.Fresh) opens with Rejoin{Fresh: true}
// and receives a mid-run assignment whose StartRound winds the loop to
// the round in progress — the clients re-feed it from their resend
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
	ctl := &healLink{rj: Rejoin{RunID: cfg.RunID, Kind: RejoinShard, ID: cfg.ShardID, Addr: cfg.Addr},
		noun: "shard", dial: cfg.Dial}
	defer ctl.Close()
	var (
		msg any
		err error
	)
	if cfg.Fresh {
		rj := ctl.rj
		rj.Fresh = true
		if ctl.conn, err = rejoinRun(cfg.Dial, 1, rj, "fresh shard", func(Conn, int) error { return nil }); err != nil {
			return err
		}
		// The redo sends the assignment right after the ack.
		msg, err = recvHandshake(ctl.conn)
	} else {
		if ctl.conn, err = cfg.Dial(); err != nil {
			return fmt.Errorf("transport: shard %d dial coordinator: %w", cfg.ShardID, err)
		}
		if err := ctl.conn.Send(ShardHello{Addr: cfg.Addr, ID: cfg.ShardID, HasID: true}); err != nil {
			return fmt.Errorf("transport: shard %d hello: %w", cfg.ShardID, err)
		}
		// A fresh run's coordinator assigns only once its whole quota has
		// enrolled, which may take longer than a handshake: wait as
		// RunDirectShard does.
		msg, err = ctl.conn.Recv()
	}
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
	if err := checkAssign(assign, true); err != nil {
		return err
	}
	n := len(assign.Weights)
	desk := newDataDesk(cfg.AcceptData, assign, barrierTimeout)
	defer desk.close()
	sr := newShardRound(assign, n, "client", "client")
	if cfg.killAfter > 0 {
		sr.rounds = cfg.killAfter
	}
	err = sr.run(ctl, &shardLinks{up: desk, down: desk, nDown: n})
	if err == nil && cfg.killAfter > 0 {
		// Every connection closes on the way out, as a dead process's do.
		err = fmt.Errorf("transport: shard %d killed by test hook after round %d", assign.ShardID, cfg.killAfter)
	}
	return err
}
