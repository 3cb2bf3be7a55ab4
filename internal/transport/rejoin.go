// Rejoin handshake of the durable control plane (durable.go): when a
// link to the coordinator dies — because the coordinator restarted from
// its WAL or because the connection itself dropped — the surviving peer
// redials and re-identifies with a Rejoin instead of a fresh Hello.
// The coordinator answers with a RejoinAck carrying the round it is in
// and the round from which the peer must resend its buffered messages,
// which is all the state the two sides need to splice the new
// connection into the middle of a run. Redo is the one coordinator-
// initiated recovery message: it tells every client that a shard
// restarted empty and must be re-fed the current round's slices. The
// coordinator's half is a desk under the Rejoin rule (RejoinDesk,
// rejoinRule); the desk is the durable tier's one re-seating point, and
// a durable shard's client ingest runs on it too, under the DataHello
// rule (dataRule). The peers' half is healLink, the one self-healing
// control link of durable clients and shards alike.
package transport

import (
	"fmt"
	"sync"
	"time"
)

// Rejoin sender kinds.
const (
	// RejoinClient re-identifies a training client on the coordinator's
	// control plane.
	RejoinClient = 1
	// RejoinShard re-identifies an aggregation shard on the
	// coordinator's control plane.
	RejoinShard = 2
)

type (
	// Rejoin is the first message on a redialed control-plane
	// connection: who the peer is (Kind, ID), which run it belongs to
	// (RunID — a stale peer from a previous run fails loudly), where it
	// is in the protocol (Round is the round it is currently acting in,
	// LastSeal the last round whose broadcast/release — for a client —
	// or seal — for a shard — it holds), and whether it restarted with
	// no in-memory state (Fresh). A fresh shard also advertises its new
	// ingest address in Addr so the coordinator can point the clients
	// at it.
	Rejoin struct {
		RunID    uint64
		Kind     int
		ID       int
		Round    int
		LastSeal int
		Fresh    bool
		Addr     string
	}

	// RejoinAck accepts a Rejoin: Round is the coordinator's current
	// round, and NeedFrom directs the resend — the peer must resend
	// every buffered message whose round is >= NeedFrom (receivers
	// discard anything staler than what they are waiting for, so a
	// conservative resend is always safe).
	RejoinAck struct {
		RunID    uint64
		Round    int
		NeedFrom int
	}

	// Redo is the coordinator's client-directed recovery message in the
	// direct data plane: shard ShardID restarted with no state and now
	// listens at Addr; re-dial it and resend your round slices from
	// Round on. It arrives on the control connection while the client
	// waits for the round's release.
	Redo struct {
		Round   int
		ShardID int
		Addr    string
	}
)

// deskWait bounds each wait of a durable round for a peer's
// (re)connection at its desk.
const deskWait = 30 * time.Second

// desk is the durable tier's one re-seating point, for the
// coordinator's rejoins and a durable shard's client ingest alike. Its
// accept loop runs for the whole run, so a round never races a
// redialing peer; each connection is classified on its own goroutine
// under the handshake deadline (a silent dialer cannot stall the desk),
// keyed or refused by the admit rule, and staged until the round takes
// it. A newer arrival closes and replaces the one staged under its key:
// a peer redials only once its old connection is lost.
type desk struct {
	accept func() (Conn, error)
	admit  func(Peer) (deskKey, error)
	start  sync.Once

	mu     sync.Mutex
	staged map[deskKey]Peer // nil once closed
	wake   chan struct{}    // closed (and replaced) at every staging, and by Close
}

// deskKey names a staged peer: "client" or "shard", and its ID.
type deskKey struct {
	noun string
	id   int
}

func (k deskKey) String() string { return fmt.Sprintf("%s %d", k.noun, k.id) }

// RejoinDesk is a durable coordinator's desk (DurableServerConfig.Desk):
// its rejoining clients and direct shards, keyed by kind and ID.
type RejoinDesk = desk

// NewRejoinDesk builds a rejoin desk over accept (a TCP listener's
// Accept, or a channel-fed hook in tests). It takes no connection until
// a durable coordinator opens it under its run's rejoinRule. The desk
// owns no listener: closing the accept source (so accept returns an
// error) plus Close releases everything.
func NewRejoinDesk(accept func() (Conn, error)) *RejoinDesk { return newDesk(accept) }

func newDesk(accept func() (Conn, error)) *desk {
	return &desk{accept: accept, staged: make(map[deskKey]Peer), wake: make(chan struct{})}
}

// open starts the accept loop under admit. A desk opens once: a resumed
// coordinator reopening its predecessor's desk resumes the same run.
func (d *desk) open(admit func(Peer) (deskKey, error)) {
	d.start.Do(func() {
		d.admit = admit
		go func() {
			for {
				conn, err := d.accept()
				if err != nil {
					return
				}
				go d.stage(conn)
			}
		}()
	})
}

// stage classifies one accepted connection and stages it under its
// key; a refused connection is closed and the refusal returned.
func (d *desk) stage(conn Conn) error {
	p, err := AcceptPeer(conn)
	var k deskKey
	if err == nil {
		k, err = d.admit(p)
	}
	d.mu.Lock()
	if err == nil && d.staged != nil {
		// Swap: conn becomes the one replaced, if any.
		p, d.staged[k] = d.staged[k], p
		conn = p.Conn
		close(d.wake)
		d.wake = make(chan struct{})
	}
	d.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	return err
}

// take returns the peer staged under k, waiting at most timeout.
func (d *desk) take(k deskKey, timeout time.Duration) (Peer, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		d.mu.Lock()
		p, ok := d.staged[k]
		delete(d.staged, k)
		closed, wake := d.staged == nil, d.wake
		d.mu.Unlock()
		switch {
		case ok:
			return p, nil
		case closed:
			return Peer{}, fmt.Errorf("transport: desk closed while awaiting %v", k)
		}
		select {
		case <-wake:
		case <-t.C:
			return Peer{}, fmt.Errorf("transport: no connection from %v within %v", k, timeout)
		}
	}
}

// Close stops staging and closes every staged connection. The accept
// loop itself unwinds when the accept source fails.
func (d *desk) Close() {
	d.mu.Lock()
	staged := d.staged
	if staged != nil {
		d.staged = nil
		close(d.wake)
	}
	d.mu.Unlock()
	for _, p := range staged {
		p.Conn.Close()
	}
}

// healLink is a durable peer's control link to the coordinator — a
// client's or a shard's — as a Conn that heals itself, so the roles'
// loops run over it exactly as over a plain connection. It holds what a
// rejoin needs and sets it from the messages it carries:
//
//   - rj, the Rejoin template: identity and address fixed; Round is the
//     round of the last uplink sent, LastSeal that round once its
//     Broadcast, RoundRelease or RoundSeal arrived;
//   - ring, deep copies of the last rounds' uplinks — a client's Uploads
//     and RoundMetas, a shard's ShardResults — resent from the ack's
//     NeedFrom (a shard's fill replies are never resent: the coordinator
//     that lost one re-queries fill when it recomputes the round);
//   - one stale-discard rule: a downlink message for a round before the
//     one the link acts in is a replay, and dies here.
//
// A client's link also carries out a Redo on its data fan.
type healLink struct {
	conn Conn
	rj   Rejoin
	noun string
	ring ring
	dial func() (Conn, error)
	fan  *shardFan
}

// rejoin redials the coordinator and splices this link back into the
// run, resending the ring from the coordinator's NeedFrom.
func (l *healLink) rejoin() error {
	conn, err := rejoinRun(l.dial, rejoinAttempts, l.rj, l.noun, l.ring.resend)
	if err != nil {
		return err
	}
	l.Close()
	l.conn = conn
	return nil
}

// Send delivers one message. A round's Upload, RoundMeta or ShardResult
// becomes the round the link acts in and is buffered in the ring,
// deep-copied where it carries payload (the caller reuses its buffers).
// On failure the link rejoins and reports success: the ring resend
// carries a lost uplink, and a lost fill reply is recomputed.
func (l *healLink) Send(msg any) error {
	round := -1
	switch v := msg.(type) {
	case Upload:
		v.Idx = append([]int(nil), v.Idx...)
		v.Val = append([]float64(nil), v.Val...)
		msg, round = v, v.Round
	case RoundMeta:
		round = v.Round
	case ShardResult:
		v.Hist = append([]int(nil), v.Hist...)
		msg, round = v, v.Round
	}
	if round >= 0 {
		l.rj.Round = round
		l.ring.push(round, msg)
	}
	if l.conn != nil {
		if err := l.conn.Send(msg); err == nil {
			return nil
		}
		l.Close()
	}
	return l.rejoin()
}

// Recv returns the next control message for the round the link acts
// in, rejoining on failure.
func (l *healLink) Recv() (any, error) {
	for {
		if l.conn == nil {
			if err := l.rejoin(); err != nil {
				return nil, err
			}
		}
		msg, err := l.conn.Recv()
		if err != nil {
			l.Close()
			continue
		}
		round, seals := -1, true
		switch v := msg.(type) {
		case Broadcast:
			round = v.Round
		case RoundRelease:
			round = v.Round
		case RoundSeal:
			round = v.Round
		case FillQuery:
			round, seals = v.Round, false
		case Redo:
			if l.fan == nil {
				return msg, nil
			}
			if err := l.fan.redo(v); err != nil {
				return nil, err
			}
			continue
		}
		if round >= 0 && round < l.rj.Round {
			continue
		}
		if seals && round == l.rj.Round {
			l.rj.LastSeal = round
		}
		return msg, nil
	}
}

// Close drops the current connection; the next Send or Recv rejoins.
func (l *healLink) Close() error {
	if l.conn == nil {
		return nil
	}
	err := l.conn.Close()
	l.conn = nil
	return err
}

// rejoinRun is the surviving peer's half of the Rejoin handshake:
// redial the coordinator, send rj, await the ack (deadline-bounded),
// and resend whatever the ack's NeedFrom asks for. Bounded attempts;
// dial-level retry lives inside dial. A coordinator running a different
// run is final, not retried.
func rejoinRun(dial func() (Conn, error), attempts int, rj Rejoin, noun string,
	resend func(conn Conn, needFrom int) error) (Conn, error) {

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		conn, err := dial()
		if err != nil {
			lastErr = err
			continue
		}
		if lastErr = conn.Send(rj); lastErr != nil {
			conn.Close()
			continue
		}
		msg, err := recvHandshake(conn)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		ack, ok := msg.(RejoinAck)
		if !ok {
			conn.Close()
			lastErr = fmt.Errorf("expected RejoinAck, got %T", msg)
			continue
		}
		if ack.RunID != rj.RunID {
			conn.Close()
			return nil, fmt.Errorf("transport: %s %d rejoined run %#x, coordinator is running %#x", noun, rj.ID, rj.RunID, ack.RunID)
		}
		if lastErr = resend(conn, ack.NeedFrom); lastErr != nil {
			conn.Close()
			continue
		}
		return conn, nil
	}
	return nil, fmt.Errorf("transport: %s %d could not rejoin the coordinator after %d attempts: %v", noun, rj.ID, attempts, lastErr)
}

// ringDepth is how many rounds of sent messages each durable link
// buffers for rejoin resends. Two is exactly what recovery can owe: a
// peer can be at most one full round behind the sender's current one.
const ringDepth = 2

// ringEntry is one round's buffered messages on one link.
type ringEntry struct {
	round int
	msgs  []any
}

// ring is the fixed-depth resend buffer.
type ring struct {
	entries []ringEntry
}

// push appends msg to round's entry, opening (and trimming) as needed.
func (r *ring) push(round int, msg any) {
	n := len(r.entries)
	if n == 0 || r.entries[n-1].round != round {
		if n == ringDepth {
			copy(r.entries, r.entries[1:])
			r.entries[n-1] = ringEntry{round: round}
		} else {
			r.entries = append(r.entries, ringEntry{round: round})
		}
		n = len(r.entries)
	}
	r.entries[n-1].msgs = append(r.entries[n-1].msgs, msg)
}

// resend replays every buffered message with round >= needFrom, oldest
// first, onto conn.
func (r *ring) resend(conn Conn, needFrom int) error {
	for _, e := range r.entries {
		if e.round < needFrom {
			continue
		}
		for _, m := range e.msgs {
			if err := conn.Send(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// oldest returns the oldest buffered round (0 when empty).
func (r *ring) oldest() int {
	if len(r.entries) == 0 {
		return 0
	}
	return r.entries[0].round
}
