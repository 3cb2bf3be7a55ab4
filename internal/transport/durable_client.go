// The durable client: RunClient with rejoin-based recovery on every
// link. The round loops are the plain client's (runClient) — durability
// is a property of the links they run over, nothing else. Each link
// keeps a small ring of the last two rounds' sent messages (deep copies
// — the protocol buffers are reused); on any failure the client
// redials, re-identifies with a Rejoin, and resends the ring from the
// coordinator's NeedFrom. Receivers discard stale resends, so the
// conservative replay is always safe.
package transport

import "fmt"

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

// DurableClientConfig parameterizes RunDurableClient's recovery.
type DurableClientConfig struct {
	// Redial re-establishes the coordinator control connection (e.g. a
	// DialRetry closure). Required.
	Redial func() (Conn, error)
	// RedialShard re-establishes one shard data connection by ingest
	// address (direct mode). Defaults to Redial's transport via Dial
	// when nil — tests inject in-memory hubs here.
	RedialShard func(addr string) (Conn, error)
	// RejoinAttempts bounds each rejoin loop (default 10).
	RejoinAttempts int
}

func (d DurableClientConfig) attempts() int {
	if d.RejoinAttempts > 0 {
		return d.RejoinAttempts
	}
	return 10
}

// coordLink is the durable control-plane connection to the
// coordinator — a Conn that heals itself, so the client's round loops
// run over it exactly as over a plain connection.
type coordLink struct {
	conn     Conn
	id       int
	runID    uint64
	round    int // round currently acted in (Rejoin.Round)
	lastSeal int // last round whose broadcast/release was received
	ring     ring
	dur      DurableClientConfig
	fan      *shardFan // direct mode: the data links a Redo re-points
}

// rejoin redials the coordinator and splices this link back into the
// run, resending the ring from the coordinator's NeedFrom.
func (l *coordLink) rejoin() error {
	rj := Rejoin{RunID: l.runID, Kind: RejoinClient, ID: l.id, Round: l.round, LastSeal: l.lastSeal}
	conn, err := rejoinRun(l.dur.Redial, l.dur.attempts(), rj, "client", l.ring.resend)
	if err != nil {
		return err
	}
	l.Close()
	l.conn = conn
	return nil
}

// rejoinRun is the surviving peer's half of the Rejoin handshake
// (rejoin.go): redial the coordinator, send rj, await the ack
// (deadline-bounded), and resend whatever the ack's NeedFrom asks for.
// Bounded attempts; dial-level retry lives inside dial. A coordinator
// running a different run is final, not retried.
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

// Send buffers the round's uplink message (an Upload or a RoundMeta —
// its round becomes the one the link acts in) in the ring and delivers
// it; on failure the link rejoins (the ring resend carries the
// delivery) and reports success. An Upload is deep-copied first: the
// caller's pair buffers are reused next round, the ring's must not be.
func (l *coordLink) Send(msg any) error {
	switch v := msg.(type) {
	case Upload:
		l.round = v.Round
		v.Idx = append([]int(nil), v.Idx...)
		v.Val = append([]float64(nil), v.Val...)
		msg = v
	case RoundMeta:
		l.round = v.Round
	}
	l.ring.push(l.round, msg)
	if l.conn != nil {
		if err := l.conn.Send(msg); err == nil {
			return nil
		}
		l.Close()
	}
	return l.rejoin()
}

// Recv returns the next control message for the round in progress,
// rejoining on failure. Stale resends of a downlink the client already
// holds are discarded, the round's own Broadcast or RoundRelease
// advances lastSeal, and a Redo (a shard restarted empty) is carried
// out on the data links before the wait continues.
func (l *coordLink) Recv() (any, error) {
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
		round := -1
		switch v := msg.(type) {
		case Broadcast:
			round = v.Round
		case RoundRelease:
			round = v.Round
		case Redo:
			if l.fan == nil {
				return msg, nil
			}
			if err := l.fan.redo(v); err != nil {
				return nil, err
			}
			continue
		}
		if round >= 0 && round < l.round {
			continue
		}
		if round == l.round {
			l.lastSeal = round
		}
		return msg, nil
	}
}

// Close drops the current connection; the next Send or Recv rejoins.
func (l *coordLink) Close() error {
	if l.conn == nil {
		return nil
	}
	err := l.conn.Close()
	l.conn = nil
	return err
}

// RunDurableClient is RunClient with rejoin-based recovery: the
// initial Hello/Init handshake is plain (a client that cannot even
// enroll fails loudly), and every later exchange survives coordinator
// restarts, shard restarts (via the coordinator's Redo flow), and
// dropped connections. Requires a durable coordinator (the Init must
// carry its RunID) and, in direct mode, durable shards (plain shards
// cannot accept a reconnect).
func RunDurableClient(conn Conn, cfg ClientConfig, dur DurableClientConfig) error {
	if dur.Redial == nil {
		return fmt.Errorf("transport: client %d: durable client needs a Redial hook", cfg.ID)
	}
	init, err := clientHandshake(conn, cfg)
	if err != nil {
		return err
	}
	if init.RunID == 0 {
		return fmt.Errorf("transport: client %d: coordinator is not durable (Init carries no RunID)", cfg.ID)
	}
	link := &coordLink{conn: conn, id: cfg.ID, runID: init.RunID, dur: dur}
	return runClient(link, cfg, init, link)
}
