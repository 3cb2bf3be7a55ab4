// The durable client: RunClient's round loop (runClientRounds) with
// rejoin-based recovery on every link — durability is a property of the
// links it runs over, nothing else. The control link is the healLink
// (rejoin.go) a durable shard uses too; the data fan keeps a ring of
// the last two rounds' sent slices per shard link (deep copies — the
// protocol buffers are reused), reconnects on a send failure, and
// carries out the coordinator's Redo for a shard that restarted empty.
// On any failure the client redials, re-identifies, and resends its
// rings from the coordinator's NeedFrom; receivers discard stale
// resends, so the conservative replay is always safe.
package transport

import "fmt"

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
	if dur.RedialShard != nil {
		cfg.DialShard = dur.RedialShard
	}
	p := asParticipant(cfg)
	init, err := clientHandshake(conn, p)
	if err != nil {
		return err
	}
	if init.RunID == 0 {
		return fmt.Errorf("transport: client %d: coordinator is not durable (Init carries no RunID)", cfg.ID)
	}
	link := &healLink{conn: conn, rj: Rejoin{RunID: init.RunID, Kind: RejoinClient, ID: cfg.ID},
		noun: "client", dial: dur.Redial, attempts: dur.attempts()}
	return runClient(link, p, init, link)
}

// makeDurable arms the fan's links for recovery: each keeps a ring of
// the last two rounds' sent slices, and a link may be nil — broken,
// re-established on the next reconnect (self-initiated after a send
// failure or before a fetch, or coordinator-ordered through Redo).
func (f *shardFan) makeDurable(attempts int) {
	f.rings = make([]ring, len(f.conns))
	f.attempts = attempts
}

// reconnect re-establishes the link to shard s: dial (bounded
// attempts), re-handshake, and resend the buffered slices from needFrom
// on — the shard discards rounds it already consumed, so the
// conservative replay is safe.
func (f *shardFan) reconnect(s, needFrom int) error {
	if f.conns[s] != nil {
		f.conns[s].Close()
		f.conns[s] = nil
	}
	var lastErr error
	for a := 0; a < f.attempts; a++ {
		if lastErr = f.connect(s); lastErr != nil {
			continue
		}
		if lastErr = f.rings[s].resend(f.conns[s], needFrom); lastErr != nil {
			f.conns[s].Close()
			f.conns[s] = nil
			continue
		}
		return nil
	}
	return fmt.Errorf("transport: %s %d could not reconnect to shard %d (%s) after %d attempts: %v",
		f.who, f.id, s, f.addrs[s], f.attempts, lastErr)
}

// sendHealing buffers one round-m slice — deep-copied: the caller's
// split buffers are reused next round, the ring's must not be — and
// delivers it best-effort: a send failure triggers one reconnect cycle
// (resending from the oldest buffered round — stale rounds die at the
// shard); if that fails too the link is left broken for the
// coordinator's Redo flow, or the next fetch, to repair. The round
// still progresses — the barrier the slice feeds is owed by whatever
// shard ends up owning the range.
func (f *shardFan) sendHealing(s, m int, up SliceUpload) {
	up.Idx = append([]int(nil), up.Idx...)
	up.Val = append([]float64(nil), up.Val...)
	up.Rank = append([]int(nil), up.Rank...)
	var msg any = up
	f.rings[s].push(m, msg)
	if f.conns[s] != nil {
		if err := f.conns[s].Send(msg); err == nil {
			return
		}
	}
	_ = f.reconnect(s, f.rings[s].oldest())
}

// redo carries out the coordinator's Redo: a shard restarted with no
// state — adopt its new ingest address, reconnect, and resend the
// slices it lost. The fetch phase itself is not recovered: a shard
// death between its seal and a client's fetch errors the run
// (documented scope limit).
func (f *shardFan) redo(v Redo) error {
	if v.ShardID < 0 || v.ShardID >= len(f.conns) {
		return fmt.Errorf("transport: %s %d: redo for shard %d of %d", f.who, f.id, v.ShardID, len(f.conns))
	}
	f.addrs[v.ShardID] = v.Addr
	return f.reconnect(v.ShardID, v.Round)
}
