// The durable client: RunClient with a Redial — the same round loop
// (runClientRounds) with rejoin-based recovery on every link, so
// durability is a property of the links it runs over, nothing else. The
// control link is the healLink (rejoin.go) a durable shard uses too; the
// data fan below keeps a ring of the last two rounds' sent slices per
// shard link (deep copies — the protocol buffers are reused), reconnects
// through ClientConfig.DialShard on a send failure, and carries out the
// coordinator's Redo for a shard that restarted empty. On any failure
// the client redials, re-identifies, and resends its rings from the
// coordinator's NeedFrom; receivers discard stale resends, so the
// conservative replay is always safe.
package transport

import "fmt"

// rejoinAttempts bounds every durable peer's rejoin and reconnect loop:
// a client's or a shard's healLink to the coordinator, and a durable
// client's links to the shards. Dial-level retry lives inside the dial
// hooks (DialRetry).
const rejoinAttempts = 10

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
	for a := 0; a < rejoinAttempts; a++ {
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
		f.who, f.id, s, f.addrs[s], rejoinAttempts, lastErr)
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
