// Round-event publication for the transport coordinators: the routed
// and direct RunServerPeers loops and the durable server all record
// one fl.RoundEvent per round — RunServerPeers returns them, and
// ServerConfig.Observer receives each synchronously at its round
// boundary. The transport cannot see the engine-side quantities the
// in-process simulator reports (normalized time, test accuracy), so
// those fields stay at their not-evaluated values; what it adds is the
// operational side — wire bytes per round from the binary codec's
// counters and per-shard reduce wait times.
package transport

import (
	"math"

	"fedsparse/internal/fl"
)

// byteMeter samples cumulative ByteCounter totals across the
// coordinator's connection groups and yields per-round deltas. The
// groups are live slices — a durable coordinator swaps connections in
// place on rejoin, so a sample can observe a *smaller* total than the
// previous one (a counted connection was replaced); deltas clamp at
// zero rather than underflow.
type byteMeter struct {
	groups             [][]Conn
	lastSent, lastRecv uint64
}

// delta returns the bytes received from and sent to the metered peers
// since the previous call (server-side: received = uplink, sent =
// downlink) and advances the baseline.
func (bm *byteMeter) delta() (recv, sent uint64) {
	var s, r uint64
	for _, g := range bm.groups {
		for _, conn := range g {
			if bc, ok := conn.(ByteCounter); ok {
				s += bc.BytesSent()
				r += bc.BytesReceived()
			}
		}
	}
	recv, sent = max(r, bm.lastRecv)-bm.lastRecv, max(s, bm.lastSent)-bm.lastSent
	bm.lastSent, bm.lastRecv = s, r
	return recv, sent
}

// roundEvent is the coordinator's view of the round dec decided (its K
// clamped to the model, as fl.Run's), finished at loss with elems
// downlink coordinates among participants uploaders: the engine's
// RoundEvent for it, with the engine-only metrics (normalized time,
// evaluations) at their not-evaluated values. The window depth is the
// engine's realized overlap — W until the pipeline drains. The caller
// adds what it measured: wire bytes, reduce waits, the cohort draw, WAL
// appends.
func (c *coordRun) roundEvent(dec fl.Decision, loss float64, elems, participants int) fl.RoundEvent {
	return fl.RoundEvent{
		Round:         dec.Round,
		K:             dec.K,
		KCont:         dec.KCont,
		Loss:          loss,
		DownlinkElems: elems,
		Participants:  participants,
		// A fixed roster draws no cohort: every connected client is
		// drawable and participates. A drawn roster overwrites both.
		Population:  participants,
		CohortSize:  participants,
		WindowDepth: min(dec.Round+c.cfg.Staleness, c.cfg.Rounds) - dec.Round,
		TestAcc:     math.NaN(),
		TestLoss:    math.NaN(),
		TrainLoss:   math.NaN(),
	}
}
