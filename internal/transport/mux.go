// M:N connection multiplexing: many population members framed over one
// host connection. MuxFrame is the wire envelope — any protocol message
// tagged with a member ID — and recvMember/sendMember read and write it
// on a plain Conn. Everything else on a host link travels un-enveloped
// (handshakes, cohort assignments, broadcasts, releases, fetches).
//
// This is the scaling seam of the population tier (population.go): a
// virtual-client host opens ONE physical connection to the coordinator
// and one per shard regardless of how many thousands of members it
// simulates, so connection count scales with hosts × shards, not with
// the population. There is no demultiplexer: the round protocols fix
// the order of every host link — one frame per drawn member, ascending,
// then the host-level downlink — so each reader reads its link in that
// order, and a message out of turn fails the round by name.
package transport

import "fmt"

// MuxFrame envelopes one protocol message with the virtual-client ID
// it belongs to, so many virtual clients share one physical data link.
// Sender: a virtual host, for each drawn member's uplink (sendMember).
// Receiver: the population coordinator or shard reading that member's
// turn on the host's link (recvMember). Plane: whichever plane the
// inner message travels — the envelope is transparent to round
// ordering. Nesting a MuxFrame inside a MuxFrame is a protocol error,
// refused by sendMember and by the codec.
type MuxFrame struct {
	// VID is the virtual-client ID (a population member's global ID).
	VID int
	// Msg is the enveloped protocol message.
	Msg any
}

// recvMember reads member's message, the next on its host's link: it
// must be the member's own envelope. Another member's frame or a
// host-level message fails, naming the due member and what arrived.
func recvMember(link Conn, member int) (any, error) {
	msg, err := link.Recv()
	if err != nil {
		return nil, err
	}
	mf, ok := msg.(MuxFrame)
	switch {
	case !ok:
		return nil, fmt.Errorf("member %d's frame is due, got an un-enveloped %T", member, msg)
	case mf.VID != member:
		return nil, fmt.Errorf("member %d's frame is due, got member %d's %T", member, mf.VID, mf.Msg)
	}
	return mf.Msg, nil
}

// sendMember envelopes msg on member's stream of link.
func sendMember(link Conn, member int, msg any) error {
	if _, ok := msg.(MuxFrame); ok {
		return fmt.Errorf("transport: refusing to nest a MuxFrame inside a MuxFrame")
	}
	return link.Send(MuxFrame{VID: member, Msg: msg})
}
