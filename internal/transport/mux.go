// M:N connection multiplexing: many virtual clients framed over one
// physical connection. MuxFrame is the wire envelope — any protocol
// message tagged with a virtual-client ID — and Mux is the demux class
// both endpoints wrap a shared physical Conn with: Virtual(vid) yields
// a Conn whose sends are enveloped and whose receives see only that
// ID's frames, while the Mux itself carries the un-enveloped host-level
// traffic (handshakes, cohort assignments, broadcasts, releases).
//
// This is the scaling seam of the population tier (population.go): a
// virtual-client host opens ONE physical connection to the coordinator
// and one per shard regardless of how many thousands of members it
// simulates, so connection count scales with hosts × shards, not with
// the population. The demux holds no goroutines and no unbounded
// buffers of its own: whichever caller Recvs first drives the physical
// read loop, frames for other virtual IDs are parked in per-ID queues,
// and the round protocols' lockstep ordering keeps those queues at
// most one round deep.
package transport

import (
	"fmt"
	"io"
	"sync"
)

// MuxFrame envelopes one protocol message with the virtual-client ID
// it belongs to, so many virtual clients share one physical data link.
// Sender: a virtual host's per-member Conn (uplink) or a population
// server addressing one member (downlink). Receiver: the Mux on the
// other end, which routes the inner message to Virtual(VID). Plane:
// whichever plane the inner message travels — the envelope is
// transparent to round ordering. Nesting a MuxFrame inside a MuxFrame
// is a protocol error, refused by the Mux and by the codec.
type MuxFrame struct {
	// VID is the virtual-client ID (a population member's global ID).
	VID int
	// Msg is the enveloped protocol message.
	Msg any
}

// Mux demultiplexes one physical Conn into per-virtual-client Conns
// plus a host-level channel (the Mux itself implements Conn for the
// un-enveloped messages). All methods are safe for concurrent use; the
// receive path is goroutine-free — the first blocked receiver drives
// the physical Recv and parks frames addressed to other IDs.
//
// Close closes the physical connection (and fails every parked and
// future receive); closing a Virtual conn only detaches that ID.
type Mux struct {
	phys Conn

	mu      sync.Mutex
	cond    *sync.Cond
	reading bool          // a receiver is blocked in phys.Recv
	queues  map[int][]any // parked frames per virtual ID
	free    [][]any       // drained queues' backing arrays, for the next IDs to park
	hostQ   []any         // parked host-level (non-enveloped) messages
	err     error         // latched physical receive error
	vclosed map[int]bool  // locally closed virtual IDs
}

// NewMux wraps a physical connection for M:N virtual-client traffic.
func NewMux(phys Conn) *Mux {
	m := &Mux{phys: phys, queues: make(map[int][]any), vclosed: make(map[int]bool)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Virtual returns the Conn of one virtual client. IDs must be
// non-negative (the codec encodes them as u32). Calling Virtual twice
// with the same ID yields conns sharing the same inbound queue.
func (m *Mux) Virtual(vid int) Conn { return &virtualConn{m: m, vid: vid} }

// Send transmits a host-level message un-enveloped on the physical
// connection.
func (m *Mux) Send(msg any) error { return m.phys.Send(msg) }

// Recv returns the next host-level (non-enveloped) message.
func (m *Mux) Recv() (any, error) { return m.recvFor(-1) }

// Close closes the physical connection.
func (m *Mux) Close() error { return m.phys.Close() }

// recvFor returns the next message for the given virtual ID (-1 =
// host-level). One receiver at a time drives the physical read;
// everyone else waits on the condition variable until a frame for
// their ID is parked or the link dies.
func (m *Mux) recvFor(vid int) (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if vid >= 0 && m.vclosed[vid] {
			return nil, io.EOF
		}
		if vid < 0 {
			if len(m.hostQ) > 0 {
				msg := m.hostQ[0]
				m.hostQ = m.hostQ[1:]
				return msg, nil
			}
		} else if q := m.queues[vid]; len(q) > 0 {
			msg := q[0]
			if len(q) == 1 {
				delete(m.queues, vid) // a drained ID keeps no entry
				q[0] = nil
				if len(m.free) < muxFreeQueues {
					m.free = append(m.free, q[:0])
				}
			} else {
				m.queues[vid] = q[1:]
			}
			return msg, nil
		}
		if m.err != nil {
			return nil, m.err
		}
		if m.reading {
			m.cond.Wait()
			continue
		}
		m.reading = true
		m.mu.Unlock()
		msg, err := m.phys.Recv()
		m.mu.Lock()
		m.reading = false
		if err != nil {
			m.err = err
		} else if mf, ok := msg.(MuxFrame); ok {
			if mf.VID < 0 {
				m.err = fmt.Errorf("transport: mux: negative virtual ID %d on the wire", mf.VID)
			} else {
				m.park(mf.VID, mf.Msg)
			}
		} else {
			m.hostQ = append(m.hostQ, msg)
		}
		m.cond.Broadcast()
	}
}

// muxFreeQueues bounds the Mux's free list of drained queues: a host's
// members park at most one round's frames each, and a round draws a
// cohort of tens of members per host.
const muxFreeQueues = 64

// park queues msg for virtual ID vid. An ID without a queue takes a
// drained one's backing array off the free list, so a member's next
// frame allocates nothing once the link is warm. Called with m.mu held.
func (m *Mux) park(vid int, msg any) {
	q, ok := m.queues[vid]
	if !ok && len(m.free) > 0 {
		q = m.free[len(m.free)-1]
		m.free[len(m.free)-1] = nil
		m.free = m.free[:len(m.free)-1]
	}
	m.queues[vid] = append(q, msg)
}

// virtualConn is one virtual client's view of the shared link.
type virtualConn struct {
	m   *Mux
	vid int
}

func (v *virtualConn) Send(msg any) error { return v.m.sendFor(v.vid, msg) }

// sendFor envelopes msg on virtual ID vid's stream.
func (m *Mux) sendFor(vid int, msg any) error {
	if vid < 0 {
		return fmt.Errorf("transport: mux: virtual IDs must be non-negative, got %d", vid)
	}
	m.mu.Lock()
	closed := m.vclosed[vid]
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if _, ok := msg.(MuxFrame); ok {
		return fmt.Errorf("transport: mux: refusing to nest a MuxFrame inside a MuxFrame")
	}
	return m.phys.Send(MuxFrame{VID: vid, Msg: msg})
}

func (v *virtualConn) Recv() (any, error) { return v.m.recvFor(v.vid) }

// Close detaches the virtual client: its later Sends report ErrClosed
// and Recvs io.EOF. The physical connection stays open for the other
// virtual clients; parked frames for this ID are dropped.
func (v *virtualConn) Close() error {
	v.m.mu.Lock()
	v.m.vclosed[v.vid] = true
	delete(v.m.queues, v.vid)
	v.m.mu.Unlock()
	v.m.cond.Broadcast()
	return nil
}
