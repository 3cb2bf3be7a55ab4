// Package transport runs the paper's client↔server protocol over a real
// wire. The simulation engine (internal/fl) models communication time;
// this package demonstrates that the same protocol — Hello/Init handshake,
// per-round sparse uploads A_i, and aggregated broadcast B (Algorithm 1
// lines 6 and 11) — operates as an actual message exchange, over either
// in-memory pipes or TCP.
//
// A participant enrolls as its roster: the Hello to the coordinator and
// the DataHello to each shard name the client IDs it speaks for — a
// client the roster of its own ID, a virtual host its population
// members — so every tier reads one hello per plane (seatHellos,
// seatData).
//
// TCP connections carry the length-prefixed binary codec of codec.go,
// with gradient values traveling as packed b-bit integers when
// ServerConfig.QuantBits is set — the paper's quantization lever
// realized as actual bytes saved on the wire, not just a modeled cost.
//
// The distributed runner mirrors the reference engine's arithmetic and
// RNG-consumption order exactly, so for the same seeds a distributed run
// produces a bit-identical training trajectory (verified in tests).
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// Message types of the protocol.
type (
	// Hello is a participant's handshake: its identity, its roster of
	// client IDs (strictly ascending) and their aggregation weights C_i,
	// in parallel. Participant → coordinator, control plane, the first
	// message on its connection. A client's roster is exactly
	// [ClientID]; a virtual host's is its population members, with
	// ClientID the host's own ID — one Hello per roster, not per member.
	Hello struct {
		ClientID int
		Members  []int
		Weights  []float64
	}
	// Init is the server's reply: the synchronized initial weights and
	// the run parameters every client must use. Coordinator → every
	// client (or virtual host), control plane, sent once after all
	// expected peers enrolled and before round 1. A non-empty Shards
	// directory switches the client onto the direct data plane: entry s
	// is the ingest address of aggregation shard s, the client dials
	// every shard itself, uploads range slices straight to the owners,
	// and pulls its broadcast slices back from them (see direct.go).
	// Empty keeps the routed plane (uploads to and broadcasts from the
	// coordinator). QuantBits > 0 tells every client to quantize its
	// uploads to that width (and announces that broadcasts arrive
	// quantized) — the run-wide knob behind the per-message Bits/Scale
	// headers below.
	Init struct {
		Params    []float64
		K         int
		Rounds    int
		QuantBits int
		// RunID identifies the run for the durable control plane: a
		// client that later rejoins a restarted coordinator presents it
		// so a stale peer from a different run fails loudly. 0 for
		// non-durable runs.
		RunID  uint64
		Shards []string
		// Window is the run's bounded-staleness window W (0 =
		// synchronous), mirroring fl.Config.Staleness the way QuantBits
		// mirrors its engine knob: the coordinator announces it here and
		// in ShardAssign, and the client runs its one round loop W
		// rounds deep (upload round m, then receive and apply the
		// broadcast of round m−W).
		Window int
	}
	// Upload is A_i: one client's top-k accumulated-gradient pairs for a
	// round, plus its minibatch loss (the server's global-loss input).
	// Client → coordinator, routed data plane, one per participating
	// client per round, strictly alternating with Broadcast on each
	// connection (in the population tier it travels MuxFrame-enveloped,
	// one per DRAWN member, in ascending member order per host).
	// With quantization on, Val lies on the b-bit grid described by
	// Bits and Scale (the client's per-upload max |value|), which is
	// what lets the binary codec pack the values as b-bit integers on
	// the wire; Bits 0 means full precision.
	Upload struct {
		ClientID  int
		Round     int
		Idx       []int
		Val       []float64
		BatchLoss float64
		Bits      int
		Scale     float64
	}
	// Broadcast is B: the aggregated sparse gradient for a round. Bits
	// and Scale describe the quantization grid of Val exactly as in
	// Upload (Scale here is the aggregate's max |value|). Coordinator →
	// every client, routed data plane, one per round after the round's
	// aggregation (in the population tier: one PLAIN broadcast per
	// host — never per member — which is what keeps downlink bytes
	// flat as the population grows).
	Broadcast struct {
		Round int
		Idx   []int
		Val   []float64
		Bits  int
		Scale float64

		frame []byte // the sender's one encoding (encodeFrame, codec.go)
	}
)

// Conn is a bidirectional, typed, ordered message pipe.
type Conn interface {
	// Send transmits one protocol message.
	Send(msg any) error
	// Recv blocks for the next message; io.EOF after Close of the peer.
	Recv() (any, error)
	// Close releases the connection; safe to call twice.
	Close() error
}

// closeConns closes every connection of conns (nil entries are none).
func closeConns(conns []Conn) {
	for _, c := range conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// ErrClosed is returned by Send on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// memConn is one endpoint of an in-memory pair. Close on either endpoint
// tears the whole connection down, matching net.Conn semantics — as does
// SetReadDeadline, so the handshake deadline paths behave identically
// over memory and TCP.
type memConn struct {
	in  <-chan any
	out chan<- any

	done      chan struct{} // shared by both endpoints
	closeOnce *sync.Once    // shared by both endpoints

	dlMu      sync.Mutex
	rDeadline time.Time
}

// NewMemPair returns two connected in-memory endpoints.
func NewMemPair() (Conn, Conn) {
	ab := make(chan any, 16)
	ba := make(chan any, 16)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &memConn{in: ba, out: ab, done: done, closeOnce: once}
	b := &memConn{in: ab, out: ba, done: done, closeOnce: once}
	return a, b
}

func (c *memConn) Send(msg any) error {
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	select {
	case c.out <- msg:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

func (c *memConn) Recv() (any, error) {
	c.dlMu.Lock()
	deadline := c.rDeadline
	c.dlMu.Unlock()
	var timeoutCh <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case msg := <-c.in:
		return msg, nil
	case <-timeoutCh:
		return nil, fmt.Errorf("transport: recv: %w", os.ErrDeadlineExceeded)
	case <-c.done:
		// Drain anything already queued before reporting EOF.
		select {
		case msg := <-c.in:
			return msg, nil
		default:
			return nil, io.EOF
		}
	}
}

// SetReadDeadline bounds Recv like a socket deadline: a Recv that is
// entered while t is set and not yet reached fails once t passes. The
// zero time clears it.
func (c *memConn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.rDeadline = t
	c.dlMu.Unlock()
	return nil
}

func (c *memConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

// closedConnErr reports whether err is how a net.Conn surfaces writes or
// reads on a locally or remotely closed connection. Besides the local
// forms (net.ErrClosed, io.ErrClosedPipe), a peer that hard-closed the
// connection surfaces as ECONNRESET on reads and ECONNRESET or EPIPE on
// writes — the remote analogues of the same condition, mapped to the
// same memConn-symmetric sentinels (io.EOF from Recv, ErrClosed from
// Send) instead of leaking platform errno wrappers to the protocol.
// An expired read/write deadline (os.ErrDeadlineExceeded) maps the
// same way: the handshake paths bound their reads with deadlines, and
// a peer that went silent is handled exactly like a peer that vanished
// — the connection is abandoned, not retried on a poisoned stream.
func closedConnErr(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, os.ErrDeadlineExceeded)
}

// Dial connects to a coordinator's TCP listener and returns a Conn
// using the binary frame codec. The caller's first message identifies
// its role: a client sends Hello (RunClient does this), a shard sends
// ShardHello (DialDirectShard does both steps).
func Dial(addr string) (Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewBinConn(conn), nil
}

// DialDirectShard connects to a coordinator and identifies the
// connection as an aggregation shard — the counterpart AcceptPeer
// classifies on the coordinator side. ingestAddr is the shard's own
// client-facing listener address, advertised to the coordinator (and
// from there, via the Init directory, to every client).
func DialDirectShard(coordAddr, ingestAddr string) (Conn, error) {
	conn, err := Dial(coordAddr)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(ShardHello{Addr: ingestAddr}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: shard hello: %w", err)
	}
	return conn, nil
}

// Listener accepts binary-framed Conns on a TCP address — the
// coordinator side of a multi-process deployment. Its one accept
// goroutine hands each connection to exactly one taker (Accept, or
// AcceptPeers and AcceptDataPeers while they collect), so no connection
// goes to a reader that already returned.
type Listener struct {
	ln    net.Listener
	conns chan Conn     // accepted, not yet taken
	dead  chan struct{} // closed when the accept goroutine exits, with err
	err   error
	quit  chan struct{} // closed by Close
	once  sync.Once
}

// Listen starts a TCP listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	l := &Listener{ln: ln, conns: make(chan Conn), dead: make(chan struct{}), quit: make(chan struct{})}
	go func() {
		defer close(l.dead)
		for {
			conn, err := ln.Accept()
			if err != nil {
				l.err = fmt.Errorf("transport: accept: %w", err)
				return
			}
			select {
			case l.conns <- NewBinConn(conn):
			case <-l.quit:
				conn.Close()
				l.err = fmt.Errorf("transport: accept: %w", net.ErrClosed)
				return
			}
		}
	}()
	return l, nil
}

// Addr returns the bound address (useful with port 0).
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Accept blocks for the next incoming connection.
func (l *Listener) Accept() (Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.dead:
		return nil, l.err
	}
}

// Close stops the listener and its accept goroutine (established Conns
// stay open).
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.quit) })
	err := l.ln.Close()
	<-l.dead
	return err
}

// readDeadliner is the optional Conn facet that bounds blocking reads.
// Both built-in conns implement it (memConn with a timer, binConn by
// delegating to the socket); wrappers that do not are simply never
// deadline-bounded.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// recvDeadline performs one Recv bounded by d when the conn supports
// read deadlines (and unbounded otherwise). The deadline is cleared
// again before returning, so it never leaks into later reads. An
// expired deadline surfaces through closedConnErr like any other
// dead-peer condition: the handshake paths that use this treat a
// silent peer and a vanished peer identically.
func recvDeadline(c Conn, d time.Duration) (any, error) {
	rd, ok := c.(readDeadliner)
	if !ok || d <= 0 {
		return c.Recv()
	}
	if err := rd.SetReadDeadline(time.Now().Add(d)); err != nil {
		return c.Recv()
	}
	msg, err := c.Recv()
	rd.SetReadDeadline(time.Time{})
	return msg, err
}
