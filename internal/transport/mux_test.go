package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
)

// muxPairs returns the connection flavors the mux must behave
// identically over: in-memory reference channels and the binary codec.
func muxPairs() map[string]func() (Conn, Conn) {
	return map[string]func() (Conn, Conn){
		"mem": func() (Conn, Conn) { return NewMemPair() },
		"bin": func() (Conn, Conn) {
			a, b := net.Pipe()
			return NewBinConn(a), NewBinConn(b)
		},
	}
}

// TestMuxInterleavedVirtualStreams checks the demux discipline: frames
// for different virtual IDs interleave on one physical link with
// host-level traffic, and each receiver sees only its own stream, in
// order, regardless of which receiver drives the physical read.
func TestMuxInterleavedVirtualStreams(t *testing.T) {
	for name, pair := range muxPairs() {
		t.Run(name, func(t *testing.T) {
			a, b := pair()
			ma, mb := NewMux(a), NewMux(b)
			defer ma.Close()

			go func() {
				// Interleave three virtual streams with host traffic.
				_ = ma.Virtual(7).Send(Upload{ClientID: 7, Round: 1})
				_ = ma.Send(Init{K: 3, Rounds: 1})
				_ = ma.Virtual(2).Send(Upload{ClientID: 2, Round: 1})
				_ = ma.Virtual(7).Send(Upload{ClientID: 7, Round: 2})
				_ = ma.Virtual(0).Send(Upload{ClientID: 0, Round: 1})
			}()

			// Receive out of arrival order: the stream-2 receiver must
			// park the vid-7 and host frames that arrive first.
			msg, err := mb.Virtual(2).Recv()
			if err != nil {
				t.Fatal(err)
			}
			if up := msg.(Upload); up.ClientID != 2 {
				t.Fatalf("vid 2 got client %d", up.ClientID)
			}
			for wantRound := 1; wantRound <= 2; wantRound++ {
				msg, err = mb.Virtual(7).Recv()
				if err != nil {
					t.Fatal(err)
				}
				if up := msg.(Upload); up.ClientID != 7 || up.Round != wantRound {
					t.Fatalf("vid 7 got client %d round %d, want round %d", up.ClientID, up.Round, wantRound)
				}
			}
			msg, err = mb.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if init := msg.(Init); init.K != 3 {
				t.Fatalf("host-level got %#v", msg)
			}
			msg, err = mb.Virtual(0).Recv()
			if err != nil {
				t.Fatal(err)
			}
			if up := msg.(Upload); up.ClientID != 0 {
				t.Fatalf("vid 0 got client %d", up.ClientID)
			}
			// Drained streams leave nothing behind: a population
			// coordinator or shard sees every drawn member once.
			mb.mu.Lock()
			parked := len(mb.queues)
			mb.mu.Unlock()
			if parked != 0 {
				t.Fatalf("%d virtual IDs still hold a queue entry after every stream drained", parked)
			}
		})
	}
}

// TestMuxVirtualClose checks the detach semantics: a closed virtual
// conn reports ErrClosed on send and io.EOF on receive, drops its
// parked frames, and leaves the other virtual clients running.
func TestMuxVirtualClose(t *testing.T) {
	a, b := NewMemPair()
	ma, mb := NewMux(a), NewMux(b)
	defer ma.Close()

	if err := ma.Virtual(1).Send(Upload{ClientID: 1, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ma.Virtual(2).Send(Upload{ClientID: 2, Round: 1}); err != nil {
		t.Fatal(err)
	}
	// Park vid 1's frame by receiving vid 2 first, then detach vid 1.
	if _, err := mb.Virtual(2).Recv(); err != nil {
		t.Fatal(err)
	}
	v1 := mb.Virtual(1)
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := v1.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("recv on closed virtual = %v, want io.EOF", err)
	}
	if err := mb.Virtual(1).Send(Upload{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed virtual = %v, want ErrClosed", err)
	}
	// The link itself stays up for other IDs.
	if err := ma.Virtual(2).Send(Upload{ClientID: 2, Round: 2}); err != nil {
		t.Fatal(err)
	}
	msg, err := mb.Virtual(2).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if up := msg.(Upload); up.Round != 2 {
		t.Fatalf("vid 2 after detach got %#v", msg)
	}
}

// TestMuxNestingRejected checks the protocol error for a MuxFrame
// inside a MuxFrame: refused at the virtual conn, at the binary
// encoder, and at the binary decoder (a hand-crafted hostile frame
// cannot smuggle one through).
func TestMuxNestingRejected(t *testing.T) {
	a, _ := NewMemPair()
	m := NewMux(a)
	inner := MuxFrame{VID: 1, Msg: Upload{}}
	if err := m.Virtual(2).Send(inner); err == nil || !strings.Contains(err.Error(), "nest") {
		t.Fatalf("virtual send of a MuxFrame = %v, want nesting error", err)
	}
	if err := m.Virtual(-3).Send(Upload{}); err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("negative vid send = %v, want range error", err)
	}

	// The binary codec refuses to encode a nested envelope outright.
	pa, pb := net.Pipe()
	ba, bb := NewBinConn(pa), NewBinConn(pb)
	defer ba.Close()
	defer bb.Close()
	if err := ba.Send(MuxFrame{VID: 0, Msg: inner}); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("binary encode of nested MuxFrame = %v, want nesting error", err)
	}
}

// TestMuxCodecRoundTrip pins the MuxFrame envelope in memory and on the
// binary codec: it is transparent — the inner message round-trips
// exactly as it would un-enveloped.
func TestMuxCodecRoundTrip(t *testing.T) {
	for name, pair := range muxPairs() {
		t.Run(name, func(t *testing.T) {
			a, b := pair()
			defer a.Close()
			want := MuxFrame{VID: 90001, Msg: SliceUpload{
				ClientID: 90001, Round: 3,
				Idx: []int{4, 9}, Val: []float64{1.5, -2.25}, Rank: []int{0, 7},
			}}
			go func() { _ = a.Send(want) }()
			msg, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			mf, ok := msg.(MuxFrame)
			if !ok {
				t.Fatalf("got %T", msg)
			}
			if mf.VID != want.VID {
				t.Fatalf("vid %d, want %d", mf.VID, want.VID)
			}
			up, ok := mf.Msg.(SliceUpload)
			if !ok {
				t.Fatalf("inner %T", mf.Msg)
			}
			wantUp := want.Msg.(SliceUpload)
			if up.ClientID != wantUp.ClientID || up.Round != wantUp.Round ||
				len(up.Idx) != 2 || up.Idx[1] != 9 || up.Val[1] != -2.25 || up.Rank[1] != 7 {
				t.Fatalf("lossy envelope round trip: %#v", up)
			}
		})
	}
}

// TestMuxPhysicalErrorLatches checks that a dead physical link fails
// every virtual receiver, not only the one that observed it.
func TestMuxPhysicalErrorLatches(t *testing.T) {
	a, b := NewMemPair()
	mb := NewMux(b)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Virtual(4).Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("virtual recv after close = %v, want io.EOF", err)
	}
	if _, err := mb.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("host recv after latched error = %v, want io.EOF", err)
	}
}

// scriptConn is a physical link that receives its script's messages over
// and over, pre-boxed, so reading them allocates nothing of its own.
type scriptConn struct {
	script []any
	next   int
}

func (s *scriptConn) Send(any) error { return nil }
func (s *scriptConn) Close() error   { return nil }
func (s *scriptConn) Recv() (any, error) {
	msg := s.script[s.next%len(s.script)]
	s.next++
	return msg, nil
}

// TestMuxDrainedQueuesRecycled runs a warm two-ID exchange — ID 2's frame
// arrives first and parks while ID 1's receiver drives the read, then
// both drain — and wants no allocation: a drained ID's queue goes to the
// free list and the next ID to park takes it, while a drained ID still
// keeps no map entry.
func TestMuxDrainedQueuesRecycled(t *testing.T) {
	phys := &scriptConn{script: []any{
		MuxFrame{VID: 2, Msg: Upload{ClientID: 2}},
		MuxFrame{VID: 1, Msg: Upload{ClientID: 1}},
	}}
	m := NewMux(phys)
	exchange := func() {
		for _, vid := range []int{1, 2} {
			msg, err := m.recvFor(vid)
			if err != nil {
				t.Fatal(err)
			}
			if up := msg.(Upload); up.ClientID != vid {
				t.Fatalf("vid %d got client %d's frame", vid, up.ClientID)
			}
		}
	}
	exchange()
	if n := testing.AllocsPerRun(100, exchange); n != 0 {
		t.Fatalf("warm two-ID exchange makes %v allocs, want 0", n)
	}
	if len(m.queues) != 0 {
		t.Fatalf("%d drained IDs still hold a queue entry", len(m.queues))
	}
}

// TestBinConnRecvAllocs pins a warm binConn.Recv at one allocation: the
// boxed message. The frame header and payload buffers are the conn's own.
func TestBinConnRecvAllocs(t *testing.T) {
	frame, err := appendFrame(nil, Broadcast{Round: 2, Idx: []int{3, 9, 40}, Val: []float64{0.5, -1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 128
	c := &binConn{br: bufio.NewReader(bytes.NewReader(bytes.Repeat(frame, frames)))}
	recv := func() {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	recv()
	if n := testing.AllocsPerRun(frames-2, recv); n != 1 {
		t.Fatalf("warm Recv makes %v allocs, want 1 (the boxed message)", n)
	}
}
