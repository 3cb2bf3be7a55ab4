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

// muxPairs returns the connection flavors the member envelope must
// behave identically over: in-memory reference channels and the binary
// codec.
func muxPairs() map[string]func() (Conn, Conn) {
	return map[string]func() (Conn, Conn){
		"mem": func() (Conn, Conn) { return NewMemPair() },
		"bin": func() (Conn, Conn) {
			a, b := net.Pipe()
			return NewBinConn(a), NewBinConn(b)
		},
	}
}

// memberConn is one member's stream of a host link as a test script
// drives it: sends are enveloped for the member, receives read its turn.
type memberConn struct {
	Conn
	member int
}

func (c memberConn) Send(msg any) error { return sendMember(c.Conn, c.member, msg) }
func (c memberConn) Recv() (any, error) { return recvMember(c.Conn, c.member) }

// TestMuxInterleavedVirtualStreams checks a host link read in protocol
// order: members' frames and host-level traffic interleave on it and are
// read in the order they were sent; a frame for another member, a
// host-level message where a member's frame is due, or a dead link fails
// the read, the first two naming the due member and what arrived.
func TestMuxInterleavedVirtualStreams(t *testing.T) {
	for name, pair := range muxPairs() {
		t.Run(name, func(t *testing.T) {
			a, b := pair()
			defer a.Close()
			go func() {
				_ = sendMember(a, 2, Upload{ClientID: 2, Round: 1})
				_ = sendMember(a, 7, Upload{ClientID: 7, Round: 1})
				_ = a.Send(Init{K: 3, Rounds: 1})
				_ = sendMember(a, 9, Upload{ClientID: 9, Round: 1}) // 8 is due
				_ = a.Send(Init{K: 4})                              // 8 is due
				_ = a.Close()
			}()
			for _, member := range []int{2, 7} {
				msg, err := recvMember(b, member)
				if err != nil {
					t.Fatal(err)
				}
				if up := msg.(Upload); up.ClientID != member {
					t.Fatalf("member %d got client %d's upload", member, up.ClientID)
				}
			}
			msg, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if init, ok := msg.(Init); !ok || init.K != 3 {
				t.Fatalf("host-level got %#v", msg)
			}
			for _, want := range []string{
				"member 8's frame is due, got member 9's transport.Upload",
				"member 8's frame is due, got an un-enveloped transport.Init",
			} {
				if _, err := recvMember(b, 8); err == nil || err.Error() != want {
					t.Fatalf("out-of-turn read = %v, want %q", err, want)
				}
			}
			if _, err := recvMember(b, 8); !errors.Is(err, io.EOF) {
				t.Fatalf("read on a dead link = %v, want io.EOF", err)
			}
		})
	}
}

// TestMuxPhysicalErrorLatches checks that a dead host link fails every
// later read on it: the member read that meets the closed link and the
// host-level read after it both report io.EOF.
func TestMuxPhysicalErrorLatches(t *testing.T) {
	for name, pair := range muxPairs() {
		t.Run(name, func(t *testing.T) {
			a, b := pair()
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := recvMember(b, 4); !errors.Is(err, io.EOF) {
				t.Fatalf("member recv after close = %v, want io.EOF", err)
			}
			if _, err := b.Recv(); !errors.Is(err, io.EOF) {
				t.Fatalf("host recv after latched error = %v, want io.EOF", err)
			}
		})
	}
}

// TestMuxNestingRejected checks the protocol error for a MuxFrame
// inside a MuxFrame: refused by sendMember, at the binary
// encoder, and at the binary decoder (a hand-crafted hostile frame
// cannot smuggle one through).
func TestMuxNestingRejected(t *testing.T) {
	a, _ := NewMemPair()
	inner := MuxFrame{VID: 1, Msg: Upload{}}
	if err := sendMember(a, 2, inner); err == nil || !strings.Contains(err.Error(), "nest") {
		t.Fatalf("member send of a MuxFrame = %v, want nesting error", err)
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

// TestMuxFrameEnvelopeAllocs pins the member envelope's warm path over a
// scripted link: recvMember unwraps a pre-boxed frame with no allocation,
// and sendMember makes one, the envelope boxed for Conn.Send.
func TestMuxFrameEnvelopeAllocs(t *testing.T) {
	link := &scriptConn{script: []any{
		MuxFrame{VID: 1, Msg: Upload{ClientID: 1}},
		MuxFrame{VID: 2, Msg: Upload{ClientID: 2}},
	}}
	var up any = Upload{ClientID: 1}
	recv := func() {
		for _, member := range []int{1, 2} {
			msg, err := recvMember(link, member)
			if err != nil {
				t.Fatal(err)
			}
			if got := msg.(Upload); got.ClientID != member {
				t.Fatalf("member %d got client %d's frame", member, got.ClientID)
			}
		}
	}
	send := func() {
		if err := sendMember(link, 1, up); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		f    func()
		want float64
	}{{"recvMember", recv, 0}, {"sendMember", send, 1}} {
		tc.f()
		if n := testing.AllocsPerRun(100, tc.f); n != tc.want {
			t.Errorf("warm %s makes %v allocs, want %v", tc.name, n, tc.want)
		}
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
