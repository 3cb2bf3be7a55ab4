package transport

// Tests for the carried frame of the fan-out downlinks (Broadcast,
// SliceBroadcast): the sender's one encoding must be byte for byte what
// the codec writes for the message, it must be written only for the
// round and the message it was made for, and no Recv ever hands one
// back.

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"

	"fedsparse/internal/sparse"
)

// loopConn is a net.Conn whose Reads return what its Writes appended: a
// binConn over it hands back every frame it sends, and buf holds the
// bytes a Send wrote.
type loopConn struct {
	net.Conn // nil: a binConn calls only Read, Write and Close
	buf      bytes.Buffer
}

func (c *loopConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *loopConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *loopConn) Close() error                { return nil }

// fanoutRow is one fan-out message without a frame. raw marks a
// quantized payload off its grid, which the codec sends as raw floats.
type fanoutRow struct {
	name string
	msg  any
	raw  bool
}

// fanoutRows is the differential table: Broadcast and SliceBroadcast at
// q ∈ {0, 8}, with a −0 on the 8-bit grid (the top code) and a payload
// that falls back to raw encoding.
func fanoutRows() []fanoutRow {
	qb := []float64{-0.75, 0.0625, 1.5}
	qbscale := sparse.QuantizeInPlace(qb, 8)
	nz := []float64{1, -1e-9, 0.5}
	nzscale := sparse.QuantizeInPlace(nz, 8)
	off := []float64{0.3, -0.7001}
	return []fanoutRow{
		{"Broadcast/q0", Broadcast{Round: 3, Idx: []int{0, 4, 7}, Val: []float64{-1, 0.5, 2}}, false},
		{"Broadcast/q8", Broadcast{Round: 4, Idx: []int{2, 5, 6}, Val: qb, Bits: 8, Scale: qbscale}, false},
		{"Broadcast/q8_negzero", Broadcast{Round: 6, Idx: []int{1, 2, 3}, Val: nz, Bits: 8, Scale: nzscale}, false},
		{"Broadcast/q8_offgrid", Broadcast{Round: 5, Idx: []int{0, 9}, Val: off, Bits: 8, Scale: 1}, true},
		{"SliceBroadcast/q0", SliceBroadcast{Round: 2, ShardID: 0, Idx: []int{3, 5}, Val: []float64{0.5, -0.75}}, false},
		{"SliceBroadcast/q8", SliceBroadcast{Round: 3, ShardID: 1, Idx: []int{7, 8, 12}, Val: qb, Bits: 8, Scale: qbscale}, false},
		{"SliceBroadcast/q8_negzero", SliceBroadcast{Round: 6, ShardID: 1, Idx: []int{1, 2, 3}, Val: nz, Bits: 8, Scale: nzscale}, false},
		{"SliceBroadcast/q8_offgrid", SliceBroadcast{Round: 5, ShardID: 1, Idx: []int{0, 9}, Val: off, Bits: 8, Scale: 1}, true},
	}
}

// carry is the sender's encode of a fan-out message into buf: the
// message carrying its frame, and the buffer to reuse.
func carry(msg any, buf []byte) (any, []byte) {
	switch m := msg.(type) {
	case Broadcast:
		buf = m.encodeFrame(buf)
		return m, buf
	case SliceBroadcast:
		buf = m.encodeFrame(buf)
		return m, buf
	}
	panic("carry: not a fan-out message")
}

// edit returns a copy of a fan-out message with f applied to its value
// list and its frame.
func edit(msg any, f func(val *[]float64, frame *[]byte)) any {
	switch m := msg.(type) {
	case Broadcast:
		f(&m.Val, &m.frame)
		return m
	case SliceBroadcast:
		f(&m.Val, &m.frame)
		return m
	}
	panic("edit: not a fan-out message")
}

// frameOf returns the frame a fan-out message carries.
func frameOf(msg any) (frame []byte) {
	edit(msg, func(_ *[]float64, f *[]byte) { frame = *f })
	return frame
}

// withFrame returns a fan-out message carrying frame.
func withFrame(msg any, frame []byte) any {
	return edit(msg, func(_ *[]float64, f *[]byte) { *f = frame })
}

// sent returns the bytes one Send of msg writes on a binConn.
func sent(t *testing.T, msg any) []byte {
	t.Helper()
	lc := &loopConn{}
	if err := NewBinConn(lc).Send(msg); err != nil {
		t.Fatal(err)
	}
	return lc.buf.Bytes()
}

// goldenFor returns the committed frame of the fixture equal to msg, or
// nil when codecFixtures has none.
func goldenFor(t *testing.T, msg any) []byte {
	t.Helper()
	for i, fx := range codecFixtures() {
		if bitEqual(fx, msg) {
			golden, err := os.ReadFile(filepath.Join(goldenDir, goldenName(i, fx)))
			if err != nil {
				t.Fatal(err)
			}
			return golden
		}
	}
	return nil
}

// TestCarriedFrameMatchesEncoder is the differential: for every row,
// the frame the sender carries, and the bytes binConn.Send and
// sendMember write with it, equal appendFrame of the same message
// without one — and the committed golden frame where there is one. A
// Send with the frame writes the carried bytes and does not encode
// again: the same message with other values still writes them.
func TestCarriedFrameMatchesEncoder(t *testing.T) {
	goldens := 0
	var buf []byte // the sender's buffer, reused row after row
	for _, row := range fanoutRows() {
		t.Run(row.name, func(t *testing.T) {
			want, err := appendFrame(nil, row.msg)
			if err != nil {
				t.Fatal(err)
			}
			if golden := goldenFor(t, row.msg); golden != nil {
				goldens++
				if !bytes.Equal(want, golden) {
					t.Fatalf("encoding moved:\ngot    %x\ngolden %x", want, golden)
				}
			}
			var n int
			edit(row.msg, func(v *[]float64, _ *[]byte) { n = len(*v) })
			if row.raw && want[len(want)-8*n-1] != 0 {
				t.Fatalf("value encoding %d, want the raw fallback 0", want[len(want)-8*n-1])
			}
			var msg any
			msg, buf = carry(row.msg, buf)
			if got := frameOf(msg); !bytes.Equal(got, want) {
				t.Fatalf("carried frame\n%x\nwant %x", got, want)
			}
			if got := sent(t, msg); !bytes.Equal(got, want) {
				t.Fatalf("binConn.Send wrote\n%x\nwant %x", got, want)
			}
			other := edit(msg, func(v *[]float64, _ *[]byte) { *v = make([]float64, n) })
			if got := sent(t, other); !bytes.Equal(got, want) {
				t.Fatalf("Send re-encoded a message carrying its frame:\n%x\nwant %x", got, want)
			}
			wantMux, err := appendFrame(nil, MuxFrame{VID: 4, Msg: row.msg})
			if err != nil {
				t.Fatal(err)
			}
			lc := &loopConn{}
			if err := sendMember(NewBinConn(lc), 4, msg); err != nil {
				t.Fatal(err)
			}
			if got := lc.buf.Bytes(); !bytes.Equal(got, wantMux) {
				t.Fatalf("sendMember wrote\n%x\nwant %x", got, wantMux)
			}
		})
	}
	if goldens == 0 {
		t.Fatal("no row matched a golden frame")
	}
}

// TestCarriedFrameOtherRoundOrTag: a frame carried for another round,
// under another message's tag, cut short, or overwritten in the
// sender's reused buffer by the next round's is not written — Send
// encodes the message afresh.
func TestCarriedFrameOtherRoundOrTag(t *testing.T) {
	bc := Broadcast{Round: 7, Idx: []int{1, 4}, Val: []float64{0.5, -2}}
	sb := SliceBroadcast{Round: 7, ShardID: 1, Idx: []int{1, 4}, Val: []float64{0.5, -2}}
	sbFrame := sb.encodeFrame(nil)

	var buf []byte
	buf = bc.encodeFrame(buf)
	next := bc
	next.Round = 8
	next.encodeFrame(buf) // the next round reuses the buffer in place
	if &next.frame[0] != &bc.frame[0] {
		t.Fatal("the next round's frame did not reuse the buffer")
	}

	stale := bc
	stale.frame = append([]byte(nil), next.frame...)
	later := next
	later.Round = 9
	foreign := bc
	foreign.frame = sbFrame
	short := bc
	short.frame = short.encodeFrame(nil)
	short.frame = short.frame[:len(short.frame)-1]
	foreignSlice := sb
	foreignSlice.frame = append([]byte(nil), next.frame...)
	for _, tc := range []struct {
		name string
		msg  any
	}{
		{"round 7 carrying round 8's frame", stale},
		{"round 7 whose buffer now holds round 8", bc},
		{"round 9 carrying round 8's frame", later},
		{"Broadcast carrying a SliceBroadcast frame", foreign},
		{"Broadcast carrying a truncated frame", short},
		{"SliceBroadcast carrying a Broadcast frame", foreignSlice},
	} {
		want, err := appendFrame(nil, withFrame(tc.msg, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got := sent(t, tc.msg); !bytes.Equal(got, want) {
			t.Errorf("%s: Send wrote\n%x\nwant %x", tc.name, got, want)
		}
	}
}

// TestRecvNeverCarriesFrame: a message received over the binary codec —
// on a binConn, or a member's stream of a host link — never carries a
// frame, so a receiver that sends it on encodes it from its fields.
func TestRecvNeverCarriesFrame(t *testing.T) {
	var buf []byte
	for _, row := range fanoutRows() {
		var msg any
		msg, buf = carry(row.msg, buf)
		c := NewBinConn(&loopConn{})
		member := memberConn{NewBinConn(&loopConn{}), 2}
		recvs := []struct {
			via  string
			send func() error
			recv func() (any, error)
		}{
			{"binConn", func() error { return c.Send(msg) }, c.Recv},
			{"member stream", func() error { return member.Send(msg) }, member.Recv},
		}
		for _, r := range recvs {
			if err := r.send(); err != nil {
				t.Fatal(err)
			}
			got, err := r.recv()
			if err != nil {
				t.Fatalf("%s over %s: %v", row.name, r.via, err)
			}
			if f := frameOf(got); f != nil {
				t.Errorf("%s over %s: received a message carrying %d frame bytes", row.name, r.via, len(f))
			}
			if !bitEqual(withFrame(got, nil), withFrame(msg, nil)) {
				t.Errorf("%s over %s: received %#v", row.name, r.via, got)
			}
		}
	}
}
