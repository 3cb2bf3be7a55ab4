package main

import (
	"reflect"
	"testing"
	"time"

	"fedsparse/internal/fl"
	"fedsparse/internal/sparse"
	"fedsparse/internal/transport"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100, 99, …, 1
	}
	// p89 of 100 is rank 89 (value 89) with 11 samples beyond it.
	got, err := percentile(xs, 89)
	if err != nil || got != 89 {
		t.Fatalf("p89 of 1..100 = %v, %v; want 89", got, err)
	}
	// p90 has exactly ten beyond it; p91 has nine and must be refused.
	if got, err := percentile(xs, 90); err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(xs, 91); err == nil {
		t.Fatal("p91 of 100 samples has nine samples beyond it and was not refused")
	}
	if _, err := percentile(xs[:15], 50); err == nil {
		t.Fatal("p50 of 15 samples has seven samples beyond it and was not refused")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(xs, p); err == nil {
			t.Fatalf("percentile %v was not refused", p)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of 4 = %v", got)
	}
	if got := median([]float64(nil)); got != 0 {
		t.Fatalf("median of none = %v", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "child", Parent: 0, Start: 10, End: 30},
		{Name: "child", Parent: 0, Start: 50, End: 60},
		{Name: "grandchild", Parent: 1, Start: 12, End: 17},
		{Name: "overhang", Parent: 0, Start: 90, End: 120}, // clipped to its parent
	}
	want := []int64{100 - 20 - 10 - 10, 20 - 5, 10, 5, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// fakeConn records what reaches the wrapped connection.
type fakeConn struct {
	sent     []any
	inbox    []any
	deadline time.Time
	bytes    uint64
}

func (c *fakeConn) Send(msg any) error {
	c.sent = append(c.sent, msg)
	c.bytes += 100
	return nil
}

func (c *fakeConn) Recv() (any, error) {
	msg := c.inbox[0]
	c.inbox = c.inbox[1:]
	return msg, nil
}

func (c *fakeConn) Close() error                      { return nil }
func (c *fakeConn) SetReadDeadline(t time.Time) error { c.deadline = t; return nil }
func (c *fakeConn) BytesSent() uint64                 { return c.bytes }
func (c *fakeConn) BytesReceived() uint64             { return 7 }

func TestTracedConnForwardsAndClassifies(t *testing.T) {
	for _, tracing := range []bool{false, true} {
		inner := &fakeConn{inbox: []any{
			transport.Init{K: 3},
			transport.Broadcast{Round: 1, Idx: []int{4}, Val: []float64{1}},
			transport.Broadcast{Round: 2},
		}}
		tc := &tracedConn{inner: inner, role: roleClient, actor: "client0", tracing: tracing}
		var conn transport.Conn = tc

		msgs := []any{
			transport.Hello{ClientID: 0},
			transport.Upload{Round: 1, Idx: []int{1, 2}, Val: []float64{1, 2}},
			transport.MuxFrame{VID: 9, Msg: transport.Upload{Round: 2, Idx: []int{5}, Val: []float64{3}}},
			transport.RoundMeta{Round: 2},
		}
		for _, msg := range msgs {
			if err := conn.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(inner.sent, msgs) {
			t.Fatalf("tracing=%v: inner saw %v, want %v in order", tracing, inner.sent, msgs)
		}
		for i, want := range []any{transport.Init{K: 3}, transport.Broadcast{Round: 1, Idx: []int{4}, Val: []float64{1}}, transport.Broadcast{Round: 2}} {
			got, err := conn.Recv()
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("tracing=%v: recv %d = %v, %v; want %v", tracing, i, got, err, want)
			}
		}

		deadline := time.Unix(42, 0)
		if err := conn.(interface{ SetReadDeadline(time.Time) error }).SetReadDeadline(deadline); err != nil || !inner.deadline.Equal(deadline) {
			t.Fatalf("tracing=%v: deadline not forwarded (%v, %v)", tracing, inner.deadline, err)
		}
		bc := conn.(transport.ByteCounter)
		if bc.BytesSent() != 400 || bc.BytesReceived() != 7 {
			t.Fatalf("tracing=%v: byte counter not forwarded: %d sent, %d received", tracing, bc.BytesSent(), bc.BytesReceived())
		}

		wantBytes := [numTrafficClasses]uint64{classHandshake: 100, classUp: 200, classCtrl: 100}
		if tc.bytes != wantBytes {
			t.Fatalf("tracing=%v: bytes by class %v, want %v", tracing, tc.bytes, wantBytes)
		}
		if tc.elems[classUp] != 3 || tc.indexInts[classUp] != 3 || tc.msgs[classUp] != 2 {
			t.Fatalf("tracing=%v: uplink counts: %d elems, %d index ints, %d msgs", tracing, tc.elems[classUp], tc.indexInts[classUp], tc.msgs[classUp])
		}
		if !tracing {
			if len(tc.spans) != 0 {
				t.Fatalf("untraced conn recorded %d spans", len(tc.spans))
			}
			continue
		}
		var names []string
		var rounds []int
		for _, s := range tc.spans {
			names = append(names, s.Name)
			rounds = append(rounds, s.Round)
		}
		wantNames := []string{"send.handshake", "send.up", "send.up", "send.ctrl", "recv.handshake", "recv.down", "recv.down"}
		if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(rounds, []int{0, 1, 2, 2, 0, 1, 2}) {
			t.Fatalf("spans %v rounds %v, want %v", names, rounds, wantNames)
		}
		if tc.muxFrames != 1 || len(tc.members) != 1 {
			t.Fatalf("mux accounting: %d frames, %d members", tc.muxFrames, len(tc.members))
		}
	}
}

func TestAssembleTraceBuildsRoundTrees(t *testing.T) {
	obs := &roundObserver{starts: []int64{100, 200}, ends: []int64{190, 290}}
	coord := &tracedConn{role: roleCoordinator, actor: "coordinator", spans: []span{
		{Name: "recv.up", Actor: "coordinator", Round: 1, Start: 110, End: 150},
		{Name: "send.down", Actor: "coordinator", Round: 1, Start: 170, End: 180},
		{Name: "recv.up", Actor: "coordinator", Round: 2, Start: 205, End: 260},
		{Name: "send.handshake", Actor: "coordinator", Round: 0, Start: 50, End: 60},
	}}
	client := &tracedConn{role: roleClient, actor: "client0", spans: []span{
		{Name: "send.up", Actor: "client0", Round: 1, Start: 120, End: 125},
		{Name: "recv.down", Actor: "client0", Round: 1, Start: 125, End: 185},
		{Name: "send.up", Actor: "client0", Round: 2, Start: 230, End: 240},
	}}
	spans := assembleTrace(obs, []*tracedConn{coord, client})
	roles := roleBreakdown(spans)
	// client0: round 1 is [120,185] (self 0), round 2 is [185,240] with a
	// 10 ns send, so 45 ns of compute.
	if cl := roles[roleClient]; cl.self != 45 || cl.send != 15 || cl.recvWait != 60 {
		t.Fatalf("client breakdown %+v", cl)
	}
	// coordinator: 90−40−10 in round 1, 90−55 in round 2.
	if co := roles[roleCoordinator]; co.self != 40+35 || co.recvWait != 95 || co.recvUp != 95 || co.send != 10 {
		t.Fatalf("coordinator breakdown %+v", co)
	}
	for i, s := range spans {
		if s.Parent >= 0 && (spans[s.Parent].Actor != s.Actor || spans[s.Parent].Round != s.Round) {
			t.Fatalf("span %d %+v hangs under %+v", i, s, spans[s.Parent])
		}
	}
}

func TestCodecLoopRoundTripsWalkMessages(t *testing.T) {
	// Values on an 8-bit grid, as a quantising client produces them, must
	// survive the packed coding bit for bit.
	q8 := []float64{1.27, -0.637, 0.0049}
	scale := sparse.QuantizeInPlace(q8, 8)
	msgs := []any{
		transport.Upload{ClientID: 3, Round: 2, Idx: []int{1, 70000}, Val: []float64{0.5, -0.25}, BatchLoss: 1.5},
		transport.Upload{ClientID: 1, Round: 1, Idx: []int{5, 9, 11}, Val: q8, BatchLoss: 2, Bits: 8, Scale: scale},
		transport.Broadcast{Round: 2, Idx: []int{4, 8}, Val: []float64{1e-3, 2}},
		transport.SliceUpload{ClientID: 2, Round: 4, Idx: []int{10, 11}, Val: []float64{3, 4}, Rank: []int{0, 7}},
		transport.SliceBroadcast{Round: 4, ShardID: 1, Idx: []int{12}, Val: []float64{-9}},
		transport.ShardResult{Round: 4, ShardID: 1, Idx: []int{12, 13}, Sum: []float64{1, 2}, MinRank: []int{0, 3}},
		transport.RoundSeal{Round: 4, Members: []int{12}},
		transport.CohortAssign{Round: 5, Members: []int{7, 99_999}},
		transport.MuxFrame{VID: 99_999, Msg: transport.Upload{ClientID: 99_999, Round: 5, Idx: []int{2}, Val: []float64{6}, BatchLoss: 0.1}},
	}
	loop := newCodecLoop()
	for _, msg := range msgs {
		if err := loop.Send(msg); err != nil {
			t.Fatalf("send %T: %v", msg, err)
		}
		got, err := loop.Recv()
		if err != nil {
			t.Fatalf("recv %T: %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip changed the message:\n got %#v\nwant %#v", got, msg)
		}
	}
	if bc := loop.(transport.ByteCounter); bc.BytesSent() == 0 || bc.BytesSent() != bc.BytesReceived() {
		t.Fatalf("loop counted %d sent, %d received", bc.BytesSent(), bc.BytesReceived())
	}
}

func TestTimeToLoss(t *testing.T) {
	events := make([]fl.RoundEvent, 30)
	times := make([]float64, 30)
	for i := range events {
		events[i].Loss = 3 - 0.1*float64(i) // 3.0, 2.9, …
		times[i] = float64(2 * (i + 1))
	}
	// The trailing 10-round mean ending at round i+1 is 3 − 0.1·(i − 4.5):
	// it first reaches 2.0 at i = 15 (mean 1.95), round 16, time 32.
	if got, ok := timeToLoss(events, times, 2.0); !ok || got != 32 {
		t.Fatalf("time to 2.0 = %v, %v; want 32", got, ok)
	}
	if got, ok := timeToLoss(events, times, 0.1); ok || got != 60 {
		t.Fatalf("unreached target = %v, %v; want the final time 60 and ok=false", got, ok)
	}
	if got := finalLoss(events); got < 0.549 || got > 0.551 {
		t.Fatalf("final loss %v, want the mean of the last ten (0.55)", got)
	}
}
