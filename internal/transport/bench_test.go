package transport

// Codec benchmarks. BenchmarkSliceCodec measures the typed hot path of
// the binary codec — encode via appendFrame into a reused buffer,
// decode by calling the message's description into warm scratch — and
// must report 0 allocs/op steady state (BENCH_fl.json pins this, and
// TestSliceCodecAllocFree checks it on every test run). The messages are
// pre-boxed and the buffers warmed before the timer starts, exactly the
// steady state a binConn reaches after its first round.
// BenchmarkWireRoundBytes runs the full protocol over metered in-memory
// conns and reports the binary codec's bytes per round through the
// coordinator, full precision versus QuantBits=8, on the routed plane and
// on the direct plane with two shards (where it is all control traffic:
// the shards' results, fill replies and seals, the clients' metadata and
// releases) — the wire-shrink baseline benchcheck guards. BenchmarkDownlinkFanout is one round's fan-out downlink: the
// sender's one encode and 8 sends of the frame the message carries.

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"

	"fedsparse/internal/sparse"
)

// codecPayload is n pairs of per-round message content: ascending
// indices, their ranks, raw values, and the same values on the 8-bit
// quantization grid with its scale.
func codecPayload(n int) (idx, rank []int, raw, qval []float64, scale float64) {
	idx, rank = make([]int, n), make([]int, n)
	raw, qval = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		idx[i] = 3 * i
		rank[i] = i
		raw[i] = float64(i%19)*0.37 - 3.1
		qval[i] = raw[i]
	}
	return idx, rank, raw, qval, sparse.QuantizeInPlace(qval, 8)
}

// rankOrderUpload is an upload's pairs as a quantizing client sends
// them: rawRankOrderUpload's, then on the 8-bit grid
// (sparse.QuantizeInPlace). Its coordinates are no order at all on the
// wire, and its magnitudes never grow, so its values step-code.
func rankOrderUpload(k, d int) (idx []int, val []float64, scale float64) {
	idx, val = rawRankOrderUpload(k, d)
	return idx, val, sparse.QuantizeInPlace(val, 8)
}

// rawRankOrderUpload is an upload's pairs as a client without
// quantization sends them: the top k of d seeded normal values by
// magnitude, in rank order (sparse.TopK). Its magnitude bits never grow,
// so its values drop-code.
func rawRankOrderUpload(k, d int) (idx []int, val []float64) {
	rng := rand.New(rand.NewSource(1))
	dense := make([]float64, d)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	top := sparse.TopK(dense, k)
	return top.Idx, top.Val
}

// downlinkB is tcp_routed_q8's downlink: the pairs of rankOrderUpload's
// k = 1 987 of D = 19 874, in index order — ascending coordinates,
// Rice-coded at k = 3, with their 8-bit values.
func downlinkB() (idx []int, val []float64, scale float64) {
	up, uval, scale := rankOrderUpload(1987, 19874)
	order := make([]int, len(up))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return up[a] - up[b] })
	idx, val = make([]int, len(up)), make([]float64, len(up))
	for i, r := range order {
		idx[i], val[i] = up[r], uval[r]
	}
	return idx, val, scale
}

// Scratch-backed decoders of the per-round messages: each runs the
// message's description over a frame body (the payload after its tag),
// without the boxing into any that Recv adds.
func decUpload(body []byte, sc *decScratch) error {
	c := coder{b: body, dec: true, sc: *sc}
	Upload{}.code(&c)
	*sc = c.sc
	return c.err
}

func decBroadcast(body []byte, sc *decScratch) error {
	c := coder{b: body, dec: true, sc: *sc}
	Broadcast{}.code(&c)
	*sc = c.sc
	return c.err
}

func decSliceUpload(body []byte, sc *decScratch) error {
	c := coder{b: body, dec: true, sc: *sc}
	SliceUpload{}.code(&c)
	*sc = c.sc
	return c.err
}

func decSliceBroadcast(body []byte, sc *decScratch) error {
	c := coder{b: body, dec: true, sc: *sc}
	SliceBroadcast{}.code(&c)
	*sc = c.sc
	return c.err
}

func decShardResult(body []byte, sc *decScratch) error {
	c := coder{b: body, dec: true, sc: *sc}
	ShardResult{}.code(&c)
	*sc = c.sc
	return c.err
}

func decFillCandidates(body []byte, sc *decScratch) error {
	c := coder{b: body, dec: true, sc: *sc}
	FillCandidates{}.code(&c)
	*sc = c.sc
	return c.err
}

func decRoundSeal(body []byte, sc *decScratch) error {
	c := coder{b: body, dec: true, sc: *sc}
	RoundSeal{}.code(&c)
	*sc = c.sc
	return c.err
}

// histCounts is a min-rank histogram over n ranks of 8 clients' uploads:
// at most 8 coordinates first uploaded at each rank.
func histCounts(n int) []int {
	h := make([]int, n)
	for r := range h {
		h[r] = (r * 5) % 9
	}
	return h
}

// TestSliceCodecAllocFree pins the codec's steady state, which
// BenchmarkSliceCodec reports only under benchcheck: encoding a
// per-round message into a warm buffer, and decoding it into warm
// scratch, allocate nothing.
func TestSliceCodecAllocFree(t *testing.T) {
	idx, rank, raw, qval, scale := codecPayload(256)
	kidx, kval, kscale := rankOrderUpload(1987, 19874)
	_, kraw := rawRankOrderUpload(1987, 19874)
	bidx, bval, bscale := downlinkB()
	for _, tc := range []struct {
		msg any // pre-boxed, as a binConn sends it
		dec func(body []byte, sc *decScratch) error
	}{
		{Upload{ClientID: 1, Round: 2, Idx: idx, Val: qval, BatchLoss: 0.5, Bits: 8, Scale: scale}, decUpload},
		// tcp_routed_q8's B: its coordinates Rice-coded.
		{Broadcast{Round: 2, Idx: bidx, Val: bval, Bits: 8, Scale: bscale}, decBroadcast},
		{Upload{ClientID: 1, Round: 2, Idx: kidx, Val: kval, BatchLoss: 0.5, Bits: 8, Scale: kscale}, decUpload},
		// Raw values: drop-coded in rank order, exponent-coded in index
		// order.
		{Upload{ClientID: 1, Round: 2, Idx: kidx, Val: kraw, BatchLoss: 0.5}, decUpload},
		{Broadcast{Round: 2, Idx: idx, Val: raw}, decBroadcast},
		{Broadcast{Round: 2, Idx: idx, Val: qval, Bits: 8, Scale: scale}, decBroadcast},
		// A width whose codes straddle bytes: 5 bits.
		{Broadcast{Round: 2, Idx: idx, Val: snapped(qval, 5, scale), Bits: 5, Scale: scale}, decBroadcast},
		{SliceUpload{ClientID: 1, Round: 2, Idx: idx, Val: qval, Rank: rank, Bits: 8, Scale: scale}, decSliceUpload},
		{SliceBroadcast{Round: 2, ShardID: 1, Idx: idx, Val: qval, Bits: 8, Scale: scale}, decSliceBroadcast},
		{ShardResult{Round: 2, ShardID: 1, Idx: idx, Sum: qval, MinRank: rank}, decShardResult},
		{FillCandidates{Round: 2, ShardID: 1, Client: rank, Idx: idx, AbsVal: qval}, decFillCandidates},
		{RoundSeal{Round: 2, Members: idx, Bits: 8, Scale: scale}, decRoundSeal},
		// The histogram plane's shapes: tcp_direct_s2's histogram
		// (k ranks, ≤ 8 coordinates each), a fill reply, a cut.
		{ShardResult{Round: 2, ShardID: 1, Hist: histCounts(1987)}, decShardResult},
		{FillCandidates{Round: 2, ShardID: 1, Client: rank[:8], Idx: idx[:8], AbsVal: qval[:8], Sum: qval[8:16], Max: 2.5}, decFillCandidates},
		{RoundSeal{Round: 2, Kappa: 37, Members: idx[:8], Bits: 8, Scale: scale}, decRoundSeal},
	} {
		frame, err := appendFrame(nil, tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		body := frame[5:]
		buf := make([]byte, 0, len(frame))
		var sc decScratch
		if err := tc.dec(body, &sc); err != nil {
			t.Fatalf("%T: %v", tc.msg, err)
		}
		enc := testing.AllocsPerRun(100, func() { buf, err = appendFrame(buf[:0], tc.msg) })
		dec := testing.AllocsPerRun(100, func() { err = tc.dec(body, &sc) })
		if err != nil {
			t.Fatalf("%T: %v", tc.msg, err)
		}
		if enc != 0 || dec != 0 {
			t.Errorf("%T: %v allocs per encode, %v per decode, want 0", tc.msg, enc, dec)
		}
	}
	// The fan-out path: a round's one encode into the sender's reused
	// buffer, then the carried frame sent to 8 receivers.
	for _, fan := range downlinkFanouts() {
		fan.round() // warm the buffers
		if frameOf(fan.msg) == nil {
			t.Fatalf("%s: the message carries no frame", fan.name)
		}
		if allocs := testing.AllocsPerRun(100, fan.round); allocs != 0 || fan.err != nil {
			t.Errorf("%s: %v allocs per fan-out (%v), want 0", fan.name, allocs, fan.err)
		}
	}
}

// discardConn is a net.Conn that swallows every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// downlinkFanout is one round's downlink as its sender runs it: encode
// the message once into a reused buffer (encode), then send the boxed
// message, carrying that frame, to every receiver.
type downlinkFanout struct {
	name   string
	encode func()
	msg    any // boxed once; its frame aliases the reused buffer
	conns  []Conn
	err    error
}

func (f *downlinkFanout) round() {
	f.encode()
	for _, c := range f.conns {
		if err := c.Send(f.msg); err != nil {
			f.err = err
		}
	}
}

// downlinkFanouts are the benchmark's two shapes, each to 8 receivers
// over discarding binConns: tcp_routed_q8's Broadcast (k = 1 987, 8-bit
// values) and one tcp_direct_s2 shard's raw SliceBroadcast of about
// 1 000 elements.
func downlinkFanouts() []*downlinkFanout {
	idx, _, _, qval, scale := codecPayload(1987)
	bc := &Broadcast{Round: 2, Idx: idx, Val: qval, Bits: 8, Scale: scale}
	sidx, _, raw, _, _ := codecPayload(1000)
	sb := &SliceBroadcast{Round: 2, ShardID: 1, Idx: sidx, Val: raw}
	bcBuf, sbBuf := bc.encodeFrame(nil), sb.encodeFrame(nil)
	fans := []*downlinkFanout{
		{name: "Broadcast_q8_k1987", encode: func() { bcBuf = bc.encodeFrame(bcBuf) }, msg: *bc},
		{name: "SliceBroadcast_raw_1000", encode: func() { sbBuf = sb.encodeFrame(sbBuf) }, msg: *sb},
	}
	for _, f := range fans {
		for range 8 {
			f.conns = append(f.conns, NewBinConn(discardConn{}))
		}
	}
	return fans
}

// BenchmarkDownlinkFanout is one round's fan-out downlink: one encode
// and 8 sends of the carried frame.
func BenchmarkDownlinkFanout(b *testing.B) {
	for _, fan := range downlinkFanouts() {
		b.Run(fan.name, func(b *testing.B) {
			fan.round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fan.round()
			}
			if fan.err != nil {
				b.Fatal(fan.err)
			}
		})
	}
}

// BenchmarkSliceCodec's Upload_q8 is tcp_routed_q8's hot message: k =
// 1 987 coordinates of D = 19 874 and their values in rank order, on the
// 8-bit grid (rankOrderUpload), so its values step-code. Upload_raw is
// the same upload unquantized (rawRankOrderUpload), as tcp_direct_s2's
// clients send it before the split, so its values drop-code.
// Broadcast_q8_k1987 is that workload's downlink, the same pairs in
// index order (downlinkB): its coordinates Rice-code at k = 3, its values
// pack. The other cases carry 256 coordinates at stride 3, which
// Rice-code at k = 1; their raw values, in index order, exponent-code.
func BenchmarkSliceCodec(b *testing.B) {
	idx, rank, raw, qval, scale := codecPayload(256)
	kidx, kval, kscale := rankOrderUpload(1987, 19874)
	_, kraw := rawRankOrderUpload(1987, 19874)
	bidx, bval, bscale := downlinkB()
	cases := []struct {
		name string
		msg  any // pre-boxed, as a binConn sends it
		dec  func(body []byte, sc *decScratch) error
	}{
		{"Upload_q8", Upload{ClientID: 1, Round: 2, Idx: kidx, Val: kval, BatchLoss: 0.5, Bits: 8, Scale: kscale}, decUpload},
		{"Broadcast_q8_k1987", Broadcast{Round: 2, Idx: bidx, Val: bval, Bits: 8, Scale: bscale}, decBroadcast},
		{"Upload_raw", Upload{ClientID: 1, Round: 2, Idx: kidx, Val: kraw, BatchLoss: 0.5}, decUpload},
		{"SliceUpload_raw", SliceUpload{ClientID: 1, Round: 2, Idx: idx, Val: raw, Rank: rank}, decSliceUpload},
		{"SliceUpload_q8", SliceUpload{ClientID: 1, Round: 2, Idx: idx, Val: qval, Rank: rank, Bits: 8, Scale: scale}, decSliceUpload},
		{"SliceBroadcast_q8", SliceBroadcast{Round: 2, ShardID: 1, Idx: idx, Val: qval, Bits: 8, Scale: scale}, decSliceBroadcast},
		{"Broadcast_raw", Broadcast{Round: 2, Idx: idx, Val: raw}, decBroadcast},
		{"Broadcast_q8", Broadcast{Round: 2, Idx: idx, Val: qval, Bits: 8, Scale: scale}, decBroadcast},
	}
	for _, tc := range cases {
		frame, err := appendFrame(nil, tc.msg)
		if err != nil {
			b.Fatal(err)
		}
		payload := frame[4:] // tag + body, as Recv hands decodeFrame

		b.Run(tc.name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, len(frame))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = appendFrame(buf[:0], tc.msg)
			}
			if err != nil {
				b.Fatal(err)
			}
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			var sc decScratch
			// Warm the scratch to steady state before the timer.
			if err := tc.dec(payload[1:], &sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.dec(payload[1:], &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWireRoundBytes(b *testing.B) {
	const rounds = 5
	for _, shards := range []int{0, 2} {
		for _, qbits := range []int{0, 8} {
			name := fmt.Sprintf("quant=%d", qbits)
			if shards > 0 {
				name = fmt.Sprintf("direct%d/quant=%d", shards, qbits)
			}
			b.Run(name, func(b *testing.B) {
				cfg, err := wireConfig(runSpec{rounds: rounds, quantBits: qbits}.config(0), false)
				if err != nil {
					b.Fatal(err)
				}
				work := testWorkload()
				var frameBytes, valBytes int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m := &wireMeter{}
					net := memNet()
					lay := layout{shards: shards, work: work, wrapCoord: func(c Conn) Conn { return wireMeterConn{Conn: c, m: m} }}
					if _, err := deploy(b, net, cfg, lay); err != nil {
						b.Fatal(err)
					}
					net.teardown()
					frameBytes, valBytes = m.frameBytes, m.valBytes
				}
				b.ReportMetric(float64(frameBytes)/rounds, "B/round")
				b.ReportMetric(float64(valBytes)/rounds, "valB/round")
			})
		}
	}
}
