package transport

// Codec benchmarks. BenchmarkSliceCodec measures the typed hot path of
// the binary codec — encode via appendFrame into a reused buffer,
// decode via the scratch-backed typed decoders — and must report
// 0 allocs/op steady state (BENCH_fl.json pins this). The messages are
// pre-boxed and the buffers warmed before the timer starts, exactly the
// steady state a binConn reaches after its first round.
// BenchmarkWireRoundBytes runs the full routed protocol over metered
// in-memory conns and reports the binary codec's bytes per round, full
// precision versus QuantBits=8 — the wire-shrink baseline benchcheck
// guards.

import (
	"fmt"
	"testing"

	"fedsparse/internal/sparse"
)

func BenchmarkSliceCodec(b *testing.B) {
	const n = 256
	idx := make([]int, n)
	rank := make([]int, n)
	raw := make([]float64, n)
	qval := make([]float64, n)
	for i := 0; i < n; i++ {
		idx[i] = 3 * i
		rank[i] = i
		raw[i] = float64(i%19)*0.37 - 3.1
		qval[i] = raw[i]
	}
	scale := sparse.QuantizeInPlace(qval, 8)

	cases := []struct {
		name string
		msg  any // pre-boxed, as a binConn sends it
		dec  func(body []byte, sc *decScratch) error
	}{
		{"SliceUpload_raw",
			any(SliceUpload{ClientID: 1, Round: 2, Idx: idx, Val: raw, Rank: rank}),
			func(body []byte, sc *decScratch) error { r := wireReader{b: body}; r.sliceUpload(sc); return r.err }},
		{"SliceUpload_q8",
			any(SliceUpload{ClientID: 1, Round: 2, Idx: idx, Val: qval, Rank: rank, Bits: 8, Scale: scale}),
			func(body []byte, sc *decScratch) error { r := wireReader{b: body}; r.sliceUpload(sc); return r.err }},
		{"SliceBroadcast_q8",
			any(SliceBroadcast{Round: 2, ShardID: 1, Idx: idx, Val: qval, Bits: 8, Scale: scale}),
			func(body []byte, sc *decScratch) error { r := wireReader{b: body}; r.sliceBroadcast(sc); return r.err }},
		{"Broadcast_raw",
			any(Broadcast{Round: 2, Idx: idx, Val: raw}),
			func(body []byte, sc *decScratch) error { r := wireReader{b: body}; r.broadcast(sc); return r.err }},
		{"Broadcast_q8",
			any(Broadcast{Round: 2, Idx: idx, Val: qval, Bits: 8, Scale: scale}),
			func(body []byte, sc *decScratch) error { r := wireReader{b: body}; r.broadcast(sc); return r.err }},
	}
	for _, tc := range cases {
		frame, err := appendFrame(nil, tc.msg)
		if err != nil {
			b.Fatal(err)
		}
		payload := frame[4:] // tag + body, as recvMsg hands decodeFrame

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
	fed, model, initParams := buildWorkload()
	const k, rounds = 40, 5
	for _, qbits := range []int{0, 8} {
		b.Run(fmt.Sprintf("quant=%d", qbits), func(b *testing.B) {
			var frameBytes, valBytes int64
			for i := 0; i < b.N; i++ {
				m := &wireMeter{}
				runDistributed(b, fed, model, initParams, k, rounds, qbits,
					func() (Conn, Conn) {
						s, c := NewMemPair()
						return wireMeterConn{Conn: s, m: m}, c
					})
				frameBytes, valBytes = m.frameBytes, m.valBytes
			}
			b.ReportMetric(float64(frameBytes)/rounds, "B/round")
			b.ReportMetric(float64(valBytes)/rounds, "valB/round")
		})
	}
}
