package transport

// This file is the binary wire codec: a length-prefixed little-endian
// frame format with hand-written encode/decode for every protocol
// message, replacing gob's reflection-driven encoding on the hot path.
// One frame is
//
//	[payload length u32][type tag u8][fixed header][payload]
//
// where the length counts everything after itself (the tag byte
// included) and is capped at maxFrame — a malformed or hostile length
// errors the connection instead of OOM-ing the receiver. Integers
// travel as u32, floats as IEEE-754 bits, slices as a u32 count
// followed by their elements; every count is bounds-checked against the
// bytes actually present before anything is allocated.
//
// Gradient value slices (Upload, Broadcast, SliceUpload,
// SliceBroadcast) use a quantization-aware block: when the message's
// (Bits, Scale) describe a b-bit grid (b in [2, 32], scale finite and
// positive) and every value verifies as a grid point, the values are
// packed as biased b-bit integers — ceil(n·b/8) bytes instead of 8n,
// the ~8× wire shrink at b=8 the paper's quantization lever promises —
// and the receiver reconstructs each value as (q−levels)·step, which is
// bit-for-bit the sender's grid value. Values that do not verify fall
// back to raw float64 bits, so the codec is lossless for arbitrary
// payloads and packing is purely an encoding optimization.
//
// A binConn decodes into preallocated per-connection scratch, so the
// per-round slice messages are allocation-free steady state on both
// ends (the boxing of the decoded struct into the Conn interface's
// `any` is the one small allocation Recv keeps). Scratch reuse across
// Recvs is safe under the protocol's lockstep discipline — every
// handler finishes consuming message m from a connection before it
// Recvs m+1 on that connection — the same argument that lets clients
// and shards reuse their pair buffers over by-reference in-memory
// conns. The gob codec (NewGobConn) stays alive as the differential
// oracle: every message must round-trip identically through both.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrame caps a frame's declared payload length. The biggest honest
// frame is an Init or Broadcast of the model dimension; 1 GiB is far
// beyond any real model here while still refusing absurd lengths.
const maxFrame = 1 << 30

// Message type tags, in the declaration order of the protocol structs.
const (
	tagHello = 1 + iota
	tagInit
	tagUpload
	tagBroadcast
	tagShardHello
	tagShardAssign
	tagShardResult
	tagDataHello
	tagSliceUpload
	tagRoundMeta
	tagFillQuery
	tagFillCandidates
	tagRoundSeal
	tagSliceFetch
	tagSliceBroadcast
	tagRoundRelease
	tagRejoin
	tagRejoinAck
	tagRedo
	tagMuxFrame
	tagCohortAssign
)

// wireWriter appends wire-encoded primitives to a buffer, latching the
// first error (unrepresentable int) so call sites stay linear.
type wireWriter struct {
	b   []byte
	err error
}

func (w *wireWriter) putU8(v byte) { w.b = append(w.b, v) }

func (w *wireWriter) putU32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

// putNum encodes a non-negative int as u32 — every protocol integer
// (ids, rounds, coordinates, ranks, counts) fits.
func (w *wireWriter) putNum(v int) {
	if uint64(v) > math.MaxUint32 {
		if w.err == nil {
			w.err = fmt.Errorf("transport: binary codec: integer %d outside u32", v)
		}
		return
	}
	w.putU32(uint32(v))
}

func (w *wireWriter) putU64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *wireWriter) putF64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *wireWriter) putBool(v bool) {
	if v {
		w.putU8(1)
	} else {
		w.putU8(0)
	}
}

func (w *wireWriter) putStr(s string) {
	w.putNum(len(s))
	w.b = append(w.b, s...)
}

func (w *wireWriter) putNums(v []int) {
	w.putNum(len(v))
	for _, x := range v {
		w.putNum(x)
	}
}

func (w *wireWriter) putF64s(v []float64) {
	w.putNum(len(v))
	for _, x := range v {
		w.putF64(x)
	}
}

func (w *wireWriter) putStrs(v []string) {
	w.putNum(len(v))
	for _, s := range v {
		w.putStr(s)
	}
}

// gridPackable reports whether val can travel as packed b-bit integers
// on the (bits, scale) quantization grid and be reconstructed
// bit-for-bit: every value must be q·step for an integer q with
// |q| ≤ levels. Values straight out of sparse.QuantizeInPlace /
// QuantizeToScale always verify; anything else (quantization off, a
// raw payload, a NaN) falls back to raw float64 encoding.
func gridPackable(val []float64, bits int, scale float64) bool {
	if bits < 2 || bits > 32 || len(val) == 0 {
		return false
	}
	if !(scale > 0) || math.IsInf(scale, 0) {
		return false
	}
	levels := float64(int64(1)<<(bits-1)) - 1
	step := scale / levels
	for _, v := range val {
		q := math.Round(v / step)
		if !(math.Abs(q) <= levels) || q*step != v {
			return false
		}
	}
	return true
}

// packedLen is the byte length of n packed b-bit values.
func packedLen(n, bits int) int { return (n*bits + 7) / 8 }

// putQuantVals encodes a gradient value slice: a count, an encoding
// byte (0 = raw float64 bits, 1 = packed b-bit grid integers), and the
// payload. The message's Bits/Scale header fields — encoded separately
// by the caller — parameterize the grid on both ends.
func (w *wireWriter) putQuantVals(val []float64, bits int, scale float64) {
	w.putNum(len(val))
	if !gridPackable(val, bits, scale) {
		w.putU8(0)
		for _, v := range val {
			w.putF64(v)
		}
		return
	}
	w.putU8(1)
	levels := int64(1)<<(bits-1) - 1
	step := scale / float64(levels)
	var bitbuf uint64
	nbits := 0
	for _, v := range val {
		q := int64(math.Round(v / step))
		bitbuf |= uint64(q+levels) << nbits
		nbits += bits
		for nbits >= 8 {
			w.b = append(w.b, byte(bitbuf))
			bitbuf >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		w.b = append(w.b, byte(bitbuf))
	}
}

// decScratch is a binConn's preallocated decode target: the protocol's
// messages carry at most two int slices and one float64 slice, and the
// lockstep protocol guarantees message m is fully consumed before
// Recv(m+1) overwrites these (see the package comment above).
type decScratch struct {
	is1, is2 []int
	fs1      []float64
}

// wireReader consumes wire-encoded primitives from a frame body,
// latching the first error; done() additionally rejects trailing bytes.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: binary codec: "+format, args...)
	}
}

func (r *wireReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("short frame")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.fail("short frame")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *wireReader) num() int { return int(r.u32()) }

func (r *wireReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("short frame")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wireReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("short frame")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *wireReader) bool_() bool { return r.u8() != 0 }

func (r *wireReader) str() string {
	n := r.num()
	if r.err != nil {
		return ""
	}
	if n > len(r.b) {
		r.fail("string length %d exceeds %d remaining bytes", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// nums decodes an int slice into dst (grown as needed). The declared
// count is checked against the bytes actually present before any
// allocation, so a hostile count cannot force a huge make.
func (r *wireReader) nums(dst []int) []int {
	n := r.num()
	if r.err != nil {
		return dst
	}
	if n > len(r.b)/4 {
		r.fail("int slice count %d exceeds %d remaining bytes", n, len(r.b))
		return dst
	}
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = int(binary.LittleEndian.Uint32(r.b[4*i:]))
	}
	r.b = r.b[4*n:]
	return dst
}

func (r *wireReader) f64s(dst []float64) []float64 {
	n := r.num()
	if r.err != nil {
		return dst
	}
	if n > len(r.b)/8 {
		r.fail("float slice count %d exceeds %d remaining bytes", n, len(r.b))
		return dst
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*n:]
	return dst
}

func (r *wireReader) strs(dst []string) []string {
	n := r.num()
	if r.err != nil {
		return dst
	}
	// Each string costs at least its 4-byte count.
	if n > len(r.b)/4 {
		r.fail("string slice count %d exceeds %d remaining bytes", n, len(r.b))
		return dst
	}
	if cap(dst) < n {
		dst = make([]string, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = r.str()
	}
	return dst
}

// quantMeta validates a message's quantization header: Bits is 0 (off)
// or a real width, Scale is a finite non-negative real. A NaN or Inf
// scale is a corrupt or hostile frame and errors the connection.
func (r *wireReader) quantMeta(bits int, scale float64) {
	if bits != 0 && (bits < 2 || bits > 64) {
		r.fail("quantization width %d outside 0 or [2, 64]", bits)
	}
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
		r.fail("quantization scale %v is not a finite non-negative real", scale)
	}
}

// quantVals decodes a gradient value block written by putQuantVals.
func (r *wireReader) quantVals(dst []float64, bits int, scale float64) []float64 {
	n := r.num()
	enc := r.u8()
	if r.err != nil {
		return dst
	}
	switch enc {
	case 0:
		if n > len(r.b)/8 {
			r.fail("value count %d exceeds %d remaining bytes", n, len(r.b))
			return dst
		}
		if cap(dst) < n {
			dst = make([]float64, n)
		}
		dst = dst[:n]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
		}
		r.b = r.b[8*n:]
		return dst
	case 1:
		if bits < 2 || bits > 32 {
			r.fail("packed values with quantization width %d outside [2, 32]", bits)
			return dst
		}
		if !(scale > 0) || math.IsInf(scale, 0) {
			r.fail("packed values with quantization scale %v", scale)
			return dst
		}
		nbytes := packedLen(n, bits)
		if nbytes > len(r.b) {
			r.fail("packed value count %d (%d bytes) exceeds %d remaining bytes", n, nbytes, len(r.b))
			return dst
		}
		levels := int64(1)<<(bits-1) - 1
		step := scale / float64(levels)
		if cap(dst) < n {
			dst = make([]float64, n)
		}
		dst = dst[:n]
		var bitbuf uint64
		nb, pos := 0, 0
		mask := uint64(1)<<bits - 1
		for i := range dst {
			for nb < bits {
				bitbuf |= uint64(r.b[pos]) << nb
				pos++
				nb += 8
			}
			u := bitbuf & mask
			bitbuf >>= uint(bits)
			nb -= bits
			if u > uint64(2*levels) {
				r.fail("packed value code %d outside the %d-bit grid", u, bits)
				return dst
			}
			dst[i] = float64(int64(u)-levels) * step
		}
		r.b = r.b[nbytes:]
		return dst
	default:
		r.fail("unknown value encoding %d", enc)
		return dst
	}
}

// Typed decoders for the per-round slice messages — the scratch-backed
// hot path (also what the codec benchmarks measure, without the `any`
// boxing Recv adds).

func (r *wireReader) upload(sc *decScratch) Upload {
	var m Upload
	m.ClientID = r.num()
	m.Round = r.num()
	m.BatchLoss = r.f64()
	m.Bits = r.num()
	m.Scale = r.f64()
	r.quantMeta(m.Bits, m.Scale)
	sc.is1 = r.nums(sc.is1[:0])
	m.Idx = sc.is1
	sc.fs1 = r.quantVals(sc.fs1[:0], m.Bits, m.Scale)
	m.Val = sc.fs1
	return m
}

func (r *wireReader) broadcast(sc *decScratch) Broadcast {
	var m Broadcast
	m.Round = r.num()
	m.Bits = r.num()
	m.Scale = r.f64()
	r.quantMeta(m.Bits, m.Scale)
	sc.is1 = r.nums(sc.is1[:0])
	m.Idx = sc.is1
	sc.fs1 = r.quantVals(sc.fs1[:0], m.Bits, m.Scale)
	m.Val = sc.fs1
	return m
}

func (r *wireReader) shardResult(sc *decScratch) ShardResult {
	var m ShardResult
	m.Round = r.num()
	m.ShardID = r.num()
	sc.is1 = r.nums(sc.is1[:0])
	m.Idx = sc.is1
	sc.fs1 = r.f64s(sc.fs1[:0])
	m.Sum = sc.fs1
	sc.is2 = r.nums(sc.is2[:0])
	m.MinRank = sc.is2
	return m
}

func (r *wireReader) sliceUpload(sc *decScratch) SliceUpload {
	var m SliceUpload
	m.ClientID = r.num()
	m.Round = r.num()
	m.Bits = r.num()
	m.Scale = r.f64()
	r.quantMeta(m.Bits, m.Scale)
	sc.is1 = r.nums(sc.is1[:0])
	m.Idx = sc.is1
	sc.fs1 = r.quantVals(sc.fs1[:0], m.Bits, m.Scale)
	m.Val = sc.fs1
	sc.is2 = r.nums(sc.is2[:0])
	m.Rank = sc.is2
	return m
}

func (r *wireReader) fillCandidates(sc *decScratch) FillCandidates {
	var m FillCandidates
	m.Round = r.num()
	m.ShardID = r.num()
	sc.is1 = r.nums(sc.is1[:0])
	m.Client = sc.is1
	sc.is2 = r.nums(sc.is2[:0])
	m.Idx = sc.is2
	sc.fs1 = r.f64s(sc.fs1[:0])
	m.AbsVal = sc.fs1
	return m
}

func (r *wireReader) roundSeal(sc *decScratch) RoundSeal {
	var m RoundSeal
	m.Round = r.num()
	m.Bits = r.num()
	m.Scale = r.f64()
	r.quantMeta(m.Bits, m.Scale)
	sc.is1 = r.nums(sc.is1[:0])
	m.Members = sc.is1
	return m
}

func (r *wireReader) sliceBroadcast(sc *decScratch) SliceBroadcast {
	var m SliceBroadcast
	m.Round = r.num()
	m.ShardID = r.num()
	m.Bits = r.num()
	m.Scale = r.f64()
	r.quantMeta(m.Bits, m.Scale)
	sc.is1 = r.nums(sc.is1[:0])
	m.Idx = sc.is1
	sc.fs1 = r.quantVals(sc.fs1[:0], m.Bits, m.Scale)
	m.Val = sc.fs1
	return m
}

// appendFrame encodes msg as one complete wire frame appended to b.
func appendFrame(b []byte, msg any) ([]byte, error) {
	start := len(b)
	w := wireWriter{b: append(b, 0, 0, 0, 0)}
	switch m := msg.(type) {
	case Hello:
		w.putU8(tagHello)
		w.putNum(m.ClientID)
		w.putNums(m.Members)
		w.putF64s(m.Weights)
	case Init:
		w.putU8(tagInit)
		w.putNum(m.K)
		w.putNum(m.Rounds)
		w.putNum(m.QuantBits)
		w.putNum(m.Window)
		w.putU64(m.RunID)
		w.putF64s(m.Params)
		w.putStrs(m.Shards)
	case Upload:
		w.putU8(tagUpload)
		w.putNum(m.ClientID)
		w.putNum(m.Round)
		w.putF64(m.BatchLoss)
		w.putNum(m.Bits)
		w.putF64(m.Scale)
		w.putNums(m.Idx)
		w.putQuantVals(m.Val, m.Bits, m.Scale)
	case Broadcast:
		w.putU8(tagBroadcast)
		w.putNum(m.Round)
		w.putNum(m.Bits)
		w.putF64(m.Scale)
		w.putNums(m.Idx)
		w.putQuantVals(m.Val, m.Bits, m.Scale)
	case ShardHello:
		w.putU8(tagShardHello)
		w.putStr(m.Addr)
		w.putNum(m.ID)
		w.putBool(m.HasID)
	case ShardAssign:
		w.putU8(tagShardAssign)
		w.putNum(m.ShardID)
		w.putNum(m.NumShards)
		w.putNum(m.Dim)
		w.putNum(m.Rounds)
		w.putNum(m.QuantBits)
		w.putNum(m.StartRound)
		w.putNum(m.Window)
		w.putNum(m.NumHosts)
		w.putF64s(m.Weights)
	case ShardResult:
		w.putU8(tagShardResult)
		w.putNum(m.Round)
		w.putNum(m.ShardID)
		w.putNums(m.Idx)
		w.putF64s(m.Sum)
		w.putNums(m.MinRank)
	case DataHello:
		w.putU8(tagDataHello)
		w.putNum(m.ClientID)
		w.putNum(m.ShardID)
		w.putNum(m.NumShards)
		w.putNum(m.Dim)
		w.putNums(m.Members)
	case SliceUpload:
		w.putU8(tagSliceUpload)
		w.putNum(m.ClientID)
		w.putNum(m.Round)
		w.putNum(m.Bits)
		w.putF64(m.Scale)
		w.putNums(m.Idx)
		w.putQuantVals(m.Val, m.Bits, m.Scale)
		w.putNums(m.Rank)
	case RoundMeta:
		w.putU8(tagRoundMeta)
		w.putNum(m.ClientID)
		w.putNum(m.Round)
		w.putF64(m.BatchLoss)
		w.putNum(m.UploadLen)
	case FillQuery:
		w.putU8(tagFillQuery)
		w.putNum(m.Round)
		w.putNum(m.Kappa)
	case FillCandidates:
		w.putU8(tagFillCandidates)
		w.putNum(m.Round)
		w.putNum(m.ShardID)
		w.putNums(m.Client)
		w.putNums(m.Idx)
		w.putF64s(m.AbsVal)
	case RoundSeal:
		w.putU8(tagRoundSeal)
		w.putNum(m.Round)
		w.putNum(m.Bits)
		w.putF64(m.Scale)
		w.putNums(m.Members)
	case SliceFetch:
		w.putU8(tagSliceFetch)
		w.putNum(m.ClientID)
		w.putNum(m.Round)
	case SliceBroadcast:
		w.putU8(tagSliceBroadcast)
		w.putNum(m.Round)
		w.putNum(m.ShardID)
		w.putNum(m.Bits)
		w.putF64(m.Scale)
		w.putNums(m.Idx)
		w.putQuantVals(m.Val, m.Bits, m.Scale)
	case RoundRelease:
		w.putU8(tagRoundRelease)
		w.putNum(m.Round)
		w.putNum(m.Elems)
	case Rejoin:
		w.putU8(tagRejoin)
		w.putU64(m.RunID)
		w.putNum(m.Kind)
		w.putNum(m.ID)
		w.putNum(m.Round)
		w.putNum(m.LastSeal)
		w.putBool(m.Fresh)
		w.putStr(m.Addr)
	case RejoinAck:
		w.putU8(tagRejoinAck)
		w.putU64(m.RunID)
		w.putNum(m.Round)
		w.putNum(m.NeedFrom)
	case Redo:
		w.putU8(tagRedo)
		w.putNum(m.Round)
		w.putNum(m.ShardID)
		w.putStr(m.Addr)
	case MuxFrame:
		if _, ok := m.Msg.(MuxFrame); ok {
			return b, fmt.Errorf("transport: binary codec: MuxFrame nested inside MuxFrame")
		}
		w.putU8(tagMuxFrame)
		w.putNum(m.VID)
		// The enveloped message travels as a complete nested frame
		// (length prefix included), so decode reuses the same machinery.
		inner, err := appendFrame(w.b, m.Msg)
		if err != nil {
			return b, err
		}
		w.b = inner
	case CohortAssign:
		w.putU8(tagCohortAssign)
		w.putNum(m.Round)
		w.putNums(m.Members)
	default:
		return b, fmt.Errorf("transport: binary codec: unsupported message type %T", msg)
	}
	if w.err != nil {
		return b, w.err
	}
	n := len(w.b) - start - 4
	if n > maxFrame {
		return b, fmt.Errorf("transport: binary codec: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	binary.LittleEndian.PutUint32(w.b[start:], uint32(n))
	return w.b, nil
}

// decodeFrame decodes one frame payload (the type tag plus body —
// everything after the length prefix) into a protocol message. The
// handshake messages (Init, ShardAssign) decode into fresh slices —
// their payloads outlive the next Recv; the per-round messages decode
// into sc.
func decodeFrame(payload []byte, sc *decScratch) (any, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("transport: binary codec: empty frame")
	}
	tag := payload[0]
	r := wireReader{b: payload[1:]}
	var msg any
	switch tag {
	case tagHello:
		var m Hello
		m.ClientID = r.num()
		m.Members = r.nums(nil)
		m.Weights = r.f64s(nil)
		msg = m
	case tagInit:
		var m Init
		m.K = r.num()
		m.Rounds = r.num()
		m.QuantBits = r.num()
		m.Window = r.num()
		m.RunID = r.u64()
		m.Params = r.f64s(nil)
		m.Shards = r.strs(nil)
		msg = m
	case tagUpload:
		msg = r.upload(sc)
	case tagBroadcast:
		msg = r.broadcast(sc)
	case tagShardHello:
		var m ShardHello
		m.Addr = r.str()
		m.ID = r.num()
		m.HasID = r.bool_()
		msg = m
	case tagShardAssign:
		var m ShardAssign
		m.ShardID = r.num()
		m.NumShards = r.num()
		m.Dim = r.num()
		m.Rounds = r.num()
		m.QuantBits = r.num()
		m.StartRound = r.num()
		m.Window = r.num()
		m.NumHosts = r.num()
		m.Weights = r.f64s(nil)
		msg = m
	case tagShardResult:
		msg = r.shardResult(sc)
	case tagDataHello:
		var m DataHello
		m.ClientID = r.num()
		m.ShardID = r.num()
		m.NumShards = r.num()
		m.Dim = r.num()
		m.Members = r.nums(nil)
		msg = m
	case tagSliceUpload:
		msg = r.sliceUpload(sc)
	case tagRoundMeta:
		var m RoundMeta
		m.ClientID = r.num()
		m.Round = r.num()
		m.BatchLoss = r.f64()
		m.UploadLen = r.num()
		msg = m
	case tagFillQuery:
		var m FillQuery
		m.Round = r.num()
		m.Kappa = r.num()
		msg = m
	case tagFillCandidates:
		msg = r.fillCandidates(sc)
	case tagRoundSeal:
		msg = r.roundSeal(sc)
	case tagSliceFetch:
		var m SliceFetch
		m.ClientID = r.num()
		m.Round = r.num()
		msg = m
	case tagSliceBroadcast:
		msg = r.sliceBroadcast(sc)
	case tagRoundRelease:
		var m RoundRelease
		m.Round = r.num()
		m.Elems = r.num()
		msg = m
	case tagRejoin:
		var m Rejoin
		m.RunID = r.u64()
		m.Kind = r.num()
		m.ID = r.num()
		m.Round = r.num()
		m.LastSeal = r.num()
		m.Fresh = r.bool_()
		m.Addr = r.str()
		msg = m
	case tagRejoinAck:
		var m RejoinAck
		m.RunID = r.u64()
		m.Round = r.num()
		m.NeedFrom = r.num()
		msg = m
	case tagRedo:
		var m Redo
		m.Round = r.num()
		m.ShardID = r.num()
		m.Addr = r.str()
		msg = m
	case tagMuxFrame:
		vid := r.num()
		innerLen := r.num()
		if r.err != nil {
			return nil, r.err
		}
		if innerLen < 1 || innerLen > len(r.b) {
			return nil, fmt.Errorf("transport: binary codec: nested frame length %d outside [1, %d]", innerLen, len(r.b))
		}
		if r.b[0] == tagMuxFrame {
			return nil, fmt.Errorf("transport: binary codec: MuxFrame nested inside MuxFrame")
		}
		inner, err := decodeFrame(r.b[:innerLen], sc)
		if err != nil {
			return nil, err
		}
		r.b = r.b[innerLen:]
		msg = MuxFrame{VID: vid, Msg: inner}
	case tagCohortAssign:
		var m CohortAssign
		m.Round = r.num()
		m.Members = r.nums(nil)
		msg = m
	default:
		return nil, fmt.Errorf("transport: binary codec: unknown message type tag %d", tag)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("transport: binary codec: %d trailing bytes after %T", len(r.b), msg)
	}
	return msg, nil
}

// binConn is a Conn over any net.Conn using the binary frame codec —
// the default wire codec (Dial and Listener.Accept build these). Close
// semantics match memConn and gobConn: Close is idempotent, Send on a
// closed connection reports ErrClosed, Recv after either endpoint
// closes reports io.EOF. After the first framing or decode error the
// receive side is poisoned: the stream position is untrustworthy, so
// every later Recv fails fast with the same error instead of
// misparsing whatever bytes follow.
type binConn struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
	sc   decScratch

	recvErr   error
	sendMu    sync.Mutex
	closeOnce sync.Once
	closed    atomic.Bool

	// Cumulative wire bytes (frame headers included), maintained
	// atomically so the coordinator's metrics layer can sample them
	// from another goroutine (see ByteCounter).
	sent, received atomic.Uint64
}

// ByteCounter reports a connection's cumulative wire traffic. The
// binary codec's connections implement it; the transport round loops
// sample the counters at round boundaries to fill RoundEvent.BytesUp/
// BytesDown. Connections without wire framing (in-memory pairs) do
// not implement it and contribute nothing.
type ByteCounter interface {
	// BytesSent/BytesReceived are monotone cumulative byte counts,
	// safe to call concurrently with Send/Recv.
	BytesSent() uint64
	BytesReceived() uint64
}

func (c *binConn) BytesSent() uint64     { return c.sent.Load() }
func (c *binConn) BytesReceived() uint64 { return c.received.Load() }

// NewBinConn wraps a network connection with the binary frame codec.
func NewBinConn(conn net.Conn) Conn {
	return &binConn{conn: conn, br: bufio.NewReaderSize(conn, 1<<16)}
}

func (c *binConn) Send(msg any) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	b, err := appendFrame(c.wbuf[:0], msg)
	if err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	c.wbuf = b
	if _, err := c.conn.Write(b); err != nil {
		if c.closed.Load() || closedConnErr(err) {
			return ErrClosed
		}
		return fmt.Errorf("transport: send: %w", err)
	}
	c.sent.Add(uint64(len(b)))
	return nil
}

func (c *binConn) Recv() (any, error) {
	if err := c.recvErr; err != nil {
		return nil, err
	}
	msg, err := c.recvMsg()
	if err != nil {
		c.recvErr = err
	}
	return msg, err
}

func (c *binConn) recvMsg() (any, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, c.recvIOErr(err, true)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 1 || n > maxFrame {
		return nil, fmt.Errorf("transport: recv: frame length %d outside [1, %d]", n, maxFrame)
	}
	// The buffer grows only as payload bytes arrive: a header alone, of
	// whatever declared length, cannot make the receiver allocate it.
	buf := c.rbuf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 1<<16)))
		}
		end := min(n, cap(buf))
		if _, err := io.ReadFull(c.br, buf[len(buf):end]); err != nil {
			return nil, c.recvIOErr(err, false)
		}
		buf = buf[:end]
	}
	c.rbuf = buf
	c.received.Add(uint64(4 + n))
	msg, err := decodeFrame(buf, &c.sc)
	if err != nil {
		return nil, fmt.Errorf("transport: recv: %w", err)
	}
	return msg, nil
}

// recvIOErr maps a read error: a clean EOF on a frame boundary is the
// peer's close (io.EOF, like a drained memConn); a closed connection
// in either direction is io.EOF too; an EOF inside a frame is a
// truncation and errors loudly.
func (c *binConn) recvIOErr(err error, atFrameBoundary bool) error {
	if atFrameBoundary && errors.Is(err, io.EOF) {
		return io.EOF
	}
	if c.closed.Load() || closedConnErr(err) {
		return io.EOF
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("transport: recv: truncated frame: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("transport: recv: %w", err)
}

func (c *binConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		err = c.conn.Close()
	})
	return err
}

// SetReadDeadline delegates to the underlying socket. A deadline that
// expires poisons the receive side like any other read error (the
// stream position is untrustworthy mid-frame), so it is only used on
// connections that are abandoned on timeout — the handshake paths.
func (c *binConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }
