package transport

// This file is the binary wire codec. One frame is
//
//	[payload length u32][type tag u8][fields]
//
// little endian, where the length counts everything after itself and is
// capped at maxFrame, so a malformed or hostile length errors the
// connection instead of OOM-ing the receiver. Each message type has one
// description, its code method, which visits its fields in wire order
// against a coder that either appends them to a buffer or consumes them
// from one; appendFrame and decodeFrame only dispatch on the type and
// the tag. The committed frames under testdata/golden pin every byte.
// A binConn decodes the per-round messages into per-connection scratch
// (decScratch), so both ends run them allocation-free in steady state;
// boxing the decoded struct into Recv's `any` is the one allocation
// left. Every int slice travels as one int block (nums): a strictly
// ascending list — a broadcast's or slice's coordinates, a slice's
// ranks, a seal's or cohort's members — as Rice-coded gaps or uvarint
// gaps, whichever is shorter, anything else — an upload's coordinates in
// rank order, min-ranks — bit-packed at the width of its largest value.
// Every gradient value list travels as one value block (vals): on its
// message's quantization grid, a list whose magnitudes never grow — an
// upload in rank order — as sign bits and unary magnitude steps, any
// other grid list bit-packed. Off the grid, the block codes the IEEE-754
// bits losslessly: a list whose magnitudes never grow — a raw upload in
// rank order — as Rice-coded magnitude drops, any other list as packed
// exponent offsets beside the sign and mantissa bits, and as raw floats
// where neither is shorter.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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

// The descriptions: each runs c over m's fields in wire order and
// returns m — decoded, when c decodes — and its tag. A per-round
// message's slices decode into the connection's decScratch slots, a
// handshake message's (and CohortAssign's) into fresh memory.

func (m Hello) code(c *coder) (Hello, byte) {
	c.num(&m.ClientID)
	c.nums(&m.Members, nil)
	c.f64s(&m.Weights, nil)
	return m, tagHello
}

func (m Init) code(c *coder) (Init, byte) {
	c.num(&m.K)
	c.num(&m.Rounds)
	c.num(&m.QuantBits)
	c.num(&m.Window)
	c.u64(&m.RunID)
	c.f64s(&m.Params, nil)
	c.strs(&m.Shards)
	return m, tagInit
}

func (m Upload) code(c *coder) (Upload, byte) {
	c.num(&m.ClientID)
	c.num(&m.Round)
	c.f64(&m.BatchLoss)
	c.quant(&m.Bits, &m.Scale)
	c.nums(&m.Idx, &c.sc.is1)
	c.vals(&m.Val, &c.sc.fs1, m.Bits, m.Scale)
	return m, tagUpload
}

func (m Broadcast) code(c *coder) (Broadcast, byte) {
	c.num(&m.Round)
	c.quant(&m.Bits, &m.Scale)
	c.nums(&m.Idx, &c.sc.is1)
	c.vals(&m.Val, &c.sc.fs1, m.Bits, m.Scale)
	return m, tagBroadcast
}

func (m ShardHello) code(c *coder) (ShardHello, byte) {
	c.str(&m.Addr)
	c.num(&m.ID)
	c.flag(&m.HasID)
	return m, tagShardHello
}

func (m ShardAssign) code(c *coder) (ShardAssign, byte) {
	c.num(&m.ShardID)
	c.num(&m.NumShards)
	c.num(&m.Dim)
	c.num(&m.Rounds)
	c.num(&m.QuantBits)
	c.num(&m.StartRound)
	c.num(&m.Window)
	c.num(&m.NumHosts)
	c.f64s(&m.Weights, nil)
	return m, tagShardAssign
}

func (m ShardResult) code(c *coder) (ShardResult, byte) {
	c.num(&m.Round)
	c.num(&m.ShardID)
	c.nums(&m.Idx, &c.sc.is1)
	c.f64s(&m.Sum, &c.sc.fs1)
	c.nums(&m.MinRank, &c.sc.is2)
	c.nums(&m.Hist, &c.sc.is3)
	return m, tagShardResult
}

func (m DataHello) code(c *coder) (DataHello, byte) {
	c.num(&m.ClientID)
	c.num(&m.ShardID)
	c.num(&m.NumShards)
	c.num(&m.Dim)
	c.nums(&m.Members, nil)
	return m, tagDataHello
}

func (m SliceUpload) code(c *coder) (SliceUpload, byte) {
	c.num(&m.ClientID)
	c.num(&m.Round)
	c.quant(&m.Bits, &m.Scale)
	c.nums(&m.Idx, &c.sc.is1)
	c.vals(&m.Val, &c.sc.fs1, m.Bits, m.Scale)
	c.nums(&m.Rank, &c.sc.is2)
	return m, tagSliceUpload
}

func (m RoundMeta) code(c *coder) (RoundMeta, byte) {
	c.num(&m.ClientID)
	c.num(&m.Round)
	c.f64(&m.BatchLoss)
	c.num(&m.UploadLen)
	return m, tagRoundMeta
}

func (m FillQuery) code(c *coder) (FillQuery, byte) {
	c.num(&m.Round)
	c.num(&m.Kappa)
	return m, tagFillQuery
}

func (m FillCandidates) code(c *coder) (FillCandidates, byte) {
	c.num(&m.Round)
	c.num(&m.ShardID)
	c.nums(&m.Client, &c.sc.is1)
	c.nums(&m.Idx, &c.sc.is2)
	c.f64s(&m.AbsVal, &c.sc.fs1)
	c.f64s(&m.Sum, &c.sc.fs2)
	c.f64(&m.Max)
	return m, tagFillCandidates
}

func (m RoundSeal) code(c *coder) (RoundSeal, byte) {
	c.num(&m.Round)
	c.num(&m.Kappa)
	c.quant(&m.Bits, &m.Scale)
	c.nums(&m.Members, &c.sc.is1)
	return m, tagRoundSeal
}

func (m SliceFetch) code(c *coder) (SliceFetch, byte) {
	c.num(&m.ClientID)
	c.num(&m.Round)
	return m, tagSliceFetch
}

func (m SliceBroadcast) code(c *coder) (SliceBroadcast, byte) {
	c.num(&m.Round)
	c.num(&m.ShardID)
	c.quant(&m.Bits, &m.Scale)
	c.nums(&m.Idx, &c.sc.is1)
	c.vals(&m.Val, &c.sc.fs1, m.Bits, m.Scale)
	return m, tagSliceBroadcast
}

func (m RoundRelease) code(c *coder) (RoundRelease, byte) {
	c.num(&m.Round)
	c.num(&m.Elems)
	return m, tagRoundRelease
}

func (m Rejoin) code(c *coder) (Rejoin, byte) {
	c.u64(&m.RunID)
	c.num(&m.Kind)
	c.num(&m.ID)
	c.num(&m.Round)
	c.num(&m.LastSeal)
	c.flag(&m.Fresh)
	c.str(&m.Addr)
	return m, tagRejoin
}

func (m RejoinAck) code(c *coder) (RejoinAck, byte) {
	c.u64(&m.RunID)
	c.num(&m.Round)
	c.num(&m.NeedFrom)
	return m, tagRejoinAck
}

func (m Redo) code(c *coder) (Redo, byte) {
	c.num(&m.Round)
	c.num(&m.ShardID)
	c.str(&m.Addr)
	return m, tagRedo
}

func (m MuxFrame) code(c *coder) (MuxFrame, byte) {
	c.num(&m.VID)
	c.frame(&m.Msg)
	return m, tagMuxFrame
}

func (m CohortAssign) code(c *coder) (CohortAssign, byte) {
	c.num(&m.Round)
	c.nums(&m.Members, nil)
	return m, tagCohortAssign
}

// appendFrame encodes msg as one complete wire frame appended to b. A
// Broadcast or SliceBroadcast that carries its own frame (see carried)
// is appended as those bytes.
func appendFrame(b []byte, msg any) ([]byte, error) {
	c := coder{b: append(b, 0, 0, 0, 0, 0)}
	var tag byte
	switch m := msg.(type) {
	case Hello:
		_, tag = m.code(&c)
	case Init:
		_, tag = m.code(&c)
	case Upload:
		_, tag = m.code(&c)
	case Broadcast:
		if carried(m.frame, tagBroadcast, m.Round) {
			return append(b, m.frame...), nil
		}
		_, tag = m.code(&c)
	case ShardHello:
		_, tag = m.code(&c)
	case ShardAssign:
		_, tag = m.code(&c)
	case ShardResult:
		_, tag = m.code(&c)
	case DataHello:
		_, tag = m.code(&c)
	case SliceUpload:
		_, tag = m.code(&c)
	case RoundMeta:
		_, tag = m.code(&c)
	case FillQuery:
		_, tag = m.code(&c)
	case FillCandidates:
		_, tag = m.code(&c)
	case RoundSeal:
		_, tag = m.code(&c)
	case SliceFetch:
		_, tag = m.code(&c)
	case SliceBroadcast:
		if carried(m.frame, tagSliceBroadcast, m.Round) {
			return append(b, m.frame...), nil
		}
		_, tag = m.code(&c)
	case RoundRelease:
		_, tag = m.code(&c)
	case Rejoin:
		_, tag = m.code(&c)
	case RejoinAck:
		_, tag = m.code(&c)
	case Redo:
		_, tag = m.code(&c)
	case MuxFrame:
		_, tag = m.code(&c)
	case CohortAssign:
		_, tag = m.code(&c)
	default:
		return b, fmt.Errorf("transport: binary codec: unsupported message type %T", msg)
	}
	if err := c.finish(len(b), tag); err != nil {
		return b, err
	}
	return c.b, nil
}

// finish completes the frame that starts at c.b[start]: its length
// prefix and its tag.
func (c *coder) finish(start int, tag byte) error {
	n := len(c.b) - start - 4
	if n > maxFrame {
		c.fail("frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	if c.err != nil {
		return c.err
	}
	binary.LittleEndian.PutUint32(c.b[start:], uint32(n))
	c.b[start+4] = tag
	return nil
}

// A fan-out downlink — the routed coordinator's Broadcast to every
// client or host, a shard's SliceBroadcast to every fetcher — is encoded
// once per round by its sender (encodeFrame, the message's own code
// method into a buffer the sender reuses) and carries that frame, so
// each further Send copies bytes instead of running the codec again.
// Only the sender sets it: a decoded message never has one, and a
// memConn passes it along unread. The typed methods, not appendFrame,
// fill it: boxing the message into any for the encode costs an
// allocation a round.

// encodeFrame encodes m into buf's memory and carries the frame. It
// returns the buffer for the sender to reuse; on an encode error m
// carries nothing, and Send re-encodes and reports it.
func (m *Broadcast) encodeFrame(buf []byte) []byte {
	c := coder{b: frameBuf(buf, len(m.Idx))}
	_, tag := m.code(&c)
	if c.finish(0, tag) == nil {
		m.frame = c.b
	}
	return c.b
}

// encodeFrame is Broadcast.encodeFrame for a shard's slice.
func (m *SliceBroadcast) encodeFrame(buf []byte) []byte {
	c := coder{b: frameBuf(buf, len(m.Idx))}
	_, tag := m.code(&c)
	if c.finish(0, tag) == nil {
		m.frame = c.b
	}
	return c.b
}

// frameBuf empties buf for a frame of n index/value pairs, grown in one
// step to room for them at full precision (at most 13 bytes a pair: a
// 5-byte gap and a raw float) and the header fields, and appends the
// frame's header placeholder.
func frameBuf(buf []byte, n int) []byte {
	return append(slices.Grow(buf[:0], 64+13*n), 0, 0, 0, 0, 0)
}

// carried reports whether frame is a complete frame of tag for round:
// the encoding the message's sender made of it. A frame whose buffer
// the sender has since reused for another round or message fails the
// check and the message is encoded afresh, so a buffer reused too early
// costs time, never wrong bytes. Rewriting a buffer while a Send copies
// it is a data race, which the lifetime rule (runClientRounds) rules
// out.
func carried(frame []byte, tag byte, round int) bool {
	return len(frame) >= 9 && int(binary.LittleEndian.Uint32(frame)) == len(frame)-4 &&
		frame[4] == tag && int(binary.LittleEndian.Uint32(frame[5:])) == round
}

// decodeFrame decodes one frame payload (everything after the length
// prefix) into a protocol message, its per-round slices into sc.
func decodeFrame(payload []byte, sc *decScratch) (any, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("transport: binary codec: empty frame")
	}
	c := coder{b: payload[1:], dec: true, sc: *sc}
	var msg any
	switch tag := payload[0]; tag {
	case tagHello:
		msg, _ = Hello{}.code(&c)
	case tagInit:
		msg, _ = Init{}.code(&c)
	case tagUpload:
		msg, _ = Upload{}.code(&c)
	case tagBroadcast:
		msg, _ = Broadcast{}.code(&c)
	case tagShardHello:
		msg, _ = ShardHello{}.code(&c)
	case tagShardAssign:
		msg, _ = ShardAssign{}.code(&c)
	case tagShardResult:
		msg, _ = ShardResult{}.code(&c)
	case tagDataHello:
		msg, _ = DataHello{}.code(&c)
	case tagSliceUpload:
		msg, _ = SliceUpload{}.code(&c)
	case tagRoundMeta:
		msg, _ = RoundMeta{}.code(&c)
	case tagFillQuery:
		msg, _ = FillQuery{}.code(&c)
	case tagFillCandidates:
		msg, _ = FillCandidates{}.code(&c)
	case tagRoundSeal:
		msg, _ = RoundSeal{}.code(&c)
	case tagSliceFetch:
		msg, _ = SliceFetch{}.code(&c)
	case tagSliceBroadcast:
		msg, _ = SliceBroadcast{}.code(&c)
	case tagRoundRelease:
		msg, _ = RoundRelease{}.code(&c)
	case tagRejoin:
		msg, _ = Rejoin{}.code(&c)
	case tagRejoinAck:
		msg, _ = RejoinAck{}.code(&c)
	case tagRedo:
		msg, _ = Redo{}.code(&c)
	case tagMuxFrame:
		msg, _ = MuxFrame{}.code(&c)
	case tagCohortAssign:
		msg, _ = CohortAssign{}.code(&c)
	default:
		return nil, fmt.Errorf("transport: binary codec: unknown message type tag %d", tag)
	}
	*sc = c.sc // the slots, grown or not, serve the next frame
	if c.err != nil {
		return nil, c.err
	}
	if len(c.b) != 0 {
		return nil, fmt.Errorf("transport: binary codec: %d trailing bytes after %T", len(c.b), msg)
	}
	return msg, nil
}

// decScratch is a binConn's preallocated decode target: the protocol's
// messages carry at most three int slices and two float64 slices. Reuse is
// safe under the lockstep discipline that lets clients and shards reuse
// their pair buffers over in-memory conns: every handler finishes
// consuming message m from a connection before it Recvs m+1 on it.
type decScratch struct {
	is1, is2, is3 []int
	fs1, fs2      []float64
}

// coder is one pass over a message's fields: with dec false it appends
// them to b, with dec true it consumes them from b into the decode
// slots it holds for the pass. The first error latches, so a
// description stays a straight list of fields. It is a stack value the
// descriptions call directly: an interface call, or a pointer to a
// stack scratch, would move it to the heap.
type coder struct {
	b   []byte
	dec bool
	sc  decScratch
	err error
}

func (c *coder) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("transport: binary codec: "+format, args...)
	}
}

// take consumes the next n bytes of a frame being decoded, or fails
// short and returns nil.
func (c *coder) take(n int) (p []byte) {
	if c.err == nil && len(c.b) < n {
		c.fail("short frame")
	}
	if c.err == nil {
		p, c.b = c.b[:n], c.b[n:]
	}
	return p
}

// fits checks, decoding, that n elements of size bytes fit in the bytes
// left — before anything is allocated, so a hostile count cannot force
// a huge make.
func (c *coder) fits(n, size int, what string) bool {
	if c.err == nil && n > len(c.b)/size {
		c.fail("%s %d exceeds %d remaining bytes", what, n, len(c.b))
	}
	return c.err == nil
}

// slot returns n elements to decode into: the scratch slot *dst, grown
// if short and kept for the next frame, or fresh memory when dst is nil.
func slot[T any](dst *[]T, n int) []T {
	if dst == nil {
		dst = new([]T)
	}
	if cap(*dst) < n {
		*dst = make([]T, n)
	}
	*dst = (*dst)[:n]
	return *dst
}

// num is a protocol integer — an id, round, count or length, every one
// non-negative — as a u32. The ints of a slice travel as an int block
// (nums) instead.
func (c *coder) num(v *int) {
	if !c.dec && uint64(*v) > math.MaxUint32 {
		c.fail("integer %d outside u32", *v)
	} else if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*v))
	} else if p := c.take(4); p != nil {
		*v = int(binary.LittleEndian.Uint32(p))
	}
}

func (c *coder) u64(v *uint64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	} else if p := c.take(8); p != nil {
		*v = binary.LittleEndian.Uint64(p)
	}
}

// f64 is a float as its IEEE-754 bits.
func (c *coder) f64(v *float64) {
	bits := math.Float64bits(*v)
	c.u64(&bits)
	*v = math.Float64frombits(bits)
}

// flag is a bool as one byte, 1 or 0; any nonzero byte decodes true.
func (c *coder) flag(v *bool) {
	var u byte
	if *v {
		u = 1
	}
	if !c.dec {
		c.b = append(c.b, u)
	} else if p := c.take(1); p != nil {
		*v = p[0] != 0
	}
}

// str is a string: a u32 length, then its bytes.
func (c *coder) str(v *string) {
	n := len(*v)
	c.num(&n)
	if !c.dec {
		c.b = append(c.b, *v...)
	} else if c.fits(n, 1, "string length") {
		*v = string(c.take(n))
	}
}

// strs is a string slice: a u32 count, then the strings (each costs at
// least its 4-byte length), decoded into fresh memory.
func (c *coder) strs(v *[]string) {
	n := len(*v)
	c.num(&n)
	if c.dec && c.fits(n, 4, "string slice count") {
		*v = slot[string](nil, n)
	}
	for i := range *v {
		c.str(&(*v)[i])
	}
}

// The int block's encodings; putInts picks one as it writes the list.
const (
	// intsGaps is a strictly ascending list: the first value, then each
	// gap−1, as uvarints — about one byte a value at k = D/10.
	intsGaps = 1
	// intsPacked is any other list: a width byte w, w = max(1,
	// bits.Len(max)) ≤ 32, then every value in w bits, LSB first.
	intsPacked = 2
	// intsRice is a strictly ascending list whose Rice body is strictly
	// shorter than its gap body: a byte k ≤ 31, then two bit streams, LSB
	// first — the low k bits of every gap g = xᵢ − xᵢ₋₁ − 1 (x₋₁ = −1) at
	// a fixed k-bit stride, then every quotient g>>k in unary (as many 0
	// bits, then a 1) —, the last byte's spare bits zero. k is
	// bits.Len((last − first)/n) − 1, at least 0: about 4.6 bits a value
	// at k = D/10.
	intsRice = 3
)

// maxVarint32 is the longest uvarint a u32 takes.
const maxVarint32 = 5

// nums is an int slice — coordinates, ranks, member ids, every one a
// u32 — as an int block: a u32 count, an encoding byte (intsGaps,
// intsPacked or intsRice) and its body. The packed body decodes any list
// and the other two any strictly ascending one, so the codec stays
// lossless for arbitrary payloads, and no body can describe a value
// outside u32.
func (c *coder) nums(v *[]int, dst *[]int) {
	n := len(*v)
	c.num(&n)
	if !c.dec {
		c.putInts(*v)
		return
	}
	switch enc := c.take(1); {
	case enc == nil:
	case enc[0] == intsGaps:
		if c.fits(n, 1, "gap-coded int count") {
			*v = slot(dst, n)
			c.ungap(*v)
		}
	case enc[0] == intsRice:
		c.getRice(v, dst, n)
	case enc[0] != intsPacked:
		c.fail("unknown int encoding %d", enc[0])
	default:
		w := c.take(1)
		if w == nil {
			return
		}
		if w[0] < 1 || w[0] > 32 {
			c.fail("int width %d outside [1, 32]", w[0])
			return
		}
		nbytes := (n*int(w[0]) + 7) / 8
		if nbytes > len(c.b) {
			c.fail("packed int count %d (%d bytes) exceeds %d remaining bytes", n, nbytes, len(c.b))
			return
		}
		*v = slot(dst, n)
		unpackInts(*v, c.b[:nbytes], uint(w[0]))
		c.b = c.b[nbytes:]
	}
}

// putInts appends v's encoding byte and body. A list whose Rice body is
// bounded below n bytes, which no gap body undercuts, is Rice-coded in
// one pass. Otherwise it gap-codes while v ascends, summing the Rice
// quotients as it goes, and rewrites the list Rice-coded when that body
// is the strictly shorter one. At the first value that does not ascend
// (or lies outside u32) either pass drops what it wrote and packs v
// instead, so an ascending list costs one or two passes and an upload's
// rank-order list two.
func (c *coder) putInts(v []int) {
	at, n := len(c.b), len(v)
	k := uint(0)
	if n > 0 && 0 <= v[0] && v[0] <= v[n-1] && v[n-1] <= math.MaxUint32 {
		k = riceK(v[0], v[n-1], n)
		if riceBytes(n, k, v[n-1]>>k) < n {
			if c.rice(v, k, v[n-1]>>k) {
				return
			}
			c.putPacked(v)
			return
		}
	}
	b, prev, quot := append(c.b, intsGaps), -1, 0
	for _, x := range v {
		g := x - prev - 1
		if g < 0 || uint64(x) > math.MaxUint32 {
			c.putPacked(v)
			return
		}
		if g < 0x80 {
			b = append(b, byte(g))
		} else {
			b = binary.AppendUvarint(b, uint64(g))
		}
		quot += g >> k
		prev = x
	}
	if c.b = b; n > 0 && riceBytes(n, k, quot) < len(b)-at-1 {
		c.b = b[:at]
		c.rice(v, k, quot)
	}
}

// putPacked appends v packed: the width byte, then the values. The OR
// of v has the max's bit length, and the sign of a negative value.
func (c *coder) putPacked(v []int) {
	or := 0
	for _, x := range v {
		or |= x
	}
	if uint64(or) > math.MaxUint32 {
		for _, x := range v {
			if uint64(x) > math.MaxUint32 {
				c.fail("integer %d outside u32", x)
				return
			}
		}
	}
	w := max(1, bits.Len(uint(or)))
	c.b = packInts(append(c.b, intsPacked, byte(w)), v, uint(w))
}

// riceK is the Rice parameter of a strictly ascending list of n values
// from first to last: the bit length of its mean gap, less one.
func riceK(first, last, n int) uint {
	return uint(max(0, bits.Len(uint((last-first)/n))-1))
}

// riceBytes is the size of a Rice body of n values at parameter k whose
// quotients sum to quot: the k byte, then k + 1 + the quotient bits a
// value. The quotients of a strictly ascending list ending at x sum to
// at most x>>k, since the gaps sum to x − (n − 1).
func riceBytes(n int, k uint, quot int) int {
	return 1 + (n*int(k+1)+quot+7)/8
}

// rice appends the encoding byte and Rice body of v at parameter k,
// whose quotients sum to at most quot, and reports true, or appends
// nothing and reports false at the first value that does not ascend or
// lies outside u32, or whose 1 lies past that bound, which only a list
// that does not ascend reaches. It zeroes room for the bound, sets each
// value's 1 in the quotient stream — at the bit after the one before,
// plus q — a word at a time (qw) as it checks v, then writes the low
// stream a word at a time (lw); at k = 0 there is none.
func (c *coder) rice(v []int, k uint, quot int) bool {
	at := len(c.b)
	body := riceBytes(len(v), k, quot) - 1 // the bound past the k byte
	b := slices.Grow(c.b, 2+body+8)[:at+2+body+8]
	clear(b[at:])
	b[at], b[at+1] = intsRice, byte(k)
	p := b[at+2:]           // the body and a word of slack
	k &= 31                 // as it is: a mean gap has at most 32 bits
	t := uint(len(v))*k - 1 // the bit of the last 1 set
	var qw uint64
	qo := (t + 1) &^ 63 // the bit qw's bit 0 stands for
	prev := -1
	for _, x := range v {
		g := x - prev - 1
		if g < 0 || uint64(x) > math.MaxUint32 {
			return false
		}
		prev = x
		if t += uint(g)>>k + 1; t&^63 != qo {
			if t>>3 >= uint(body) {
				return false
			}
			putOr(p[qo>>3:], qw)
			qo, qw = t&^63, 0
		}
		qw |= 1 << (t & 63)
	}
	putOr(p[qo>>3:], qw)
	if k > 0 {
		mask := uint64(1)<<k - 1
		var lw uint64
		nb, o := uint(0), 0 // bits pending in lw, always < 64; the byte lw goes to
		prev = -1
		for _, x := range v {
			low := uint64(x-prev-1) & mask
			prev = x
			lw |= low << nb
			if nb += k; nb >= 64 {
				binary.LittleEndian.PutUint64(p[o:], lw)
				o, nb = o+8, nb-64
				lw = low >> (k - nb)
			}
		}
		putOr(p[o:], lw) // the last low bits share a word with the first 1s
	}
	c.b = b[:at+2+int(t/8)+1]
	return true
}

// putOr ors x into the 64-bit little-endian word at p.
func putOr(p []byte, x uint64) {
	binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)|x)
}

// getRice decodes a Rice body of n values into *v, refusing a k past 31
// and a count the bytes left cannot hold at k + 1 bits a value before it
// allocates, then a quotient stream that runs past the frame, a value
// past MaxUint32 and nonzero spare bits.
func (c *coder) getRice(v *[]int, dst *[]int, n int) {
	h := c.take(1)
	if h == nil {
		return
	}
	k := int(h[0])
	if k > 31 {
		c.fail("Rice-coded ints with parameter %d above 31", k)
		return
	}
	if n*(k+1) > 8*len(c.b) {
		c.fail("Rice-coded int count %d exceeds %d remaining bytes at %d bits a value", n, len(c.b), k+1)
		return
	}
	*v = slot(dst, n)
	end, i, over := unrice(*v, c.b, uint(k))
	switch {
	case over:
		c.fail("Rice-coded int %d outside u32", i)
	case i < n:
		c.fail("Rice-coded int %d runs past the frame", i)
	case spareBits(c.b, end):
		c.fail("nonzero spare bits after %d Rice-coded ints", n)
	default:
		c.b = c.b[(end+7)/8:]
	}
}

// unrice decodes len(s) Rice-coded values from p at parameter k, where
// len(s)·(k+1) ≤ 8·len(p), and returns the bit position after the last
// quotient and the number of values decoded: i < len(s) names value i's
// fault, past MaxUint32 when over is set and a quotient stream that runs
// past p otherwise. It takes the quotient stream a word at a time (w),
// one set bit per value, so no value's position waits on the value
// before it, and stores each value's bit t; at k = 0 that is the value.
// Then it adds the low parts, k bits at a time off a second word (lw):
// value i is its quotients' sum u = t − start − i shifted by k, plus
// its low parts' sum and i. A u past MaxUint32>>k is held at one more,
// which keeps every value exact up to MaxUint32 and past it after, so
// the values ascend and only the last needs checking.
func unrice(s []int, p []byte, k uint) (end uint, i int, over bool) {
	if len(s) == 0 {
		return 0, 0, false
	}
	k &= 31
	start := uint(len(s)) * k // the quotient stream's first bit
	pos := start &^ 7         // the bit of p that w's bit 0 holds
	w := window(p, pos) >> (start & 7) << (start & 7)
	var t uint // the bit of value i's 1
	for {
		for ; w != 0 && i < len(s); i++ {
			t = pos + uint(bits.TrailingZeros64(w))
			w &= w - 1
			s[i] = int(t)
		}
		if i == len(s) {
			break
		}
		if pos += 64; pos >= 8*uint(len(p)) {
			return t + 1, i, false
		}
		w = window(p, pos)
	}
	if k > 0 {
		mask, umax := uint64(1)<<k-1, uint64(math.MaxUint32)>>k+1
		lw, lpos, lavail := window(p, 0), uint(0), uint(64) // lavail low bits from bit lpos on
		var sum uint64                                      // the low parts of values 0..j
		for j, tj := range s {
			if lavail < k {
				lw, lavail = window(p, lpos), 64-lpos&7
			}
			sum += lw & mask
			lw, lavail, lpos = lw>>k, lavail-k, lpos+k
			s[j] = int(min(uint64(tj)-uint64(start)-uint64(j), umax)<<k + sum + uint64(j))
		}
	}
	if s[len(s)-1] > math.MaxUint32 {
		i, _ = slices.BinarySearch(s, math.MaxUint32+1)
		return t + 1, i, true
	}
	return t + 1, len(s), false
}

// ungap decodes len(s) gap-coded values, refusing a uvarint longer than
// a u32's and a running sum past MaxUint32. A one-byte gap adds at most
// 128, so only a longer one is checked as it is read, and the last
// value, the largest, at the end.
func (c *coder) ungap(s []int) {
	b, pos, next := c.b, 0, uint64(0) // next is the least value s[i] can take
	for i := range s {
		if pos < len(b) && b[pos] < 0x80 {
			s[i] = int(next + uint64(b[pos]))
			next += uint64(b[pos]) + 1
			pos++
			continue
		}
		rest := b[pos:]
		g, k := binary.Uvarint(rest[:min(len(rest), maxVarint32)])
		switch {
		case k <= 0 && len(rest) > maxVarint32:
			c.fail("int gap varint longer than %d bytes", maxVarint32)
			return
		case k <= 0:
			c.fail("short frame")
			return
		case next+g > math.MaxUint32:
			c.fail("gap-coded int %d outside u32", next+g)
			return
		}
		s[i] = int(next + g)
		next += g + 1
		pos += k
	}
	if next > math.MaxUint32+1 {
		c.fail("gap-coded int %d outside u32", next-1)
		return
	}
	c.b = b[pos:]
}

// packInts appends v at w bits a value, LSB first: ceil(len(v)·w/8)
// bytes, the last one's spare bits zero.
func packInts(b []byte, v []int, w uint) []byte {
	var acc uint64
	nb := uint(0) // bits pending in acc, always < 32 between values
	for _, x := range v {
		acc |= uint64(x) << nb
		b, acc, nb = appendWord(b, acc, nb+w)
	}
	return appendTail(b, acc, nb)
}

// appendWord appends the low 32 of the nb bits pending in acc once there
// are that many, and returns what is left pending: fewer than 32 bits
// when nb < 64. Every bit writer of the codec (packInts, pack, steps,
// and through appendCode drops and exps) keeps acc and nb in locals, so
// that they stay in registers, and passes them through here or there.
func appendWord(b []byte, acc uint64, nb uint) ([]byte, uint64, uint) {
	if nb >= 32 {
		b = binary.LittleEndian.AppendUint32(b, uint32(acc))
		acc >>= 32
		nb -= 32
	}
	return b, acc, nb
}

// appendTail appends the nb bits pending in acc, the last byte's spare
// bits zero.
func appendTail(b []byte, acc uint64, nb uint) []byte {
	for ; nb > 0; nb -= min(nb, 8) {
		b = append(b, byte(acc))
		acc >>= 8
	}
	return b
}

// unpackInts decodes len(s) w-bit values from p: each is one window
// read at its first bit, masked (w ≤ 32 fits the window's 57 bits).
func unpackInts(s []int, p []byte, w uint) {
	mask := uint64(1)<<w - 1
	for i := range s {
		s[i] = int(window(p, uint(i)*w) & mask)
	}
}

// window is the codec's one bit reader: the 64-bit little-endian load at
// the byte of p holding bit pos, shifted so that bit pos is its bit 0 —
// at least 57 bits of p from pos on, zeros past p's end. Only a load
// within p's last 8 bytes takes the copy in windowTail.
func window(p []byte, pos uint) uint64 {
	if i := pos >> 3; i+8 <= uint(len(p)) {
		return binary.LittleEndian.Uint64(p[i:]) >> (pos & 7)
	}
	return windowTail(p, pos)
}

// windowTail is window's load near p's end, from a zero-padded copy.
func windowTail(p []byte, pos uint) uint64 {
	var t [8]byte
	if i := pos >> 3; i < uint(len(p)) {
		copy(t[:], p[i:])
	}
	return binary.LittleEndian.Uint64(t[:]) >> (pos & 7)
}

// f64s is a float slice: a u32 count, then the raw floats.
func (c *coder) f64s(v *[]float64, dst *[]float64) {
	n := len(*v)
	c.num(&n)
	c.raw(v, dst, n, "float slice count")
}

// raw is n floats as their IEEE-754 bits, after a count written by the
// caller.
func (c *coder) raw(v *[]float64, dst *[]float64, n int, what string) {
	if !c.dec {
		for _, x := range *v {
			c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(x))
		}
	} else if c.fits(n, 8, what) {
		s, b := slot(dst, n), c.b
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		c.b = b[8*n:]
		*v = s
	}
}

// quant is a message's quantization header, checked on decode: Bits is
// 0 (off) or a real width, Scale a finite non-negative real. A NaN or
// Inf scale is a corrupt or hostile frame and errors the connection.
func (c *coder) quant(bits *int, scale *float64) {
	c.num(bits)
	c.f64(scale)
	if b := *bits; c.dec && b != 0 && (b < 2 || b > 64) {
		c.fail("quantization width %d outside 0 or [2, 64]", b)
	}
	if s := *scale; c.dec && (math.IsNaN(s) || math.IsInf(s, 0) || s < 0) {
		c.fail("quantization scale %v is not a finite non-negative real", s)
	}
}

// The value block's encodings; putVals picks one as it writes the block.
const (
	// valsRaw is any list: every value as its IEEE-754 bits.
	valsRaw = 0
	// valsPacked is a list on the message's b-bit grid: every value as
	// its biased code q+levels in b bits, LSB first, −0 as the top code
	// 2^b−1 that no q uses.
	valsPacked = 1
	// valsSteps is a grid list whose magnitudes never grow, an upload in
	// rank order: per value a sign bit, then the drop of its magnitude
	// |q| from the one before (from levels, for the first) in unary — as
	// many 0 bits, then a 1 —, LSB first, the last byte's spare bits zero.
	valsSteps = 2
	// valsDrops is a list whose magnitude bits (a value's IEEE-754 bits
	// without the sign, the key top-k ranks by) never grow, a raw upload
	// in rank order: a byte k ≤ 62, the first value's bits as a u64, then
	// per later value, LSB first, its sign bit and the Rice code of its
	// magnitude's drop d from the one before — d>>k in unary, as the step
	// body writes a drop, then d's low k bits —, the last byte's spare
	// bits zero.
	valsDrops = 3
	// valsExps is any other list: the top biased exponent E as a u16 and
	// a width byte w = bits.Len(E − the lowest exponent) ≤ 11, then per
	// value, LSB first, its sign bit, E − its exponent in w bits and its
	// 52 mantissa bits, the last byte's spare bits zero.
	valsExps = 4
)

// signBit is a float's IEEE-754 sign bit; the bits without it are the
// value's magnitude bits, which order as the magnitudes do.
const signBit = 1 << 63

// vals is a gradient value block on the grid of its message's quant
// header: a u32 count, an encoding byte (valsRaw, valsPacked, valsSteps,
// valsDrops or valsExps) and its body. Values on a b-bit grid travel as
// their grid indices q, from which the receiver rebuilds them bit for
// bit; anything else (quantization off, a raw payload, a NaN) travels as
// its IEEE-754 bits, drop-coded, exponent-coded or raw, so the codec is
// lossless for arbitrary payloads and every body but raw is purely an
// encoding optimization.
func (c *coder) vals(v *[]float64, dst *[]float64, bits int, scale float64) {
	n := len(*v)
	c.num(&n)
	if !c.dec {
		c.putVals(*v, bits, scale)
		return
	}
	nbytes := (n*bits + 7) / 8
	switch enc := c.take(1); {
	case enc == nil:
	case enc[0] == valsRaw:
		c.raw(v, dst, n, "value count")
	case enc[0] == valsPacked && !onGrid(bits, scale):
		c.fail("packed values with quantization width %d and scale %v", bits, scale)
	case enc[0] == valsPacked && nbytes > len(c.b):
		c.fail("packed value count %d (%d bytes) exceeds %d remaining bytes", n, nbytes, len(c.b))
	case enc[0] == valsPacked:
		*v = slot(dst, n)
		unpack(*v, c.b[:nbytes], bits, scale)
		c.b = c.b[nbytes:]
	case enc[0] == valsDrops:
		c.getDrops(v, dst, n)
	case enc[0] == valsExps:
		c.getExps(v, dst, n)
	case enc[0] != valsSteps:
		c.fail("unknown value encoding %d", enc[0])
	case !onGrid(bits, scale):
		c.fail("step-coded values with quantization width %d and scale %v", bits, scale)
	case n > 4*len(c.b):
		c.fail("step-coded value count %d exceeds %d remaining bytes at 2 bits a value", n, len(c.b))
	default:
		*v = slot(dst, n)
		levels := int64(1)<<(bits-1) - 1
		pos, i, m := unsteps(*v, c.b, levels, scale/float64(levels))
		switch {
		case i < n && m < 0:
			c.fail("step-coded value %d drops below magnitude 0", i)
		case i < n:
			c.fail("step-coded value %d runs past the frame", i)
		case spareBits(c.b, pos):
			c.fail("nonzero spare bits after %d step-coded values", n)
		default:
			c.b = c.b[(pos+7)/8:]
		}
	}
}

// putVals appends the value block's encoding byte and body. It
// step-codes while the magnitudes do not grow; at the first value that
// breaks that, or once the body could no longer be shorter than the
// packed one, it drops what it wrote and packs instead. A list off the
// grid is drop-coded the same way while its magnitudes do not grow and
// the body stays strictly shorter than both the exponent body and raw,
// else exponent-coded when that is strictly shorter than raw, else raw.
// So a rank-order upload costs one pass and an index-order broadcast
// about two.
func (c *coder) putVals(v []float64, bits int, scale float64) {
	at := len(c.b)
	c.b = append(c.b, valsSteps)
	if c.steps(v, bits, scale) {
		return
	}
	if c.b[at] = valsPacked; c.pack(v, bits, scale) {
		return
	}
	if c.b[at] = valsDrops; c.drops(v) {
		return
	}
	if c.b[at] = valsExps; !c.exps(v) {
		c.b[at] = valsRaw
		c.raw(&v, nil, len(v), "")
	}
}

// onGrid reports whether (bits, scale) describe a grid values can pack
// on: b in [2, 32], scale finite and positive.
func onGrid(bits int, scale float64) bool {
	return bits >= 2 && bits <= 32 && scale > 0 && !math.IsInf(scale, 0)
}

// gridIndex is v's index q on the grid of step and levels, and whether v
// is that grid point: q·step == v with |q| ≤ levels. Values straight out
// of sparse.QuantizeInPlace / QuantizeToScale always are. RoundToEven
// differs from Round only on a tie q+½, which no grid point meets.
func gridIndex(v, step float64, levels int64) (int64, bool) {
	q := math.RoundToEven(v / step)
	return int64(q), math.Abs(q) <= float64(levels) && q*step == v
}

// steps appends val as a step body and reports true, or appends nothing
// and reports false when a value is off the grid, a magnitude exceeds
// the one before it, or the body would not be strictly shorter than the
// packed one: 2n + Σdrops ≤ 8·(packed bytes − 1) bits. That bound is
// checked before a drop is written, so a hostile list never writes more
// than the packed body would.
func (c *coder) steps(val []float64, bits int, scale float64) bool {
	n := len(val)
	if !onGrid(bits, scale) || n == 0 {
		return false
	}
	levels := int64(1)<<(bits-1) - 1
	step := scale / float64(levels)
	budget := 8*((n*bits+7)/8-1) - 2*n // the bits the drops may spend
	b, prev := c.b, levels
	var acc uint64
	nb := uint(0) // bits pending in acc, always < 32 between values
	for _, v := range val {
		q, ok := gridIndex(v, step, levels)
		m := max(q, -q)
		d := prev - m
		if !ok || d < 0 {
			return false
		}
		prev = m
		if budget -= int(d); budget < 0 {
			return false
		}
		sign := math.Float64bits(v) >> 63
		if d <= 30 {
			acc |= (sign | 2<<d) << nb
			nb += uint(d) + 2
		} else { // a longer run: the sign, 32 zeros at a time, the rest
			acc |= sign << nb
			for b, acc, nb = appendWord(b, acc, nb+1); d >= 32; d -= 32 {
				b, acc, nb = appendWord(b, acc, nb+32)
			}
			acc |= 1 << (nb + uint(d))
			nb += uint(d) + 1
		}
		b, acc, nb = appendWord(b, acc, nb)
	}
	c.b = appendTail(b, acc, nb)
	return true
}

// appendCode appends x, which has n ≤ 64 bits, to the nb < 64 bits
// pending in acc, and returns what is left pending: again fewer than 64,
// a full word appended as it fills. The drop and exponent writers, whose
// codes run to 64 bits, keep their state here instead of appendWord's
// 32-bit one.
func appendCode(b []byte, acc uint64, nb uint, x uint64, n uint) ([]byte, uint64, uint) {
	acc |= x << (nb & 63)
	if nb+n < 64 {
		return b, acc, nb + n
	}
	return binary.LittleEndian.AppendUint64(b, acc), x >> ((63 - nb) & 63) >> 1, nb + n - 64
}

// spareBits reports whether a bit body that ends at bit pos of p leaves a
// nonzero spare bit in its last byte.
func spareBits(p []byte, pos uint) bool {
	return pos&7 != 0 && p[pos>>3]>>(pos&7) != 0
}

// unsteps decodes step-coded values from p into s and returns the bit
// position it reached, the number of values decoded and the last
// magnitude: i < len(s) names value i's fault, a drop below magnitude 0
// when m < 0 and a run past p otherwise. It holds the bits from pos on
// in a register (w, of which avail are loaded) and takes each value off
// it: the sign bit, then the run of zeros up to the next 1. A run whose
// 1 lies past the loaded bits reloads them, and only a run longer than
// the window reads on (unstepsRun). It is its own function so that its
// loop state stays in registers.
func unsteps(s []float64, p []byte, levels int64, step float64) (pos uint, i int, m int64) {
	w, avail := window(p, 0), uint(64)
	m = levels
	for i < len(s) {
		d := uint(bits.TrailingZeros64(w >> 1))
		if d+2 > avail {
			w, avail = window(p, pos), 64-pos&7
			d = uint(bits.TrailingZeros64(w >> 1))
		}
		sign := w << 63
		if d+2 <= avail {
			w >>= d + 2
			avail -= d + 2
			pos += d + 2
		} else {
			var ok bool
			if d, pos, ok = unstepsRun(p, pos+1, uint(m)); !ok {
				return pos, i, m
			}
			w, avail = window(p, pos), 64-pos&7
		}
		if m -= int64(d); m < 0 {
			return pos, i, m
		}
		s[i] = math.Float64frombits(math.Float64bits(float64(m)*step) ^ sign)
		i++
	}
	return pos, len(s), m
}

// unstepsRun counts the zeros of a run from bit pos of p to its
// terminating 1 and returns them and the position after that 1; ok is
// false when p ends first. It stops early once the run exceeds limit.
func unstepsRun(p []byte, pos, limit uint) (d, next uint, ok bool) {
	for end := 8 * uint(len(p)); pos < end; {
		if w := window(p, pos); w != 0 {
			t := uint(bits.TrailingZeros64(w))
			return d + t, pos + t + 1, true
		}
		t := 64 - pos&7
		if d, pos = d+t, pos+t; d > limit {
			return d, pos, true
		}
	}
	return d, pos, false
}

// pack appends val as packed grid codes and reports true, or appends
// nothing and reports false when a value is off the grid. The codes are
// written as packInts writes ints.
func (c *coder) pack(val []float64, bits int, scale float64) bool {
	if !onGrid(bits, scale) || len(val) == 0 {
		return false
	}
	levels, top := int64(1)<<(bits-1)-1, uint64(1)<<bits-1
	step := scale / float64(levels)
	b := c.b
	var acc uint64
	nb, w := uint(0), uint(bits)
	for _, v := range val {
		q, ok := gridIndex(v, step, levels)
		if !ok {
			return false
		}
		code := uint64(q + levels)
		if v == 0 && math.Signbit(v) {
			code = top
		}
		acc |= code << nb
		b, acc, nb = appendWord(b, acc, nb+w)
	}
	c.b = appendTail(b, acc, nb)
	return true
}

// unpack decodes len(s) packed b-bit codes from p onto the (bits,
// scale) grid, one window read each.
func unpack(s []float64, p []byte, bits int, scale float64) {
	levels, top := int64(1)<<(bits-1)-1, uint64(1)<<bits-1
	step := scale / float64(levels)
	negZero := math.Copysign(0, -1)
	w := uint(bits)
	for i := range s {
		u := window(p, uint(i)*w) & top
		s[i] = float64(int64(u)-levels) * step
		if u == top {
			s[i] = negZero
		}
	}
}

// expsBytes is the size of an exponent body of n values whose biased
// exponents span [lo, top]: its 3 header bytes, then 53 + w bits a
// value.
func expsBytes(n int, top, lo uint64) int {
	return 3 + (n*(53+bits.Len64(top-lo))+7)/8
}

// drops appends v as a drop body and reports true, or appends nothing
// and reports false when v has fewer than two values, a magnitude
// exceeds the one before it, or the body would not be strictly shorter
// than both raw and the exponent body. Its k is the bit length of the
// mean drop, (first − last)/(n − 1), less one. While the magnitudes do
// not grow, the first and last values carry the top and lowest
// exponents, so the exponent body's size is known before the pass; the
// bound is checked before each quotient is written, as steps checks its
// own.
func (c *coder) drops(v []float64) bool {
	n := len(v)
	if n < 2 {
		return false
	}
	first, last := math.Float64bits(v[0])&^signBit, math.Float64bits(v[n-1])&^signBit
	if first < last {
		return false
	}
	k := uint(max(0, bits.Len64((first-last)/uint64(n-1))-1))
	limit := min(8*n, expsBytes(n, first>>52, last>>52))
	// The bits the quotients may spend: the body is the k byte, the
	// first value's 8 bytes and 2 + k + quotient bits a later value.
	budget := 8*(limit-10) - (n-1)*int(2+k)
	if budget < 0 {
		return false
	}
	b := binary.LittleEndian.AppendUint64(append(c.b, byte(k)), math.Float64bits(v[0]))
	low, prev := uint64(1)<<k-1, first
	var acc uint64
	nb := uint(0) // bits pending in acc, always < 64 between values
	for _, x := range v[1:] {
		u := math.Float64bits(x)
		m := u &^ signBit
		if m > prev {
			return false
		}
		d := prev - m
		prev = m
		q := d >> (k & 63)
		if q > uint64(budget) {
			return false
		}
		budget -= int(q)
		if q+uint64(k)+2 <= 64 { // the whole code in one word
			b, acc, nb = appendCode(b, acc, nb, u>>63|2<<(q&63)|(d&low)<<((q+2)&63), uint(q)+k+2)
			continue
		}
		// A longer run: the sign, 32 zeros at a time, the 1, the low bits.
		for b, acc, nb = appendCode(b, acc, nb, u>>63, 1); q >= 32; q -= 32 {
			b, acc, nb = appendCode(b, acc, nb, 0, 32)
		}
		b, acc, nb = appendCode(b, acc, nb, 1<<q, uint(q)+1)
		b, acc, nb = appendCode(b, acc, nb, d&low, k)
	}
	c.b = appendTail(b, acc, nb)
	return true
}

// getDrops decodes a drop body of n values into *v, refusing a k past 62
// and a count the bytes left cannot hold at 2 + k bits a value before it
// allocates.
func (c *coder) getDrops(v *[]float64, dst *[]float64, n int) {
	h := c.take(1)
	if h == nil {
		return
	}
	k := int(h[0])
	if k > 62 {
		c.fail("drop-coded values with Rice parameter %d above 62", k)
		return
	}
	if n*(2+k) > 8*len(c.b) {
		c.fail("drop-coded value count %d exceeds %d remaining bytes at %d bits a value", n, len(c.b), 2+k)
		return
	}
	*v = slot(dst, n)
	pos, i, below := undrops(*v, c.b, uint(k))
	switch {
	case i < n && below:
		c.fail("drop-coded value %d drops below magnitude 0", i)
	case i < n:
		c.fail("drop-coded value %d runs past the frame", i)
	case spareBits(c.b, pos):
		c.fail("nonzero spare bits after %d drop-coded values", n)
	default:
		c.b = c.b[(pos+7)/8:]
	}
}

// undrops decodes a drop body's bits p into s and returns the bit
// position it reached and the number of values decoded: i < len(s) names
// value i's fault, a drop below magnitude 0 when below is set and a run
// past p otherwise. A value whose sign, quotient and low bits lie in one
// window costs one load; a longer quotient is counted by unstepsRun.
func undrops(s []float64, p []byte, k uint) (pos uint, i int, below bool) {
	end := 8 * uint(len(p))
	if len(s) == 0 {
		return 0, 0, false
	}
	if end < 64 {
		return 64, 0, false
	}
	u := binary.LittleEndian.Uint64(p)
	s[0], pos = math.Float64frombits(u), 64
	m, low := u&^signBit, uint64(1)<<k-1
	for i = 1; i < len(s); i++ {
		w := window(p, pos)
		q := uint(bits.TrailingZeros64(w >> 1))
		var d uint64
		if q+k+2 <= 57 {
			d = uint64(q)<<(k&63) | w>>((q+2)&63)&low
			pos += q + k + 2
		} else {
			var ok bool
			if q, pos, ok = unstepsRun(p, pos+1, uint(m>>k)); !ok {
				return pos, i, false
			}
			if uint64(q) > m>>k {
				return pos, i, true
			}
			d = uint64(q)<<k | window64(p, pos)&low
			pos += k
		}
		switch {
		case pos > end:
			return pos, i, false
		case d > m:
			return pos, i, true
		}
		m -= d
		s[i] = math.Float64frombits(m | w<<63)
	}
	return pos, i, false
}

// window64 is the 64 bits of p from bit pos, for a code longer than the
// 57 bits one window holds: a second window tops up the first.
func window64(p []byte, pos uint) uint64 {
	return window(p, pos)&(1<<32-1) | window(p, pos+32)<<32
}

// exps appends v as an exponent body and reports true, or appends
// nothing and reports false when that body would not be strictly
// shorter than raw.
func (c *coder) exps(v []float64) bool {
	if len(v) == 0 {
		return false
	}
	top, lo := uint64(0), uint64(0x7ff)
	for _, x := range v {
		e := math.Float64bits(x) >> 52 & 0x7ff
		top, lo = max(top, e), min(lo, e)
	}
	if expsBytes(len(v), top, lo) >= 8*len(v) {
		return false
	}
	w := uint(bits.Len64(top - lo))
	b := append(binary.LittleEndian.AppendUint16(c.b, uint16(top)), byte(w))
	var acc uint64
	nb := uint(0) // bits pending in acc, always < 64 between values
	for _, x := range v {
		u := math.Float64bits(x)
		off := top - u>>52&0x7ff
		b, acc, nb = appendCode(b, acc, nb, u>>63|off<<1|u<<12>>12<<((w+1)&63), 53+w)
	}
	c.b = appendTail(b, acc, nb)
	return true
}

// getExps decodes an exponent body of n values into *v, refusing a top
// exponent past 0x7ff, a width past 11 and a count the bytes left cannot
// hold before it allocates.
func (c *coder) getExps(v *[]float64, dst *[]float64, n int) {
	h := c.take(3)
	if h == nil {
		return
	}
	top, w := uint64(binary.LittleEndian.Uint16(h)), uint(h[2])
	nbytes := (n*int(53+w) + 7) / 8
	switch {
	case top > 0x7ff:
		c.fail("exponent-coded values with top exponent %#x above 0x7ff", top)
	case w > 11:
		c.fail("exponent-coded values with offset width %d above 11", w)
	case nbytes > len(c.b):
		c.fail("exponent-coded value count %d (%d bytes) exceeds %d remaining bytes", n, nbytes, len(c.b))
	default:
		*v = slot(dst, n)
		if i := unexps(*v, c.b[:nbytes], top, w); i < n {
			c.fail("exponent-coded value %d's offset exceeds the top exponent %d", i, top)
		} else if spareBits(c.b, uint(n)*(53+w)) {
			c.fail("nonzero spare bits after %d exponent-coded values", n)
		} else {
			c.b = c.b[nbytes:]
		}
	}
}

// unexps decodes len(s) exponent-coded values of 53 + w bits from p and
// returns the number decoded: i < len(s) names the value whose exponent
// offset exceeds top. A value of at most 57 bits (w ≤ 4) is one window
// read, a longer one two.
func unexps(s []float64, p []byte, top uint64, w uint) int {
	per, offMask := 53+w, uint64(1)<<w-1
	for i := range s {
		pos := uint(i) * per
		x := window(p, pos)
		if per > 57 {
			x = window64(p, pos)
		}
		off := x >> 1 & offMask
		if off > top {
			return i
		}
		s[i] = math.Float64frombits(x<<63 | (top-off)<<52 | x>>((w+1)&63)&(1<<52-1))
	}
	return len(s)
}

// frame is a MuxFrame's enveloped message, a complete nested frame
// (length prefix included) so it reuses the frame machinery. A MuxFrame
// inside a MuxFrame is refused both ways.
func (c *coder) frame(v *any) {
	n := 0
	if c.dec {
		c.num(&n)
	}
	switch _, nested := (*v).(MuxFrame); {
	case nested || c.dec && c.fits(n, 1, "nested frame length") && n > 0 && c.b[0] == tagMuxFrame:
		c.fail("MuxFrame nested inside MuxFrame")
	case c.err != nil:
	case !c.dec:
		c.b, c.err = appendFrame(c.b, *v)
	default:
		*v, c.err = decodeFrame(c.b[:n], &c.sc)
		c.b = c.b[n:]
	}
}

// binConn is a Conn over any net.Conn using the binary frame codec
// (Dial and Listener.Accept build these). Close semantics match
// memConn: Close is idempotent, Send on a closed connection reports
// ErrClosed, Recv after either endpoint closes reports io.EOF. After the first framing or decode error the
// receive side is poisoned: the stream position is untrustworthy, so
// every later Recv fails fast with the same error instead of
// misparsing whatever bytes follow.
type binConn struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
	// hdr is the frame length Recv reads: held here, because a local
	// array escapes through io.ReadFull and costs a heap object per frame.
	// One reader at a time calls Recv (every link is read in protocol
	// order by its one owner), so the header is never shared.
	hdr [4]byte
	sc  decScratch

	recvErr   error
	sendMu    sync.Mutex
	closeOnce sync.Once
	closed    atomic.Bool

	// Cumulative wire bytes (frame headers included), maintained
	// atomically so the coordinator's metrics layer can sample them
	// from another goroutine (see ByteCounter).
	sent, received atomic.Uint64
}

// ByteCounter reports a connection's cumulative wire traffic: monotone
// byte counts, safe to call concurrently with Send/Recv. The binary
// codec's connections implement it; the transport round loops sample
// the counters at round boundaries to fill RoundEvent.BytesUp/
// BytesDown. Connections without wire framing (in-memory pairs) do
// not implement it and contribute nothing.
type ByteCounter interface {
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

func (c *binConn) Recv() (msg any, err error) {
	if c.recvErr != nil {
		return nil, c.recvErr
	}
	defer func() { c.recvErr = err }()
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return nil, c.recvIOErr(err, true)
	}
	n := int(binary.LittleEndian.Uint32(c.hdr[:]))
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
	if msg, err = decodeFrame(buf, &c.sc); err != nil {
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
