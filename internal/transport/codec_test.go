package transport

// Tests for the binary wire codec: the golden frames (every message's
// bytes pinned, decoded and re-encoded), the corrupted-frame suite (a
// malformed frame errors the connection and poisons it instead of
// wedging or misparsing), the int block and the value block (the
// encoding each picks per list shape, its exact size, every width),
// hard-close semantics over real TCP, and the quantized wire path
// (trajectory grids stay bit-identical across deployments while value
// bytes shrink more than 8× at QuantBits=8).

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsparse/internal/fl"
	"fedsparse/internal/sparse"
)

// codecFixtures returns one fixture per protocol message type, plus
// quantized variants of every value-carrying message. Slices are
// non-empty so the wire's nil-vs-empty ambiguity cannot mask a
// mismatch. Each has a golden frame (goldenName); append new ones at
// the end.
func codecFixtures() []any {
	qv := []float64{0.5, -1.25, 3.75, 0, 2.125}
	qscale := sparse.QuantizeInPlace(qv, 8)
	qb := []float64{-0.75, 0.0625, 1.5}
	qbscale := sparse.QuantizeInPlace(qb, 8)
	nz := []float64{1, -1e-9, 0.5}
	nzscale := sparse.QuantizeInPlace(nz, 8)
	// An upload's values in rank order: magnitudes that never grow, down
	// to a 0 and a −0.
	rv := make([]float64, 30)
	for i := range rv[:28] {
		rv[i] = float64(1-2*(i%3/2)) * (4 - 0.125*float64(i))
	}
	rv[28], rv[29] = 1e-9, -1e-9
	rvscale := sparse.QuantizeInPlace(rv, 8)
	rvidx := rand.New(rand.NewSource(3)).Perm(19874)[:30]
	// A raw upload's slice for shard 0 of 2, as shardFan.split cuts it:
	// its pairs in rank order with their ranks, and that shard's
	// downlink slice of the same coordinates in index order.
	ridx, rval := rawRankOrderUpload(160, 1600)
	var sidx, srank []int
	var sval []float64
	for r, j := range ridx {
		if j < 800 {
			sidx, sval, srank = append(sidx, j), append(sval, rval[r]), append(srank, r)
		}
	}
	bidx := slices.Sorted(slices.Values(sidx))
	bval := make([]float64, len(bidx))
	for i, j := range bidx {
		bval[i] = rval[slices.Index(ridx, j)] / 8
	}
	return []any{
		Hello{ClientID: 7, Members: []int{7}, Weights: []float64{2.5}},
		Hello{ClientID: 1, Members: []int{0, 4, 9}, Weights: []float64{3, 0.5, 12}},
		Init{Params: []float64{0.5, -1, 2}, K: 3, Rounds: 9, QuantBits: 8, RunID: 0xdeadbeefcafe0123, Shards: []string{"a:1", "b:2"}},
		Init{Params: []float64{1.5}, K: 1, Rounds: 4, Window: 3, Shards: []string{"c:3"}},
		// A non-finite VALUE is a legal raw payload (only a non-finite
		// quantization SCALE is a protocol error).
		Upload{ClientID: 1, Round: 2, Idx: []int{3, 9}, Val: []float64{1.5, math.Inf(-1)}, BatchLoss: 0.75},
		Upload{ClientID: 2, Round: 3, Idx: []int{0, 4, 8, 9, 30}, Val: qv, BatchLoss: 1.5, Bits: 8, Scale: qscale},
		Broadcast{Round: 3, Idx: []int{0, 4, 7}, Val: []float64{-1, 0.5, 2}},
		Broadcast{Round: 4, Idx: []int{2, 5, 6}, Val: qb, Bits: 8, Scale: qbscale},
		ShardHello{Addr: "127.0.0.1:9"},
		ShardHello{Addr: "127.0.0.1:10", ID: 1, HasID: true},
		ShardAssign{ShardID: 1, NumShards: 2, Dim: 32, Rounds: 5, Weights: []float64{1, 2, 3, 4}, QuantBits: 8, StartRound: 3},
		ShardAssign{ShardID: 0, NumShards: 1, Dim: 8, Rounds: 6, Weights: []float64{2}, StartRound: 1, Window: 2},
		ShardResult{Round: 1, ShardID: 0, Idx: []int{2, 5}, Sum: []float64{1.25, -3}, MinRank: []int{1, 0}},
		DataHello{ClientID: 2, ShardID: 1, NumShards: 2, Dim: 32, Members: []int{2}},
		DataHello{ClientID: 1, ShardID: 0, NumShards: 2, Dim: 32, Members: []int{0, 4, 9}},
		SliceUpload{ClientID: 1, Round: 4, Idx: []int{1, 6}, Val: []float64{0.25, -4}, Rank: []int{2, 7}},
		SliceUpload{ClientID: 3, Round: 5, Idx: []int{2, 11, 17}, Val: qb, Rank: []int{0, 5, 9}, Bits: 8, Scale: qbscale},
		RoundMeta{ClientID: 3, Round: 4, BatchLoss: 1.5, UploadLen: 40},
		FillQuery{Round: 2, Kappa: 39},
		FillCandidates{Round: 2, ShardID: 1, Client: []int{0, 2}, Idx: []int{9, 11}, AbsVal: []float64{0.5, 0.125},
			Sum: []float64{-0.25, 0.0625}, Max: 1.75},
		RoundSeal{Round: 2, Members: []int{1, 5, 9}, Bits: 8, Scale: qscale},
		SliceFetch{ClientID: 0, Round: 2},
		SliceBroadcast{Round: 2, ShardID: 0, Idx: []int{3, 5}, Val: []float64{0.5, -0.75}},
		SliceBroadcast{Round: 3, ShardID: 1, Idx: []int{7, 8, 12}, Val: qv[:3], Bits: 8, Scale: qscale},
		RoundRelease{Round: 2, Elems: 40},
		Rejoin{RunID: 0xdeadbeefcafe0123, Kind: RejoinShard, ID: 1, Round: 4, LastSeal: 3, Fresh: true, Addr: "127.0.0.1:9"},
		Rejoin{RunID: 1, Kind: RejoinClient, ID: 2, Round: 5, LastSeal: 5},
		RejoinAck{RunID: 0xdeadbeefcafe0123, Round: 4, NeedFrom: 4},
		Redo{Round: 4, ShardID: 1, Addr: "127.0.0.1:10"},
		MuxFrame{VID: 9, Msg: Upload{ClientID: 9, Round: 3, Idx: []int{0, 4, 8, 9, 30}, Val: qv, BatchLoss: 0.5, Bits: 8, Scale: qscale}},
		MuxFrame{VID: 4, Msg: SliceUpload{ClientID: 4, Round: 2, Idx: []int{1, 6}, Val: []float64{0.25, -4}, Rank: []int{0, 3}}},
		CohortAssign{Round: 3, Members: []int{1, 5, 8}},
		// A quantized −0 (sparse.QuantizeInPlace keeps the sign of a value
		// that rounds to zero) travels as the grid's top code.
		Upload{ClientID: 5, Round: 6, Idx: []int{1, 2, 3}, Val: nz, BatchLoss: 0.25, Bits: 8, Scale: nzscale},
		SliceBroadcast{Round: 6, ShardID: 1, Idx: []int{1, 2, 3}, Val: nz, Bits: 8, Scale: nzscale},
		// An upload's coordinates in rank order, not ascending: packed at
		// 15 bits, so values straddle bytes.
		Upload{ClientID: 6, Round: 7, Idx: []int{19873, 5, 700, 12000, 6}, Val: qv, BatchLoss: 0.5, Bits: 8, Scale: qscale},
		// A direct-plane shard's result: its min-rank histogram only,
		// packed at 4 bits an entry.
		ShardResult{Round: 8, ShardID: 1, Hist: []int{5, 8, 0, 3, 1}},
		// A seal cut at rank 37 with one fill member in the shard's span.
		RoundSeal{Round: 8, Kappa: 37, Members: []int{12}, Bits: 8, Scale: qscale},
		// A rank-order upload whose values step-code: 30 values in 24
		// bytes, 2 bits each plus the 127 steps down to magnitude 0.
		Upload{ClientID: 2, Round: 9, Idx: rvidx, Val: rv, BatchLoss: 0.75, Bits: 8, Scale: rvscale},
		// A raw upload's slice in rank order, drop-coded, and a raw
		// downlink slice in index order, exponent-coded: 74 values each, in
		// 450 and 503 bytes against raw's 592.
		SliceUpload{ClientID: 3, Round: 10, Idx: sidx, Val: sval, Rank: srank},
		SliceBroadcast{Round: 10, ShardID: 0, Idx: bidx, Val: bval},
	}
}

// goldenDir holds one committed wire frame per codecFixtures entry.
const goldenDir = "testdata/golden"

// goldenName names fixture i's golden frame by its position and message
// type (a MuxFrame's by its inner type too). New fixtures go at the end
// of codecFixtures, so an existing frame never changes its name.
func goldenName(i int, msg any) string {
	name := reflect.TypeOf(msg).Name()
	if mf, ok := msg.(MuxFrame); ok {
		name += "_" + reflect.TypeOf(mf.Msg).Name()
	}
	return fmt.Sprintf("%02d_%s.frame", i, name)
}

// TestGoldenFrames pins the wire format to the committed frames: every
// fixture must encode to its golden bytes, the golden frame must decode
// to the fixture bit for bit, and re-encoding the decoded message must
// give the golden bytes again. There is no update flag — a frame that
// moves is a protocol change, and every golden file must belong to a
// fixture.
func TestGoldenFrames(t *testing.T) {
	names := make(map[string]bool)
	for i, want := range codecFixtures() {
		name := goldenName(i, want)
		names[name] = true
		t.Run(name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join(goldenDir, name))
			if err != nil {
				t.Fatal(err)
			}
			frame, err := appendFrame(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, golden) {
				t.Fatalf("encoding moved:\ngot    %x\ngolden %x", frame, golden)
			}
			got, err := decodeFrame(golden[4:], &decScratch{})
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(got, want) {
				t.Fatalf("golden frame decodes to\n%#v\nwant %#v", got, want)
			}
			again, err := appendFrame(nil, got)
			if err != nil || !bytes.Equal(again, golden) {
				t.Fatalf("re-encoding (%v):\ngot    %x\ngolden %x", err, again, golden)
			}
		})
	}
	files, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !names[f.Name()] {
			t.Errorf("golden frame %s belongs to no fixture", f.Name())
		}
	}
}

// bitEqual reports whether got and want are the same message with every
// float compared by its IEEE-754 bits — −0 is not +0, and a NaN equals
// itself. A nil slice equals an empty one: the wire does not carry the
// difference.
func bitEqual(got, want any) bool {
	return bitEqualValue(reflect.ValueOf(got), reflect.ValueOf(want))
}

func bitEqualValue(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Interface:
		return bitEqualValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqualValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqualValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Equal(b)
	}
}

// TestCodecRoundTripOracle sends every fixture between two binConns
// over one pipe: each must arrive as it was sent, through one
// connection's reused decode scratch.
func TestCodecRoundTripOracle(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		server, client := net.Pipe()
		a, b := NewBinConn(server), NewBinConn(client)
		defer a.Close()
		defer b.Close()
		for _, want := range codecFixtures() {
			sent := make(chan error, 1)
			go func() { sent <- a.Send(want) }()
			got, err := b.Recv()
			if err != nil {
				t.Fatalf("%T: recv: %v", want, err)
			}
			if err := <-sent; err != nil {
				t.Fatalf("%T: send: %v", want, err)
			}
			if !bitEqual(got, want) {
				t.Fatalf("lossy round trip:\ngot  %#v\nwant %#v", got, want)
			}
		}
	})
}

// TestBinaryCodecEmptySlices pins the codec's handling of the
// degenerate payloads (a round with no pairs, an Init with no shards).
func TestBinaryCodecEmptySlices(t *testing.T) {
	server, client := net.Pipe()
	a, b := NewBinConn(server), NewBinConn(client)
	defer a.Close()
	defer b.Close()

	go func() {
		_ = a.Send(Upload{ClientID: 1, Round: 2, BatchLoss: 0.5})
		_ = a.Send(Init{K: 3, Rounds: 4})
	}()
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	up, ok := msg.(Upload)
	if !ok || up.ClientID != 1 || up.Round != 2 || up.BatchLoss != 0.5 || len(up.Idx) != 0 || len(up.Val) != 0 {
		t.Fatalf("got %#v", msg)
	}
	msg, err = b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	init, ok := msg.(Init)
	if !ok || init.K != 3 || init.Rounds != 4 || len(init.Params) != 0 || len(init.Shards) != 0 {
		t.Fatalf("got %#v", msg)
	}
}

// rawFrame prefixes body with its little-endian length, forming one
// complete wire frame.
func rawFrame(body []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	return append(hdr[:], body...)
}

// corruptedFrame is one hand-crafted malformed wire stream and the
// substring of the error it must surface.
type corruptedFrame struct {
	name  string
	bytes []byte
	want  string
}

// corruptedFrames is the corrupted-frame table, shared by
// TestBinaryCodecCorruptedFrames and FuzzDecodeFrame's seed corpus.
// frameBody encodes msg and returns its payload: tag and body, without
// the length prefix.
func frameBody(msg any) []byte {
	frame, err := appendFrame(nil, msg)
	if err != nil {
		panic(err)
	}
	return frame[4:]
}

// oneValueBroadcast is the body of a Broadcast of one value on the
// (bits, scale) header whose value block is hand-written: count 1, the
// encoding byte enc, then payload.
func oneValueBroadcast(bits int, scale float64, enc byte, payload []byte) []byte {
	return valueBlockFrame(1, bits, scale, enc, payload...)
}

// valueBlockFrame is the body of a Broadcast on the (bits, scale) header
// whose value block is hand-written: the count n, the encoding byte enc,
// then payload.
func valueBlockFrame(n uint32, bits int, scale float64, enc byte, payload ...byte) []byte {
	b := frameBody(Broadcast{Round: 1, Idx: []int{4}, Bits: bits, Scale: scale})
	b = binary.LittleEndian.AppendUint32(b[:len(b)-5], n)
	return append(append(b, enc), payload...)
}

// intBlockFrame is the body of a CohortAssign whose int block is
// hand-written: the count n, the encoding byte enc, then payload.
func intBlockFrame(n uint32, enc byte, payload ...byte) []byte {
	b := frameBody(CohortAssign{Round: 1})
	b = binary.LittleEndian.AppendUint32(b[:len(b)-5], n)
	return append(append(b, enc), payload...)
}

func corruptedFrames() []corruptedFrame {
	// Bodies built by encoding a real message and then corrupting it.
	le32 := binary.LittleEndian.AppendUint32
	quantHeader := func(bits int, scale float64) []byte {
		// An empty value block travels raw: count 0, encoding 0.
		return frameBody(Upload{ClientID: 3, Round: 1, BatchLoss: 0.5, Bits: bits, Scale: scale})
	}
	hostileInit := func() []byte {
		b := frameBody(Init{K: 3, Rounds: 5, RunID: 7})
		b = le32(b[:len(b)-8], 1<<28) // Params count: 2 GiB worth of floats...
		return append(b, 42)          // ...backed by one byte
	}
	validHello := func() []byte {
		return frameBody(Hello{ClientID: 3, Members: []int{3}, Weights: []float64{1.5}})
	}
	// The histogram-plane fields: a ShardResult's Hist block (its last
	// five bytes when empty), a FillCandidates' Sum count and Max (its
	// last twelve), and a RoundSeal's Kappa (after its round).
	histBlock := func(n uint32, payload ...byte) []byte {
		b := frameBody(ShardResult{Round: 1})
		return append(le32(b[:len(b)-5], n), payload...)
	}
	fillTail := func(tail ...byte) []byte {
		b := frameBody(FillCandidates{Round: 1})
		return append(b[:len(b)-12], tail...)
	}
	sealHead := frameBody(RoundSeal{Round: 1, Kappa: 3})[:7]
	// A drop body's first value: 1.0, and the smallest subnormal.
	one, tiny := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1)), binary.LittleEndian.AppendUint64(nil, 1)
	return []corruptedFrame{
		{"truncated header", []byte{7, 0}, "truncated frame"},
		{"truncated frame", rawFrame(make([]byte, 64))[:7], "truncated frame"},
		{"zero length", []byte{0, 0, 0, 0}, "frame length"},
		{"oversized length", binary.LittleEndian.AppendUint32(nil, maxFrame+1), "frame length"},
		// The largest legal length with no payload behind it: the receiver
		// must not allocate the declared gigabyte before the bytes arrive.
		{"maximal length, header only", binary.LittleEndian.AppendUint32(nil, maxFrame), "truncated frame"},
		{"unknown type tag", rawFrame([]byte{99}), "unknown message type tag"},
		{"short payload", rawFrame([]byte{tagHello, 1, 2}), "short frame"},
		{"hostile slice count", rawFrame(hostileInit()), "exceeds"},
		{"trailing bytes", rawFrame(append(validHello(), 1, 2, 3)), "trailing bytes"},
		{"NaN quant scale", rawFrame(quantHeader(8, math.NaN())), "quantization scale"},
		{"Inf quant scale", rawFrame(quantHeader(8, math.Inf(1))), "quantization scale"},
		{"negative quant scale", rawFrame(quantHeader(8, -1)), "quantization scale"},
		{"bad quant width", rawFrame(quantHeader(65, 1)), "quantization width"},
		{"packed value count beyond the frame", rawFrame(oneValueBroadcast(8, 1, 1, nil)), "packed value count 1 (1 bytes) exceeds 0"},
		{"raw value count beyond the frame", rawFrame(oneValueBroadcast(8, 1, 0, []byte{1, 2, 3})), "value count 1 exceeds 3"},
		{"packed without width", rawFrame(oneValueBroadcast(0, 0, 1, []byte{0})), "packed values"},
		{"unknown value encoding", rawFrame(oneValueBroadcast(8, 1, 7, []byte{0})), "unknown value encoding"},
		// The step body: a sign bit, then the drop in unary (0s, then a 1).
		// On a 2-bit grid (levels 1) a drop of 2 — sign 0, 0, 0, 1 — goes
		// below magnitude 0.
		{"step drop below magnitude 0", rawFrame(oneValueBroadcast(2, 1, valsSteps, []byte{0x08})), "value 0 drops below magnitude 0"},
		{"long step drop below magnitude 0", rawFrame(valueBlockFrame(1, 8, 1, valsSteps, make([]byte, 20)...)), "value 0 drops below magnitude 0"},
		{"step count beyond the body", rawFrame(valueBlockFrame(9, 8, 1, valsSteps, 0xaa, 0xaa)),
			"step-coded value count 9 exceeds 2 remaining bytes at 2 bits a value"},
		{"step run past the frame", rawFrame(valueBlockFrame(2, 8, 1, valsSteps, 0x02)), "value 1 runs past the frame"},
		{"long step run past the frame", rawFrame(valueBlockFrame(1, 32, 1, valsSteps, make([]byte, 20)...)), "value 0 runs past the frame"},
		{"step body spare bits set", rawFrame(oneValueBroadcast(8, 1, valsSteps, []byte{0x06})), "nonzero spare bits after 1 step-coded values"},
		{"step-coded without width", rawFrame(oneValueBroadcast(0, 0, valsSteps, []byte{0x02})), "step-coded values with quantization width 0"},
		// The first encoding byte past the IEEE-754 bodies.
		{"value encoding after the step body", rawFrame(oneValueBroadcast(8, 1, valsExps+1, []byte{0})), "unknown value encoding 5"},
		// The drop body: a byte k, the first value's 8 bytes, then per value
		// a sign bit, the quotient in unary and k low bits. one is 1.0's.
		{"drop Rice parameter 63", rawFrame(valueBlockFrame(1, 0, 0, valsDrops, append([]byte{63}, one...)...)), "Rice parameter 63 above 62"},
		{"drop count beyond the body", rawFrame(valueBlockFrame(9, 0, 0, valsDrops, append([]byte{62}, one...)...)),
			"drop-coded value count 9 exceeds 8 remaining bytes at 64 bits a value"},
		{"drop first value cut short", rawFrame(valueBlockFrame(1, 0, 0, valsDrops, 0, 0, 0, 0xf0, 0x3f)), "drop-coded value 0 runs past the frame"},
		// From magnitude 1 (the smallest subnormal) a drop of 2: sign 0, 0,
		// 0, 1.
		{"drop below magnitude 0", rawFrame(valueBlockFrame(2, 0, 0, valsDrops, append(append([]byte{0}, tiny...), 0x08)...)),
			"drop-coded value 1 drops below magnitude 0"},
		{"long drop below magnitude 0", rawFrame(valueBlockFrame(2, 0, 0, valsDrops, append(append([]byte{0}, tiny...), make([]byte, 20)...)...)),
			"drop-coded value 1 drops below magnitude 0"},
		{"drop run past the frame", rawFrame(valueBlockFrame(2, 0, 0, valsDrops, append(append([]byte{0}, one...), 0)...)), "drop-coded value 1 runs past the frame"},
		{"drop low bits past the frame", rawFrame(valueBlockFrame(2, 0, 0, valsDrops, append(append([]byte{20}, one...), 0x02)...)), "drop-coded value 1 runs past the frame"},
		{"drop body spare bits set", rawFrame(valueBlockFrame(2, 0, 0, valsDrops, append(append([]byte{0}, one...), 0x06)...)), "nonzero spare bits after 2 drop-coded values"},
		// The exponent body: the top exponent E as a u16 and the width w,
		// then per value a sign bit, E − its exponent in w bits and 52
		// mantissa bits.
		{"exponent top above 0x7ff", rawFrame(valueBlockFrame(1, 0, 0, valsExps, 0x00, 0x08, 0, 0, 0, 0, 0, 0, 0, 0)), "top exponent 0x800 above 0x7ff"},
		{"exponent width 12", rawFrame(valueBlockFrame(1, 0, 0, valsExps, 0xff, 0x07, 12, 0, 0, 0, 0, 0, 0, 0, 0)), "offset width 12 above 11"},
		{"exponent count beyond the frame", rawFrame(valueBlockFrame(2, 0, 0, valsExps, 0xff, 0x03, 0, 0)),
			"exponent-coded value count 2 (14 bytes) exceeds 1 remaining bytes"},
		// Sign 0, then offset 2 in 2 bits, under a top exponent of 1.
		{"exponent offset above the top", rawFrame(valueBlockFrame(1, 0, 0, valsExps, 0x01, 0x00, 2, 0x04, 0, 0, 0, 0, 0, 0)),
			"exponent-coded value 0's offset exceeds the top exponent 1"},
		{"exponent body spare bits set", rawFrame(valueBlockFrame(1, 0, 0, valsExps, 0xff, 0x03, 0, 0, 0, 0, 0, 0, 0, 0xe0)),
			"nonzero spare bits after 1 exponent-coded values"},
		// The int block. Width 0 would let a count of 2³²−1 allocate
		// with no byte behind it.
		{"int width 0", rawFrame(intBlockFrame(math.MaxUint32, intsPacked, 0)), "int width 0 outside [1, 32]"},
		{"int width 33", rawFrame(intBlockFrame(1, intsPacked, 33, 0, 0, 0, 0, 0)), "int width 33 outside [1, 32]"},
		{"packed int count beyond the frame", rawFrame(intBlockFrame(math.MaxUint32, intsPacked, 1, 0xff)),
			"packed int count 4294967295 (536870912 bytes) exceeds 1"},
		{"gap-coded int count beyond the frame", rawFrame(intBlockFrame(math.MaxUint32, intsGaps, 0)), "gap-coded int count 4294967295 exceeds 1"},
		{"int gap varint longer than 5 bytes", rawFrame(intBlockFrame(1, intsGaps, 0x80, 0x80, 0x80, 0x80, 0x80, 0)), "longer than 5 bytes"},
		{"truncated int gap varint", rawFrame(intBlockFrame(2, intsGaps, 0x80, 0x80)), "short frame"},
		{"int gaps past MaxUint32", rawFrame(intBlockFrame(2, intsGaps, 0xff, 0xff, 0xff, 0xff, 0x0f, 0)), "gap-coded int 4294967296 outside u32"},
		{"long int gap past MaxUint32", rawFrame(intBlockFrame(2, intsGaps, 0x80, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f)), "gap-coded int 4294967424 outside u32"},
		{"unknown int encoding", rawFrame(intBlockFrame(0, 0)), "unknown int encoding 0"},
		{"int encoding after the Rice body", rawFrame(intBlockFrame(0, intsRice+1)), "unknown int encoding 4"},
		// The Rice body: a byte k, every gap's low k bits, then every
		// quotient in unary (0s, then a 1).
		{"int Rice parameter 32", rawFrame(intBlockFrame(1, intsRice, 32, 0xff, 0xff, 0xff, 0xff, 0xff)), "Rice-coded ints with parameter 32 above 31"},
		{"Rice-coded int count beyond the frame", rawFrame(intBlockFrame(math.MaxUint32, intsRice, 0, 0xff)),
			"Rice-coded int count 4294967295 exceeds 1 remaining bytes at 1 bits a value"},
		{"Rice quotient stream past the frame", rawFrame(intBlockFrame(2, intsRice, 0, 0x01)), "Rice-coded int 1 runs past the frame"},
		{"long Rice quotient past the frame", rawFrame(intBlockFrame(1, intsRice, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)), "Rice-coded int 0 runs past the frame"},
		// k = 31: a zero low part, then the quotient 2 — value 2³².
		{"Rice quotient past MaxUint32", rawFrame(intBlockFrame(1, intsRice, 31, 0, 0, 0, 0, 0x02)), "Rice-coded int 0 outside u32"},
		// k = 31: value 0 is MaxUint32 (low part 2³¹−1, quotient 1), value
		// 1 the next integer (low part 0, quotient 0).
		{"Rice-coded int past MaxUint32", rawFrame(intBlockFrame(2, intsRice, 31, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80, 0x01)),
			"Rice-coded int 1 outside u32"},
		{"Rice body spare bits set", rawFrame(intBlockFrame(1, intsRice, 0, 0x03)), "nonzero spare bits after 1 Rice-coded ints"},
		{"histogram count beyond the frame", rawFrame(histBlock(math.MaxUint32, intsPacked, 4, 0x85)),
			"packed int count 4294967295 (2147483648 bytes) exceeds 1"},
		{"histogram cut before its encoding", rawFrame(histBlock(2)), "short frame"},
		{"fill sums beyond the frame", rawFrame(fillTail(le32(nil, 1<<28)...)), "float slice count 268435456 exceeds 0"},
		{"fill reply cut inside its union maximum", rawFrame(fillTail(0, 0, 0, 0, 1, 2, 3)), "short frame"},
		{"seal cut inside its cutoff", rawFrame(sealHead), "short frame"},
	}
}

// TestBinaryCodecCorruptedFrames feeds hand-crafted malformed frames to
// a binConn. Every case must surface a loud decode error — never a
// hang, a panic, or a huge allocation — and must poison the connection:
// the second Recv fails fast with the same error instead of misparsing
// whatever bytes follow.
func TestBinaryCodecCorruptedFrames(t *testing.T) {
	for _, tc := range corruptedFrames() {
		t.Run(tc.name, func(t *testing.T) {
			raw, peer := net.Pipe()
			c := NewBinConn(peer)
			go func() {
				_, _ = raw.Write(tc.bytes)
				_ = raw.Close()
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := c.Recv()
			runtime.ReadMemStats(&after)
			if err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("corrupt frame decoded cleanly: err = %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Fatalf("refusing %d bytes allocated %d", len(tc.bytes), grew)
			}
			// Poisoned: the stream position is untrustworthy, so the next
			// Recv must fail fast with the same error, not read on.
			if _, err2 := c.Recv(); err2 != err {
				t.Fatalf("second Recv = %v, want the poisoned %v", err2, err)
			}
			_ = c.Close()
		})
	}
}

// TestIntBlock pins the int block on the lists the protocol sends and
// its edges: the encoding the encoder picks, the block's exact size
// (count, encoding byte, body), and decode(encode(x)) == x through a
// reused decode slot.
func TestIntBlock(t *testing.T) {
	const d = 19874 // tcp_routed_q8's model dimension
	dense := make([]int, 10000)
	for i := range dense {
		dense[i] = i
	}
	stride3, _, _, _, _ := codecPayload(256)
	top := make([]int, 1000)
	for i := range top {
		top[i] = math.MaxUint32 - 999 + i
	}
	perm := rand.New(rand.NewSource(1)).Perm(d)
	b, _, _ := downlinkB()
	swapped := slices.Clone(dense[:1000])
	swapped[500], swapped[501] = 501, 500
	past := slices.Clone(dense[:1000])
	past[500] = math.MaxUint32 + 1
	for _, tc := range []struct {
		name string
		v    []int
		enc  byte
		size int
	}{
		{"empty", nil, intsGaps, 5},
		{"single 0", []int{0}, intsGaps, 6},
		{"single MaxUint32", []int{math.MaxUint32}, intsGaps, 10},
		// k = 0: a 1 bit a value, no low bits.
		{"dense 0..n-1", dense[:1000], intsRice, 5 + 1 + 1000/8},
		// k = 1: a low bit and the quotient 1, 3 bits a value.
		{"stride 3", stride3, intsRice, 5 + 1 + 3*256/8},
		// k = 3: 1 987 values in 4·1 987 + 1 502 quotient bits, 4.8 bits a
		// value; its gaps take 1 987 bytes.
		{"tcp_routed_q8's B", b, intsRice, 5 + 1 + (4*1987+1502+7)/8},
		// k = 3 over 10 001 values; the jump's quotient is a run of
		// 11 250 zeros, across 176 words of the quotient stream.
		{"dense run, then a long jump", append(dense[:10000:10000], 100000), intsRice, 5 + 1 + (4*10001+11250+7)/8},
		// [0, 4, 9] at k = 1 takes 3 + 3 + 3 bits and the k byte: no
		// shorter than its gaps, which it must be to be chosen.
		{"Rice no shorter than the gaps", []int{0, 4, 9}, intsGaps, 5 + 3},
		{"ascending, 1- to 3-byte gaps", []int{9, 19, 29, 200, 70000}, intsGaps, 5 + 1 + 1 + 1 + 2 + 3},
		// The first gap is the first value, a quotient of 2³²−1000.
		{"dense below MaxUint32", top, intsGaps, 5 + 5 + 999},
		{"u32's two ends", []int{0, math.MaxUint32}, intsGaps, 5 + 1 + 5},
		{"dense with one pair swapped", swapped, intsPacked, 6 + (10*1000+7)/8},
		{"repeated values", []int{7, 7, 7}, intsPacked, 6 + 2},
		{"descending", []int{1, 0}, intsPacked, 6 + 1},
		{"MaxUint32 out of order", []int{math.MaxUint32, 0}, intsPacked, 6 + 8},
		{"rank-order permutation of D", perm, intsPacked, 6 + (15*d+7)/8},
		{"rank-order top k of D", perm[:d/10], intsPacked, 6 + (15*(d/10)+7)/8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := coder{}
			c.nums(&tc.v, nil)
			if c.err != nil {
				t.Fatal(c.err)
			}
			if enc := c.b[4]; enc != tc.enc || len(c.b) != tc.size {
				t.Fatalf("encoding %d in %d bytes, want %d in %d", enc, len(c.b), tc.enc, tc.size)
			}
			reused := make([]int, 3)
			var got []int
			dc := coder{b: c.b, dec: true}
			dc.nums(&got, &reused)
			if dc.err != nil || len(dc.b) != 0 {
				t.Fatalf("decode: %v, %d bytes left", dc.err, len(dc.b))
			}
			if !slices.Equal(got, tc.v) {
				t.Fatalf("decoded %v, want %v", got, tc.v)
			}
		})
	}
	for _, bad := range [][]int{{-1}, {0, math.MaxUint32 + 1}, {math.MaxUint32 + 1, 0}, past} {
		c := coder{}
		if c.nums(&bad, nil); c.err == nil || !strings.Contains(c.err.Error(), "outside u32") {
			t.Errorf("%v encoded: %v", bad, c.err)
		}
	}
}

// FuzzIntBlock encodes arbitrary int lists: u32s as they come, dense
// and sparse ascending runs, the same sorted with repeats kept or
// reversed, and ascending runs that end at MaxUint32. decode(encode(v))
// must be v; a strictly ascending list must go Rice-coded exactly when
// that body, as riceOracle writes it bit by bit, is strictly shorter
// than the gap body, and gap-coded otherwise; any other list packed.
func FuzzIntBlock(f *testing.F) {
	b, _, _ := downlinkB()
	var gaps []byte
	for i, x := range b {
		gaps = binary.AppendUvarint(gaps, uint64(x-max(0, b[max(0, i-1)])))
	}
	for mode := range byte(7) {
		f.Add([]byte{9, 0, 0, 0, 1, 2, 0xff, 0xff, 0xff, 0xff, 3, 0, 0, 0, 0, 1}, mode)
		f.Add(gaps, mode)
	}
	f.Add(append(make([]byte, 300), 0xff, 0xff), byte(2))
	f.Fuzz(func(t *testing.T, data []byte, mode byte) {
		data = data[:min(len(data), 4096)] // keeps the bit-at-a-time oracle fast
		var v []int
		switch mode % 7 {
		case 0, 4, 5: // u32s as they come, sorted with repeats, reversed
			for ; len(data) >= 4; data = data[4:] {
				v = append(v, int(binary.LittleEndian.Uint32(data)))
			}
		case 1: // dense ascending: a gap−1 a byte
			for x := -1; len(data) > 0; data = data[1:] {
				x += 1 + int(data[0]&15)
				v = append(v, x)
			}
		case 2, 3, 6: // sparse ascending: a gap−1 a u16; sorted u32s; up to MaxUint32
			for x := -1; len(data) >= 2; data = data[2:] {
				x += 1 + int(binary.LittleEndian.Uint16(data))
				v = append(v, x)
			}
		}
		switch mode % 7 {
		case 3:
			v = slices.Compact(slices.Sorted(slices.Values(v)))
		case 4:
			slices.Sort(v)
		case 5:
			slices.Sort(v)
			slices.Reverse(v)
		case 6:
			if len(v) > 0 {
				for i := range v {
					v[i] += math.MaxUint32 - v[len(v)-1]
				}
			}
		}
		if len(v) > 0 && v[0] < 0 {
			return // the shift to MaxUint32 ran below 0
		}
		c := coder{}
		c.nums(&v, nil)
		if c.err != nil {
			t.Fatal(c.err)
		}
		ascending, gapBytes := true, 0
		for i, x := range v {
			prev := -1
			if i > 0 {
				prev = v[i-1]
			}
			ascending = ascending && x > prev
			gapBytes += len(binary.AppendUvarint(nil, uint64(x-prev-1)))
		}
		enc, body := c.b[4], c.b[5:]
		switch k, size := riceSize(v); {
		case !ascending && enc != intsPacked:
			t.Fatalf("a list that does not ascend went as encoding %d", enc)
		case ascending && len(v) > 0 && size < gapBytes:
			if rice := riceOracle(v, k); enc != intsRice || !bytes.Equal(body, rice) {
				t.Fatalf("encoding %d in %d bytes, want the Rice body of %d (gaps %d bytes); bodies first differ at byte %d",
					enc, len(body), len(rice), gapBytes, firstDiff(body, rice))
			}
		case ascending && (enc != intsGaps || len(body) != gapBytes):
			t.Fatalf("encoding %d in %d bytes, want gaps in %d (Rice %d)", enc, len(body), gapBytes, size)
		}
		var got []int
		dc := coder{b: c.b, dec: true}
		if dc.nums(&got, nil); dc.err != nil || len(dc.b) != 0 {
			t.Fatalf("decode: %v, %d bytes left", dc.err, len(dc.b))
		}
		if !slices.Equal(got, v) {
			t.Fatalf("decode(encode(v)) = %v, want %v", got, v)
		}
	})
}

// firstDiff is the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return i
}

// riceSize is the Rice parameter of a strictly ascending non-empty list
// — the bit length of its mean gap (last − first)/n, less one, at least
// 0 — and the size of its Rice body: the k byte, then k low bits and
// the quotient in unary a value.
func riceSize(v []int) (k, size int) {
	if len(v) == 0 {
		return 0, 0
	}
	if mean := (v[len(v)-1] - v[0]) / len(v); mean > 0 {
		k = bits.Len(uint(mean)) - 1
	}
	nbits := 0
	for i, x := range v {
		g := x
		if i > 0 {
			g = x - v[i-1] - 1
		}
		nbits += k + g>>k + 1
	}
	return k, 1 + (nbits+7)/8
}

// riceOracle is the Rice body of a strictly ascending list at parameter
// k, written a bit at a time: the k byte, the low k bits of every gap,
// then every quotient in unary.
func riceOracle(v []int, k int) []byte {
	var out []byte
	nbits := 0
	put := func(bit int) {
		if nbits%8 == 0 {
			out = append(out, 0)
		}
		out[len(out)-1] |= byte(bit) << (nbits % 8)
		nbits++
	}
	for i, x := range v {
		g := x
		if i > 0 {
			g = x - v[i-1] - 1
		}
		for j := range k {
			put(g >> j & 1)
		}
	}
	for i, x := range v {
		g := x
		if i > 0 {
			g = x - v[i-1] - 1
		}
		for range g >> k {
			put(0)
		}
		put(1)
	}
	return append([]byte{byte(k)}, out...)
}

// TestPackedIntWidths runs the packed body at every width and at every
// length up to past the 8-byte tail, against the values read back bit
// by bit.
func TestPackedIntWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for w := uint(1); w <= 32; w++ {
		for n := 0; n <= 40; n++ {
			v := make([]int, n)
			for i := range v {
				v[i] = int(rng.Uint64() & (1<<w - 1))
			}
			p := packInts(nil, v, w)
			if len(p) != (n*int(w)+7)/8 {
				t.Fatalf("w=%d n=%d: %d bytes", w, n, len(p))
			}
			for i, x := range v {
				got := 0
				for j := uint(0); j < w; j++ {
					bit := uint(i)*w + j
					got |= int(p[bit/8]>>(bit%8)&1) << j
				}
				if got != x {
					t.Fatalf("w=%d n=%d: value %d packed as %d, want %d", w, n, i, got, x)
				}
			}
			if pad := uint(n) * w % 8; pad != 0 && p[len(p)-1]>>pad != 0 {
				t.Fatalf("w=%d n=%d: spare bits of the last byte set: %08b", w, n, p[len(p)-1])
			}
			s := make([]int, n)
			if unpackInts(s, p, w); !slices.Equal(s, v) {
				t.Fatalf("w=%d n=%d: unpacked %v, want %v", w, n, s, v)
			}
		}
	}
}

// TestPackedTopCodeIsNegativeZero pins the value block's one code
// outside the grid's q+levels range: on a 2-bit grid (levels 1, codes
// 0..2 for q = −1..1) code 3 is −0, so a quantized −0 keeps its sign on
// the wire as it does in memory.
func TestPackedTopCodeIsNegativeZero(t *testing.T) {
	for code, want := range []float64{-1, 0, 1, math.Copysign(0, -1)} {
		msg, err := decodeFrame(oneValueBroadcast(2, 1, 1, []byte{byte(code)}), &decScratch{})
		if err != nil {
			t.Fatalf("code %d: %v", code, err)
		}
		got := msg.(Broadcast).Val[0]
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("code %d decodes to %v (bits %x), want %v", code, got, math.Float64bits(got), want)
		}
		frame, err := appendFrame(nil, msg)
		if err != nil || !bytes.Equal(frame[4:], oneValueBroadcast(2, 1, 1, []byte{byte(code)})) {
			t.Fatalf("code %d re-encodes to %x (%v)", code, frame, err)
		}
	}
}

// snapped is a copy of v on the (bits, scale) grid.
func snapped(v []float64, bits int, scale float64) []float64 {
	out := slices.Clone(v)
	sparse.QuantizeToScale(out, bits, scale)
	return out
}

// gridValues is ±m·step for each magnitude in mags on the (bits, scale)
// grid, negated where neg is set: −0 for a negated magnitude 0.
func gridValues(mags []int64, neg []bool, bits int, scale float64) []float64 {
	step := scale / float64(int64(1)<<(bits-1)-1)
	v := make([]float64, len(mags))
	for i, m := range mags {
		if v[i] = float64(m) * step; neg[i] {
			v[i] = -v[i]
		}
	}
	return v
}

// stepBodyBytes is the size the step body has for a magnitude-sorted
// block of n values on a b-bit grid whose last magnitude is last: a sign
// bit and a run's terminating 1 per value, plus one 0 per step down from
// levels.
func stepBodyBytes(n, bits int, last int64) int {
	return (2*n + int(int64(1)<<(bits-1)-1-last) + 7) / 8
}

// readStepBody reads a step body bit by bit, as its layout is described:
// per value a sign bit, then as many 0 bits as the magnitude drops, then
// a 1, LSB first. It returns each value's sign and magnitude.
func readStepBody(p []byte, n, bits int) (neg []bool, mags []int64) {
	bit := func(i int) bool { return p[i/8]>>(i%8)&1 != 0 }
	m, pos := int64(1)<<(bits-1)-1, 0
	for range n {
		neg = append(neg, bit(pos))
		for pos++; !bit(pos); pos++ {
			m--
		}
		pos++
		mags = append(mags, m)
	}
	return neg, mags
}

// magBits is a float's magnitude bits: its IEEE-754 bits without the
// sign.
func magBits(x float64) uint64 { return math.Float64bits(x) &^ (1 << 63) }

// bitReader reads a body LSB first, one bit at a time.
type bitReader struct {
	p   []byte
	pos int
}

func (r *bitReader) bits(n int) (x uint64) {
	for j := range n {
		x |= uint64(r.p[r.pos/8]>>(r.pos%8)&1) << j
		r.pos++
	}
	return x
}

// readDropBody reads a drop body of n ≥ 1 values bit by bit, as its
// layout is described: the byte k, the first value's 64 bits, then per
// later value a sign bit, the quotient in unary (0 bits, then a 1) and
// the drop's k low bits. It returns each value's IEEE-754 bits.
func readDropBody(p []byte, n int) []uint64 {
	r := bitReader{p: p}
	k := int(r.bits(8))
	out := []uint64{r.bits(64)}
	m := out[0] &^ (1 << 63)
	for range n - 1 {
		sign, q := r.bits(1), uint64(0)
		for r.bits(1) == 0 {
			q++
		}
		m -= q<<k | r.bits(k)
		out = append(out, sign<<63|m)
	}
	return out
}

// readExpBody reads an exponent body of n values bit by bit: the top
// exponent E as a u16 and the width w, then per value a sign bit, E − its
// exponent in w bits and its 52 mantissa bits. It returns each value's
// IEEE-754 bits.
func readExpBody(p []byte, n int) []uint64 {
	r := bitReader{p: p}
	top, w := r.bits(16), int(r.bits(8))
	var out []uint64
	for range n {
		sign, off := r.bits(1), r.bits(w)
		out = append(out, sign<<63|(top-off)<<52|r.bits(52))
	}
	return out
}

// offGridBody is the body the value block's choice rule names for a
// list off the grid, and its size, from the bodies' definitions: the
// drop body — a k byte, the first value's 64 bits, then 2 + k + d>>k
// bits a later value, k the bit length of (first − last)/(n − 1) less
// one — when the magnitude bits never grow and it is strictly shorter
// than both others; else the exponent body — 3 header bytes and 53 + w
// bits a value — when strictly shorter than raw; else raw.
func offGridBody(v []float64) (enc byte, size int) {
	n := len(v)
	raw, exps := 8*n, 0
	if n > 0 {
		top, lo := uint64(0), uint64(0x7ff)
		for _, x := range v {
			e := magBits(x) >> 52
			top, lo = max(top, e), min(lo, e)
		}
		exps = 3 + (n*(53+bits.Len64(top-lo))+7)/8
	}
	if n >= 2 && slices.IsSortedFunc(v, func(a, b float64) int { return cmp.Compare(magBits(b), magBits(a)) }) {
		k := max(0, bits.Len64((magBits(v[0])-magBits(v[n-1]))/uint64(n-1))-1)
		body := 64
		for i := 1; i < n; i++ {
			body += 2 + k + int((magBits(v[i-1])-magBits(v[i]))>>k)
		}
		if drops := 1 + (body+7)/8; drops < min(raw, exps) {
			return valsDrops, drops
		}
	}
	if n > 0 && exps < raw {
		return valsExps, exps
	}
	return valsRaw, raw
}

// requireValueBlock encodes v as a value block on the (bits, scale)
// grid, checks its encoding byte and exact size (count, encoding byte,
// body), and decodes it bit for bit through the scratch slot *reused.
// It returns the body.
func requireValueBlock(t *testing.T, v []float64, bits int, scale float64, enc byte, size int, reused *[]float64) []byte {
	t.Helper()
	c := coder{}
	c.vals(&v, nil, bits, scale)
	if c.err != nil {
		t.Fatal(c.err)
	}
	if c.b[4] != enc || len(c.b) != size {
		t.Fatalf("encoding %d in %d bytes, want %d in %d", c.b[4], len(c.b), enc, size)
	}
	var got []float64
	dc := coder{b: c.b, dec: true}
	dc.vals(&got, reused, bits, scale)
	if dc.err != nil || len(dc.b) != 0 {
		t.Fatalf("decode: %v, %d bytes left", dc.err, len(dc.b))
	}
	if !bitEqual(got, v) {
		t.Fatalf("decoded %v, want %v", got, v)
	}
	return c.b[5:]
}

// TestValueBlock pins the value block on the lists the protocol sends
// and its edges: the body the encoder picks, the block's exact size, the
// step body's bits read one by one, and decode(encode(v)) == v bit for
// bit through a reused decode slot.
func TestValueBlock(t *testing.T) {
	idx, up, scale := rankOrderUpload(1987, 19874) // tcp_routed_q8's upload
	_, rawUp := rawRankOrderUpload(1987, 19874)    // the same upload unquantized, as tcp_direct_s2's clients send it
	step := scale / 127
	lastMag := int64(math.Round(math.Abs(up[len(up)-1]) / step))
	byIndex := make([]int, len(idx)) // the upload's positions in index order
	for i := range byIndex {
		byIndex[i] = i
	}
	slices.SortFunc(byIndex, func(a, b int) int { return idx[a] - idx[b] })
	indexOrder := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for j, i := range byIndex {
			out[j] = v[i]
		}
		return out
	}
	inIndexOrder, rawInIndexOrder := indexOrder(up), indexOrder(rawUp)
	// The IEEE-754 edges in rank order: NaNs with payloads (a quiet one,
	// a negative signalling one), ±Inf, the largest float, the smallest
	// normal, subnormals, −0 and +0.
	edges := []float64{math.Float64frombits(0x7ff8_0000_0000_0123), math.Float64frombits(0xfff0_0000_0000_0001),
		math.Inf(1), math.Inf(-1), -math.MaxFloat64, 0x1p-1022, math.Float64frombits(0x000f_ffff_ffff_ffff),
		-3 * math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0}
	// The raw upload between them: the NaNs, infinities and largest float
	// ahead of it, the rest after.
	edgedUp := slices.Concat(edges[:5], rawUp, edges[5:])
	shuffled := func(v []float64) []float64 {
		out := slices.Clone(v)
		rand.New(rand.NewSource(5)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	// A subnormal, 64 normals of biased exponents 1 to 0x7e1 and +Inf:
	// the exponent body would need w = 11, 64 bits a value.
	spanning := []float64{7 * math.SmallestNonzeroFloat64, math.Inf(1)}
	for e := uint64(1); e < 0x7ff; e += 32 {
		spanning = append(spanning, math.Float64frombits(e<<52|e*0x1234567))
	}
	spanning = shuffled(spanning)
	equal := make([]float64, 64) // ±0.5: every drop 0, 2 bits a value
	for i := range equal {
		equal[i] = math.Copysign(0.5, float64(1-2*(i%2)))
	}
	steep := func(n int, bits int) []float64 { // n values from +levels down to ±0, alternating in sign
		mags, neg := make([]int64, n), make([]bool, n)
		levels := int64(1)<<(bits-1) - 1
		for i := range mags {
			mags[i] = levels * int64(n-1-i) / int64(n-1)
			neg[i] = i%2 == 1
		}
		return gridValues(mags, neg, bits, 1)
	}
	// 12 alternating ±levels, then 12 alternating ±0: 48 bits and 127 steps.
	var signed []float64
	for i := range 24 {
		signed = append(signed, math.Copysign(float64(1-i/12), float64(1-2*(i%2))))
	}
	// At 32 bits, drops of 31, 32, 33 and 100: runs at and past the 30
	// zeros the encoder writes in one piece.
	const top32 = 1<<31 - 1
	wide := gridValues([]int64{top32, top32 - 31, top32 - 63, top32 - 96, top32 - 196, top32 - 196, top32 - 197, top32 - 197, top32 - 197, top32 - 197},
		[]bool{false, true, false, true, true, false, false, true, false, false}, 32, 3)
	for _, tc := range []struct {
		name  string
		v     []float64
		bits  int
		scale float64
		enc   byte
		size  int
	}{
		{"empty", nil, 8, 1, valsRaw, 5},
		{"single value", []float64{-1}, 8, 1, valsPacked, 6},
		{"rank-order upload, k = 1 987", up, 8, scale, valsSteps, 5 + stepBodyBytes(len(up), 8, lastMag)},
		{"the same values in index order", inIndexOrder, 8, scale, valsPacked, 5 + len(up)},
		{"22 values down to 0: 22 step bytes, not shorter", steep(22, 8), 8, 1, valsPacked, 5 + 22},
		{"23 values down to 0: 22 step bytes", steep(23, 8), 8, 1, valsSteps, 5 + 22},
		{"16 bits, 40 values down to 0", steep(40, 16), 16, 1, valsPacked, 5 + 80},
		{"2 bits never steps", []float64{1, -1, 1, -1, 1, -1, 1, -1, 1}, 2, 1, valsPacked, 5 + 3},
		{"±levels, then ±0", signed, 8, 1, valsSteps, 5 + stepBodyBytes(24, 8, 0)},
		{"±levels and ±0, packed", signed[10:14], 8, 1, valsPacked, 5 + 4},
		{"32 bits, runs of 31 to 100 zeros", wide, 32, 3, valsSteps, 5 + stepBodyBytes(10, 32, top32-197)},
		{"off the grid", []float64{0.5, 0.1}, 8, 1, valsRaw, 5 + 16},
		// Two magnitudes 0.1 % apart: a drop of 2^43.03 in their bits,
		// k = 43, so 1 + 8 + 6 bytes.
		{"sorted but off the grid", []float64{1, 0.999}, 8, 1, valsDrops, 5 + 15},
		{"quantization off", []float64{1, 0.5}, 0, 0, valsRaw, 5 + 16},
		{"NaN", []float64{math.NaN()}, 8, 1, valsRaw, 5 + 8},
		// Off the grid, the IEEE-754 bits: drop-coded in rank order,
		// exponent-coded in index order, raw where neither is shorter.
		{"raw rank-order upload, k = 1 987", rawUp, 0, 0, valsDrops, 5 + 10_916},
		{"the same raw values in index order", rawInIndexOrder, 0, 0, valsExps, 5 + 13_416},
		{"NaN, ±Inf, −0 and subnormals around a raw rank-order upload", edgedUp, 0, 0, valsDrops, 5 + 13_745},
		{"the same in index order: 64 bits a value", shuffled(edgedUp), 0, 0, valsRaw, 5 + 8*len(edgedUp)},
		{"NaN, ±Inf, −0 and subnormals alone: raw", edges, 0, 0, valsRaw, 5 + 8*len(edges)},
		{"the edges in index order", shuffled(edges), 0, 0, valsRaw, 5 + 8*len(edges)},
		{"64 equal magnitudes: every drop 0", equal, 0, 0, valsDrops, 5 + 1 + 8 + 16},
		{"one value", []float64{0.3}, 0, 0, valsRaw, 5 + 8},
		{"two values a binade apart", []float64{3, -1}, 0, 0, valsRaw, 5 + 16},
		{"exponents spanning 0 to 0x7ff: w = 11", spanning, 0, 0, valsRaw, 5 + 8*len(spanning)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.enc == valsDrops || tc.enc == valsExps || tc.bits == 0 {
				if enc, size := offGridBody(tc.v); enc != tc.enc || 5+size != tc.size {
					t.Fatalf("the choice rule names encoding %d in %d bytes, the row %d in %d", enc, 5+size, tc.enc, tc.size)
				}
			}
			reused := make([]float64, 3)
			body := requireValueBlock(t, tc.v, tc.bits, tc.scale, tc.enc, tc.size, &reused)
			var got []uint64
			switch tc.enc {
			case valsSteps:
				neg, mags := readStepBody(body, len(tc.v), tc.bits)
				if got := gridValues(mags, neg, tc.bits, tc.scale); !bitEqual(got, tc.v) {
					t.Fatalf("step body read bit by bit: %v, want %v", got, tc.v)
				}
				return
			case valsDrops:
				got = readDropBody(body, len(tc.v))
			case valsExps:
				got = readExpBody(body, len(tc.v))
			default:
				return
			}
			for i, x := range tc.v {
				if got[i] != math.Float64bits(x) {
					t.Fatalf("body read bit by bit: value %d is %#x, want %#x", i, got[i], math.Float64bits(x))
				}
			}
		})
	}
	// The encoder never writes w = 11, which is no shorter than raw, but
	// the decoder takes it: +Inf at offset 0, then the smallest subnormal
	// at offset 0x7ff (its sign bit 0, eleven 1s, mantissa 1).
	t.Run("exponent body at w = 11", func(t *testing.T) {
		block := binary.LittleEndian.AppendUint32(nil, 2)
		block = append(block, valsExps, 0xff, 0x07, 11)
		block = binary.LittleEndian.AppendUint64(append(block, make([]byte, 8)...), 0x1ffe)
		var got []float64
		dc := coder{b: block, dec: true}
		if dc.vals(&got, nil, 0, 0); dc.err != nil || len(dc.b) != 0 {
			t.Fatalf("decode: %v, %d bytes left", dc.err, len(dc.b))
		}
		if want := []float64{math.Inf(1), math.SmallestNonzeroFloat64}; !bitEqual(got, want) {
			t.Fatalf("decoded %v, want %v", got, want)
		}
	})
}

// TestValueBlockWidths runs the value block at every grid width and at
// every length up to past the 8-byte window, over magnitude-sorted lists
// (step-coded wherever that body is shorter) and the same lists shuffled
// (packed), each through one reused decode slot: the body and size the
// choice rule names, and every value back bit for bit.
func TestValueBlockWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	reused := make([]float64, 3)
	for bits := 2; bits <= 32; bits++ {
		levels := int64(1)<<(bits-1) - 1
		stepped := 0
		for n := 0; n <= 40; n++ {
			mags, neg := make([]int64, n), make([]bool, n)
			m := levels
			for i := range mags {
				switch r := rng.Intn(10); {
				case r < 6: // no drop
				case r < 9:
					m -= min(m, int64(rng.Intn(4)))
				default:
					m -= min(m, int64(rng.Intn(120)))
				}
				mags[i], neg[i] = m, rng.Intn(2) == 1
			}
			scale := 0.01 + rng.ExpFloat64()
			sorted := gridValues(mags, neg, bits, scale)
			enc, size := byte(valsPacked), (n*bits+7)/8
			if n == 0 {
				enc = valsRaw
			} else if steps := stepBodyBytes(n, bits, m); steps < size {
				enc, size = valsSteps, steps
				stepped++
			}
			requireValueBlock(t, sorted, bits, scale, enc, 5+size, &reused)
			shuffled := slices.Clone(sorted)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if !slices.IsSortedFunc(shuffled, func(a, b float64) int { return cmpMag(b, a) }) {
				requireValueBlock(t, shuffled, bits, scale, valsPacked, 5+(n*bits+7)/8, &reused)
			}
		}
		if bits > 2 && stepped == 0 {
			t.Errorf("bits=%d: no list step-coded", bits)
		}
	}
}

// cmpMag orders floats by magnitude.
func cmpMag(a, b float64) int {
	switch a, b = math.Abs(a), math.Abs(b); {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// packOracle is the packed body as the codec wrote it value by value
// before the step body: each grid code q+levels, by math.Round, appended
// bit by bit through a byte buffer, −0 as the top code, or false when a
// value is off the grid. FuzzValueBlock holds pack to it.
func packOracle(val []float64, bits int, scale float64) ([]byte, bool) {
	if !onGrid(bits, scale) || len(val) == 0 {
		return nil, false
	}
	levels, top := int64(1)<<(bits-1)-1, uint64(1)<<bits-1
	step := scale / float64(levels)
	var b []byte
	var bitbuf uint64
	nbits := 0
	for _, v := range val {
		q := math.Round(v / step)
		if !(math.Abs(q) <= float64(levels)) || q*step != v {
			return nil, false
		}
		code := uint64(int64(q) + levels)
		if v == 0 && math.Signbit(v) {
			code = top
		}
		bitbuf |= code << nbits
		nbits += bits
		for nbits >= 8 {
			b = append(b, byte(bitbuf))
			bitbuf >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		b = append(b, byte(bitbuf))
	}
	return b, true
}

// FuzzValueBlock encodes arbitrary value lists at bits in [2, 32] and
// arbitrary scales: raw floats, grid values in index order, the same
// sorted by magnitude, floats snapped by sparse.QuantizeToScale and
// sorted, as a client's upload is, and raw floats sorted by magnitude
// bits, as a raw upload is. decode(encode(v)) must be v bit for bit;
// pack must decide pack or raw as packOracle does and write its bytes;
// where packOracle refuses, the block must carry a drop or exponent body
// only when it is strictly shorter than raw's 8n bytes, the body and
// size offGridBody names, and raw otherwise; and elsewhere the packed
// bytes or a step body strictly shorter than them.
func FuzzValueBlock(f *testing.F) {
	_, up, scale := rankOrderUpload(64, 640)
	var seed []byte
	for _, v := range up {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	for mode := range byte(4) {
		f.Add(seed, byte(8), scale, mode)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80, 1, 0, 0, 0}, byte(32), 1.0, byte(2))
	f.Add([]byte{3, 2, 1, 0, 0x80, 0x81}, byte(2), 0x1p-1070, byte(3))
	// A step that underflows to 0 (every value off the grid, zeros too)
	// and a subnormal one, under magnitude-sorted lists.
	f.Add(make([]byte, 96), byte(6), 0x1p-1074, byte(2))
	f.Add([]byte{9, 0, 0, 0, 9, 0, 0, 0, 7, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 3, 0, 0, 0}, byte(6), 0x1p-1060, byte(2))
	// A scale whose top grid point rounds past MaxFloat64, under two +Inf
	// values: off the grid, so raw.
	inf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1)))
	f.Add(append(inf, inf...), byte(6), math.MaxFloat64, byte(0))
	// The raw upload unquantized, its magnitudes ascending:
	// exponent-coded as it comes, drop-coded sorted by magnitude bits.
	_, rawUp := rawRankOrderUpload(64, 640)
	slices.SortFunc(rawUp, func(a, b float64) int { return cmp.Compare(math.Abs(a), math.Abs(b)) })
	var rawSeed []byte
	for _, v := range rawUp {
		rawSeed = binary.LittleEndian.AppendUint64(rawSeed, math.Float64bits(v))
	}
	f.Add(rawSeed, byte(8), 1.0, byte(4))
	f.Add(rawSeed, byte(8), 1.0, byte(0))
	f.Fuzz(func(t *testing.T, data []byte, bits byte, scale float64, mode byte) {
		b := 2 + int(bits%31)
		levels := int64(1)<<(b-1) - 1
		var v []float64
		switch mode % 5 {
		case 0, 4: // raw floats, as they come or by magnitude bits
			for ; len(data) >= 8; data = data[8:] {
				v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		case 1, 2: // grid indices, in index order or sorted by magnitude
			step := scale / float64(levels)
			for ; len(data) >= 4; data = data[4:] {
				u := int64(int32(binary.LittleEndian.Uint32(data)))
				v = append(v, float64(u%(levels+1))*step)
			}
		case 3: // floats on the grid as the quantizer snaps them
			for ; len(data) >= 2; data = data[2:] {
				v = append(v, float64(int16(binary.LittleEndian.Uint16(data)))/1024)
			}
			sparse.QuantizeToScale(v, b, scale)
		}
		switch mode % 5 {
		case 2, 3:
			slices.SortStableFunc(v, func(x, y float64) int { return cmpMag(y, x) })
		case 4:
			slices.SortStableFunc(v, func(x, y float64) int { return cmp.Compare(magBits(y), magBits(x)) })
		}
		want, packs := packOracle(v, b, scale)
		c := coder{}
		if c.pack(v, b, scale) != packs || !bytes.Equal(c.b, want) {
			t.Fatalf("pack wrote %x (%v), the per-value loop %x (%v)", c.b, len(c.b) > 0, want, packs)
		}
		c = coder{}
		c.vals(&v, nil, b, scale)
		if c.err != nil {
			t.Fatal(c.err)
		}
		oenc, osize := offGridBody(v)
		switch enc, body := c.b[4], c.b[5:]; {
		case !packs && enc != valsRaw && (enc != valsDrops && enc != valsExps || len(body) >= 8*len(v)):
			t.Fatalf("values packOracle refuses went as encoding %d in %d bytes, raw %d", enc, len(body), 8*len(v))
		case !packs && (enc != oenc || len(body) != osize):
			t.Fatalf("values off the grid went as encoding %d in %d bytes, the choice rule names %d in %d", enc, len(body), oenc, osize)
		case packs && enc == valsPacked && !bytes.Equal(body, want):
			t.Fatalf("packed body %x, want %x", body, want)
		case packs && enc == valsSteps && len(body) >= len(want):
			t.Fatalf("step body of %d bytes, the packed one %d", len(body), len(want))
		case packs && enc != valsPacked && enc != valsSteps:
			t.Fatalf("grid values went as encoding %d", enc)
		}
		var got []float64
		dc := coder{b: c.b, dec: true}
		if dc.vals(&got, nil, b, scale); dc.err != nil || len(dc.b) != 0 {
			t.Fatalf("decode: %v, %d bytes left", dc.err, len(dc.b))
		}
		if !bitEqual(got, v) {
			t.Fatalf("decode(encode(v)) moved a bit:\ngot  %v\nwant %v", got, v)
		}
	})
}

// FuzzDecodeFrame feeds arbitrary byte streams to a binConn's receive
// path, seeded with every golden frame (quantized and MuxFrame-enveloped
// frames included), every corrupted-frame row, and a raw −0 on an 8-bit
// grid, which re-encoding packs. The codec must never panic; an error
// must stay sticky; no decoded slice may be longer than its frame's
// payload can encode (payloadBits); an accepted message m must survive
// decode(encode(m)) bit for bit on every float; and the re-encoding
// must be a fixed point — encode → decode → encode gives the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join(goldenDir, "*.frame"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden frames (%v)", err)
	}
	for _, name := range goldens {
		frame, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, row := range corruptedFrames() {
		f.Add(row.bytes)
	}
	negZero := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1)))
	f.Add(rawFrame(oneValueBroadcast(8, 1, 0, negZero)))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &binConn{br: bufio.NewReader(bytes.NewReader(data))}
		for {
			read := c.received.Load()
			msg, err := c.Recv()
			if err != nil {
				if _, again := c.Recv(); again != err {
					t.Fatalf("error not sticky: %v, then %v", err, again)
				}
				return
			}
			payload := int(c.received.Load()-read) - 4
			if bits := payloadBits(reflect.ValueOf(msg)); bits > 8*payload {
				t.Fatalf("%T decoded %d payload bits from a %d-byte payload", msg, bits, payload)
			}
			enc, err := appendFrame(nil, msg)
			if err != nil {
				t.Fatalf("accepted %T does not re-encode: %v", msg, err)
			}
			again, err := decodeFrame(enc[4:], &decScratch{})
			if err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", msg, err)
			}
			if !bitEqual(again, msg) {
				t.Fatalf("decode(encode(m)) moved a bit:\ngot  %#v\nwant %#v", again, msg)
			}
			if enc2, err := appendFrame(nil, again); err != nil || !bytes.Equal(enc, enc2) {
				t.Fatalf("re-encoding of %T is not a fixed point (%v):\n%x\n%x", msg, err, enc, enc2)
			}
		}
	})
}

// payloadBits is the fewest payload bits a decoded message's slices and
// strings can have come from: 1 per int (an int block packed at width
// 1), 32 per string header, 8 per string byte, 64 per raw float, and 2
// per value of a Val, which a step body codes in as little as a sign
// bit and a one-bit run, and a drop body, past its first value, in as
// little as a sign bit and a one-bit quotient (k = 0); a MuxFrame's are
// its inner message's.
func payloadBits(v reflect.Value) int {
	if v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	bits := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.Interface:
			bits += payloadBits(f)
		case f.Kind() == reflect.String:
			bits += 8 * f.Len()
		case f.Kind() != reflect.Slice:
		case f.Type().Elem().Kind() == reflect.Int:
			bits += f.Len()
		case f.Type().Elem().Kind() == reflect.String:
			for j := 0; j < f.Len(); j++ {
				bits += 32 + 8*f.Index(j).Len()
			}
		case v.Type().Field(i).Name == "Val":
			bits += 2 * f.Len()
		default:
			bits += 64 * f.Len()
		}
	}
	return bits
}

// TestHardCloseTCP pins the close semantics binConn owes the protocol
// over a real socket: a peer that hard-closes (RST, via SetLinger(0))
// surfaces as ECONNRESET/EPIPE from the kernel, which must map to the
// same sentinels as a graceful close — io.EOF from Recv, ErrClosed from
// Send — not leak errno wrappers.
func TestHardCloseTCP(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := ln.Accept()
			if err == nil {
				accepted <- c
			}
		}()
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := NewBinConn(raw)
		defer c.Close()
		peer := (<-accepted).(*net.TCPConn)
		if err := peer.SetLinger(0); err != nil {
			t.Fatal(err)
		}
		if err := peer.Close(); err != nil { // RST, not FIN
			t.Fatal(err)
		}
		if _, err := c.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("Recv after hard close = %v, want io.EOF", err)
		}
		// The first Send may still land in the socket buffer; the
		// reset must surface as ErrClosed within a few attempts.
		var sendErr error
		for i := 0; i < 100 && sendErr == nil; i++ {
			sendErr = c.Send(Hello{ClientID: 1})
			time.Sleep(time.Millisecond)
		}
		if !errors.Is(sendErr, ErrClosed) {
			t.Fatalf("Send after hard close = %v, want ErrClosed", sendErr)
		}
	})
}

// TestCorruptFrameFailsRoundNotBarrier is the protocol-level corruption
// test: when one client's connection turns to garbage mid-round, the
// coordinator's round must error out — promptly, with a decode error —
// rather than wedge the upload barrier waiting on a frame that will
// never parse.
func TestCorruptFrameFailsRoundNotBarrier(t *testing.T) {
	fed, model, initParams := buildWorkload()
	n := fed.NumClients()
	serverConns := make([]Conn, n)
	clientConns := make([]Conn, n-1)
	for i := 0; i < n-1; i++ {
		serverConns[i], clientConns[i] = NewMemPair()
	}
	rawSrv, rawCli := net.Pipe()
	serverConns[n-1] = NewBinConn(rawSrv)

	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// These clients lose the run when the server aborts; their
			// errors are teardown noise, not the assertion.
			_ = RunClient(clientConns[id], ClientConfig{
				ID: id, Data: &fed.Clients[id], Model: model,
				LearningRate: 0.1, BatchSize: 8, Seed: fl.ClientSeed(5, id),
			})
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := NewBinConn(rawCli)
		if err := c.Send(Hello{ClientID: n - 1, Members: []int{n - 1}, Weights: []float64{1}}); err != nil {
			return
		}
		if _, err := c.Recv(); err != nil { // Init
			return
		}
		// The server now expects this client's round-1 Upload; feed it a
		// frame with an unknown type tag instead.
		_, _ = rawCli.Write(rawFrame([]byte{99}))
	}()

	_, err := runServer(serverConns, ServerConfig{K: 5, Rounds: 3, InitialParams: initParams})
	if err == nil {
		t.Fatal("server survived a corrupt upload frame")
	}
	if !strings.Contains(err.Error(), "unknown message type tag") {
		t.Fatalf("server error %q does not surface the decode error", err)
	}
	for _, c := range serverConns {
		_ = c.Close()
	}
	for _, c := range clientConns {
		_ = c.Close()
	}
	_ = rawCli.Close()
	wg.Wait()
}

// TestQuantizedTrajectoryGrid is the quantized slice of the matrix
// (TestSameSeedSameBytes), kept on its own for the race step: with
// QuantBits=8 the routed deployments over memory and over TCP (values
// actually packed on the wire) and the direct ones reproduce fl.Run
// bit for bit.
func TestQuantizedTrajectoryGrid(t *testing.T) {
	spec := runSpec{rounds: 10, quantBits: 8}
	want := engineEvents(t, spec.config(0))
	for _, col := range matrixColumns {
		if col.population || col.durable {
			continue
		}
		t.Run(col.name, func(t *testing.T) {
			got, err := col.run(t, spec)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTrajectory(t, got, want)
		})
	}
}

// wireMeter sums, across every observed message, the full encoded frame
// bytes and the encoded gradient-VALUE payload bytes (the portion
// quantized packing shrinks) as the binary codec would put them on the
// wire.
type wireMeter struct {
	mu         sync.Mutex
	buf        []byte
	frameBytes int64
	valBytes   int64
	vals       int64 // values metered: 8 bytes each as raw float64s
}

// valBlock is the payload of val's value block on the (bits, scale)
// grid: the block as the codec writes it, less its count and encoding
// byte. It reuses the buffer of the frame that carried it, which is
// longer.
func (m *wireMeter) valBlock(val []float64, bits int, scale float64) int64 {
	m.vals += int64(len(val))
	c := coder{b: m.buf[:0]}
	c.vals(&val, nil, bits, scale)
	return int64(len(c.b) - 5)
}

func (m *wireMeter) observe(msg any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, err := appendFrame(m.buf[:0], msg)
	if err != nil {
		panic(fmt.Sprintf("wireMeter: %v", err))
	}
	m.buf = b
	m.frameBytes += int64(len(b))
	switch v := msg.(type) {
	case Upload:
		m.valBytes += m.valBlock(v.Val, v.Bits, v.Scale)
	case Broadcast:
		m.valBytes += m.valBlock(v.Val, v.Bits, v.Scale)
	case SliceUpload:
		m.valBytes += m.valBlock(v.Val, v.Bits, v.Scale)
	case SliceBroadcast:
		m.valBytes += m.valBlock(v.Val, v.Bits, v.Scale)
	}
}

// wireMeterConn meters both directions of the owning endpoint.
type wireMeterConn struct {
	Conn
	m *wireMeter
}

func (c wireMeterConn) Recv() (any, error) {
	msg, err := c.Conn.Recv()
	if err == nil {
		c.m.observe(msg)
	}
	return msg, err
}

func (c wireMeterConn) Send(msg any) error {
	err := c.Conn.Send(msg)
	if err == nil {
		c.m.observe(msg)
	}
	return err
}

// TestQuantizedWireBytesShrink is the acceptance criterion of on-wire
// quantization: over a full routed run, QuantBits=8 must cut the
// encoded gradient-value bytes by at least 10× versus the same values
// as raw float64s, and the total frame bytes must drop too. Packing
// alone is exactly 8× at b = 8 (a byte for eight); step-coding the
// uploads, whose values travel in rank order, takes this run to 10.9×
// (20 480 → 1 882 value bytes), so the floor holds only while they
// step-code. At full precision the drop and exponent bodies code the
// same run's values in fewer than their raw 20 480 bytes (17 093).
func TestQuantizedWireBytesShrink(t *testing.T) {
	run := func(qbits int) *wireMeter {
		m := &wireMeter{}
		runRouted(t, runSpec{rounds: 8, quantBits: qbits}, func(c Conn) Conn { return wireMeterConn{Conn: c, m: m} })
		return m
	}
	full := run(0)
	quant := run(8)
	if full.valBytes == 0 || quant.valBytes == 0 || full.vals != quant.vals {
		t.Fatalf("meter saw value bytes full %d, quant %d; values full %d, quant %d", full.valBytes, quant.valBytes, full.vals, quant.vals)
	}
	if ratio := float64(8*quant.vals) / float64(quant.valBytes); ratio < 10 {
		t.Fatalf("QuantBits=8 shrank value bytes only %.2fx (%d -> %d), want >= 10x",
			ratio, 8*quant.vals, quant.valBytes)
	}
	if full.valBytes >= 8*full.vals {
		t.Fatalf("full-precision values took %d bytes, no fewer than their %d raw bytes", full.valBytes, 8*full.vals)
	}
	if quant.frameBytes >= full.frameBytes {
		t.Fatalf("QuantBits=8 did not shrink total frame bytes: %d -> %d", full.frameBytes, quant.frameBytes)
	}
}
