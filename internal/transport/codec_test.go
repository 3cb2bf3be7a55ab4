package transport

// Tests for the binary wire codec: the gob differential oracle (every
// message round-trips identically through both codecs), the
// corrupted-frame suite (a malformed frame errors the connection and
// poisons it instead of wedging or misparsing), hard-close semantics
// over real TCP, and the quantized wire path (trajectory grids stay
// bit-identical across deployments while value bytes shrink ~8× at
// QuantBits=8).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsparse/internal/core"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
)

// codecFixtures returns one fixture per protocol message type, plus
// quantized variants of every value-carrying message. Slices are
// non-empty so gob's nil-vs-empty ambiguity cannot mask a mismatch.
func codecFixtures() []any {
	qv := []float64{0.5, -1.25, 3.75, 0, 2.125}
	qscale := sparse.QuantizeInPlace(qv, 8)
	qb := []float64{-0.75, 0.0625, 1.5}
	qbscale := sparse.QuantizeInPlace(qb, 8)
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
		FillCandidates{Round: 2, ShardID: 1, Client: []int{0, 2}, Idx: []int{9, 11}, AbsVal: []float64{0.5, 0.125}},
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
	}
}

// TestCodecRoundTripOracle is the differential oracle: every protocol
// message must round-trip bit-identically through the binary codec AND
// through gob over the same kind of pipe.
func TestCodecRoundTripOracle(t *testing.T) {
	for _, codec := range []struct {
		name string
		mk   func(net.Conn) Conn
	}{
		{"binary", NewBinConn},
		{"gob", NewGobConn},
	} {
		t.Run(codec.name, func(t *testing.T) {
			server, client := net.Pipe()
			a, b := codec.mk(server), codec.mk(client)
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
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("lossy round trip:\ngot  %#v\nwant %#v", got, want)
				}
			}
		})
	}
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
func corruptedFrames() []corruptedFrame {
	// Builders for bodies that need real encoding around the corruption.
	quantHeader := func(bits int, scale float64) []byte {
		w := wireWriter{}
		w.putU8(tagUpload)
		w.putNum(3)        // ClientID
		w.putNum(1)        // Round
		w.putF64(0.5)      // BatchLoss
		w.putNum(bits)     // Bits
		w.putF64(scale)    // Scale
		w.putNums([]int{}) // Idx
		w.putNum(0)        // empty value block, raw encoding
		w.putU8(0)
		return w.b
	}
	packedBroadcast := func(bits int, scale float64, enc byte, payload []byte) []byte {
		w := wireWriter{}
		w.putU8(tagBroadcast)
		w.putNum(1) // Round
		w.putNum(bits)
		w.putF64(scale)
		w.putNums([]int{4})
		w.putNum(1) // one value
		w.putU8(enc)
		w.b = append(w.b, payload...)
		return w.b
	}
	hostileInit := func() []byte {
		w := wireWriter{}
		w.putU8(tagInit)
		w.putNum(3)           // K
		w.putNum(5)           // Rounds
		w.putNum(0)           // QuantBits
		w.putNum(0)           // Window
		w.putU64(7)           // RunID
		w.putU32(1 << 28)     // Params count: 2 GiB worth of floats...
		w.b = append(w.b, 42) // ...backed by one byte
		return w.b
	}
	validHello := func() []byte {
		w := wireWriter{}
		w.putU8(tagHello)
		w.putNum(3)
		w.putNums([]int{3})
		w.putF64s([]float64{1.5})
		return w.b
	}
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
		{"packed code off grid", rawFrame(packedBroadcast(2, 1, 1, []byte{0b11})), "packed value code"},
		{"packed without width", rawFrame(packedBroadcast(0, 0, 1, []byte{0})), "packed values"},
		{"unknown value encoding", rawFrame(packedBroadcast(8, 1, 7, []byte{0})), "unknown value encoding"},
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

// FuzzDecodeFrame feeds arbitrary byte streams to a binConn's receive
// path, seeded with one valid frame per message type (codecFixtures:
// quantized and MuxFrame-enveloped frames included) and every
// corrupted-frame row. The codec must never panic; an error must stay
// sticky; no decoded slice may be longer than its frame's payload can
// encode (payloadBits); and an accepted frame's re-encoding must be a
// fixed point — encode → decode → encode gives the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	for _, msg := range codecFixtures() {
		frame, err := appendFrame(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, row := range corruptedFrames() {
		f.Add(row.bytes)
	}
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
			if enc2, err := appendFrame(nil, again); err != nil || !bytes.Equal(enc, enc2) {
				t.Fatalf("re-encoding of %T is not a fixed point (%v):\n%x\n%x", msg, err, enc, enc2)
			}
		}
	})
}

// payloadBits is the fewest payload bits a decoded message's slices and
// strings can have come from: 32 per int and per string header, 8 per
// string byte, 64 per raw float, and b per value of a Val packed on a
// b-bit grid (b in [2, 32]); a MuxFrame's are its inner message's.
func payloadBits(v reflect.Value) int {
	if v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	perVal := 64
	if b := v.FieldByName("Bits"); b.IsValid() && b.Int() >= 2 && b.Int() <= 32 {
		perVal = int(b.Int())
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
			bits += 32 * f.Len()
		case f.Type().Elem().Kind() == reflect.String:
			for j := 0; j < f.Len(); j++ {
				bits += 32 + 8*f.Index(j).Len()
			}
		case v.Type().Field(i).Name == "Val":
			bits += perVal * f.Len()
		default:
			bits += 64 * f.Len()
		}
	}
	return bits
}

// TestGobConnPoisonsAfterDecodeError is satellite coverage for the gob
// oracle: a mid-stream decode error must poison the connection the same
// way the binary codec does.
func TestGobConnPoisonsAfterDecodeError(t *testing.T) {
	raw, peer := net.Pipe()
	c := NewGobConn(peer)
	defer c.Close()
	go func() {
		_, _ = raw.Write([]byte("this is not a gob stream at all"))
		_ = raw.Close()
	}()
	_, err := c.Recv()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("garbage decoded cleanly: err = %v", err)
	}
	if _, err2 := c.Recv(); err2 != err {
		t.Fatalf("second Recv = %v, want the poisoned %v", err2, err)
	}
}

// TestHardCloseTCP pins the close semantics both codecs owe the
// protocol over a real socket: a peer that hard-closes (RST, via
// SetLinger(0)) surfaces as ECONNRESET/EPIPE from the kernel, which
// must map to the same sentinels as a graceful close — io.EOF from
// Recv, ErrClosed from Send — not leak errno wrappers.
func TestHardCloseTCP(t *testing.T) {
	for _, codec := range []struct {
		name string
		mk   func(net.Conn) Conn
	}{
		{"binary", NewBinConn},
		{"gob", NewGobConn},
	} {
		t.Run(codec.name, func(t *testing.T) {
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
			c := codec.mk(raw)
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

// TestQuantizedTrajectoryGrid is the quantized differential grid: with
// QuantBits=8 the reference engine, the routed in-memory deployment,
// the routed TCP deployment over the binary codec (values actually
// packed on the wire), and the client-direct sharded deployment must
// all produce bit-identical training trajectories.
func TestQuantizedTrajectoryGrid(t *testing.T) {
	fed, model, initParams := buildWorkload()
	const k, rounds, qbits, nShards = 40, 10, 8, 2

	ref, err := fl.Run(fl.Config{
		Data:         fed,
		Model:        model,
		LearningRate: 0.1,
		BatchSize:    8,
		Rounds:       rounds,
		Seed:         5,
		Strategy:     &gs.FABTopK{},
		Controller:   core.NewFixedK(k),
		Beta:         10,
		QuantBits:    qbits,
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, records []RoundRecord) {
		t.Helper()
		if len(records) != len(ref.Stats) {
			t.Fatalf("%s ran %d rounds, reference %d", name, len(records), len(ref.Stats))
		}
		for i := range records {
			if records[i].Loss != ref.Stats[i].Loss {
				t.Fatalf("round %d: %s loss %v != engine loss %v (quantized trajectories must be bit-identical)",
					i+1, name, records[i].Loss, ref.Stats[i].Loss)
			}
			if records[i].DownlinkElems != ref.Stats[i].DownlinkElems {
				t.Fatalf("round %d: %s downlink %d != %d", i+1, name, records[i].DownlinkElems, ref.Stats[i].DownlinkElems)
			}
		}
	}

	check("routed/mem", runDistributed(t, fed, model, initParams, k, rounds, qbits,
		func() (Conn, Conn) { return NewMemPair() }))
	check("routed/tcp-binary", runDistributedTCP(t, fed, model, initParams, k, rounds, qbits, NewBinConn))

	h := runDirectHarness(t, rounds, k, nShards, ServerConfig{QuantBits: qbits}, nil, nil, nil, nil)
	if h.srvErr != nil {
		t.Fatalf("direct server: %v", h.srvErr)
	}
	for id, err := range h.cliErrs {
		if err != nil {
			t.Fatalf("direct client %d: %v", id, err)
		}
	}
	for s, err := range h.shardErr {
		if err != nil {
			t.Fatalf("direct shard %d: %v", s, err)
		}
	}
	check("direct/mem", h.records)
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
}

func encodedValBytes(val []float64, bits int, scale float64) int {
	if gridPackable(val, bits, scale) {
		return packedLen(len(val), bits)
	}
	return 8 * len(val)
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
		m.valBytes += int64(encodedValBytes(v.Val, v.Bits, v.Scale))
	case Broadcast:
		m.valBytes += int64(encodedValBytes(v.Val, v.Bits, v.Scale))
	case SliceUpload:
		m.valBytes += int64(encodedValBytes(v.Val, v.Bits, v.Scale))
	case SliceBroadcast:
		m.valBytes += int64(encodedValBytes(v.Val, v.Bits, v.Scale))
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
// encoded gradient-value bytes by at least 6× versus full precision
// (the exact packing ratio is 8× whenever the grid engages), and the
// total frame bytes must drop too.
func TestQuantizedWireBytesShrink(t *testing.T) {
	fed, model, initParams := buildWorkload()
	const k, rounds = 40, 8

	run := func(qbits int) *wireMeter {
		m := &wireMeter{}
		runDistributed(t, fed, model, initParams, k, rounds, qbits,
			func() (Conn, Conn) {
				s, c := NewMemPair()
				return wireMeterConn{Conn: s, m: m}, c
			})
		return m
	}
	full := run(0)
	quant := run(8)
	if full.valBytes == 0 || quant.valBytes == 0 {
		t.Fatalf("meter saw no value bytes: full %d, quant %d", full.valBytes, quant.valBytes)
	}
	if ratio := float64(full.valBytes) / float64(quant.valBytes); ratio < 6 {
		t.Fatalf("QuantBits=8 shrank value bytes only %.2fx (%d -> %d), want >= 6x",
			ratio, full.valBytes, quant.valBytes)
	}
	if quant.frameBytes >= full.frameBytes {
		t.Fatalf("QuantBits=8 did not shrink total frame bytes: %d -> %d", full.frameBytes, quant.frameBytes)
	}
}
