// The control-plane record vocabulary. Records hold indices and
// scalars only: the model and the gradients never enter the log, so a
// log stays tiny (a few hundred bytes per round) and replay is
// recomputation, not restoration. Both WAL writers — the transport
// coordinator and the in-process fl engine — share this vocabulary and
// map their own state onto the generic integer/float containers.
package wal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Record type tags, one per frame body's first byte.
const (
	recRunStart byte = 1
	recDraw     byte = 2
	recSeal     byte = 3
	recRelease  byte = 4
	recFinish   byte = 5
)

// RunStart.Kind values: the two control-plane writers. A log written
// by one never resumes the other.
const (
	// KindCoordinator marks a transport coordinator's log.
	KindCoordinator uint8 = 1
	// KindEngine marks the in-process fl engine's log.
	KindEngine uint8 = 2
)

// Record is one durable control-plane decision.
type Record interface{ walRecord() }

// RunStart opens a log and fingerprints the run: RunID must match on
// reopen, and Conf carries caller-defined scalar configuration
// (dimension, k, round count, peer counts, …) that resume validates
// against the restarted process's flags so a log is never replayed
// under a different configuration.
type RunStart struct {
	RunID uint64
	// Kind distinguishes the writers (transport coordinator vs fl
	// engine) so one plane never resumes from the other's log.
	Kind uint8
	Conf []int64
	// Weights carries the per-client weights announced in the Hello
	// handshake. Rejoining clients do not resend Hello, so resume
	// restores the weighted-loss denominators from here.
	Weights []float64
}

// Draw records the participant set chosen for a round before any of
// those participants are contacted.
type Draw struct {
	Round   int
	Members []int
}

// Seal records a round's aggregation decision before it is announced:
// the quantization scale/bits, the round loss, and the selection — the
// selected global indices in Members (Kappa 0) or, for a selection cut
// at a rank, the cutoff Kappa with only the members past it in Members
// — with its size Elems and the per-shard span boundaries into Members.
// It is everything needed to re-issue the seal verbatim after a restart.
type Seal struct {
	Round   int
	Loss    float64
	Scale   float64
	Bits    int
	Kappa   int
	Elems   int
	Members []int
	Spans   []int
}

// Release records that a round's results were cleared for download,
// with the scalar metadata the release message carries.
type Release struct {
	Round int
	Loss  float64
	Elems int
}

// Finish closes a round. The generic containers carry the writer's
// per-round stats scalars (the fl engine stores its full RoundEvent
// here so a resumed run reproduces the CSV byte for byte).
type Finish struct {
	Round  int
	Ints   []int64
	Floats []float64
}

func (*RunStart) walRecord() {}
func (*Draw) walRecord()     {}
func (*Seal) walRecord()     {}
func (*Release) walRecord()  {}
func (*Finish) walRecord()   {}

// --- encoding -------------------------------------------------------

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendInts(b []byte, vs []int) []byte {
	b = appendU64(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendU64(b, uint64(int64(v)))
	}
	return b
}

func appendI64s(b []byte, vs []int64) []byte {
	b = appendU64(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendU64(b, uint64(v))
	}
	return b
}

func appendF64s(b []byte, vs []float64) []byte {
	b = appendU64(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

func appendRecord(b []byte, r Record) []byte {
	switch r := r.(type) {
	case *RunStart:
		b = append(b, recRunStart, r.Kind)
		b = appendU64(b, r.RunID)
		b = appendI64s(b, r.Conf)
		b = appendF64s(b, r.Weights)
	case *Draw:
		b = append(b, recDraw)
		b = appendU64(b, uint64(int64(r.Round)))
		b = appendInts(b, r.Members)
	case *Seal:
		b = append(b, recSeal)
		b = appendU64(b, uint64(int64(r.Round)))
		b = appendF64(b, r.Loss)
		b = appendF64(b, r.Scale)
		b = appendU64(b, uint64(int64(r.Bits)))
		b = appendU64(b, uint64(int64(r.Kappa)))
		b = appendU64(b, uint64(int64(r.Elems)))
		b = appendInts(b, r.Members)
		b = appendInts(b, r.Spans)
	case *Release:
		b = append(b, recRelease)
		b = appendU64(b, uint64(int64(r.Round)))
		b = appendF64(b, r.Loss)
		b = appendU64(b, uint64(int64(r.Elems)))
	case *Finish:
		b = append(b, recFinish)
		b = appendU64(b, uint64(int64(r.Round)))
		b = appendI64s(b, r.Ints)
		b = appendF64s(b, r.Floats)
	default:
		panic(fmt.Sprintf("wal: unknown record type %T", r))
	}
	return b
}

// --- decoding -------------------------------------------------------

// recReader is a latched-error cursor over a record body, the same
// discipline as the transport codec's coder.
type recReader struct {
	b   []byte
	bad bool
}

func (r *recReader) u8() byte {
	if r.bad || len(r.b) < 1 {
		r.bad = true
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *recReader) u64() uint64 {
	if r.bad || len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *recReader) i() int     { return int(int64(r.u64())) }
func (r *recReader) f() float64 { return math.Float64frombits(r.u64()) }
func (r *recReader) count() int {
	n := r.i()
	// Each element takes 8 bytes; a count the remaining bytes cannot
	// hold is corruption, caught here rather than by huge allocation
	// (divided, not multiplied: n*8 overflows for a forged count).
	if n < 0 || n > len(r.b)/8 {
		r.bad = true
		return 0
	}
	return n
}

func (r *recReader) ints() []int {
	n := r.count()
	if r.bad || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.i()
	}
	return vs
}

func (r *recReader) i64s() []int64 {
	n := r.count()
	if r.bad || n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(r.u64())
	}
	return vs
}

func (r *recReader) f64s() []float64 {
	n := r.count()
	if r.bad || n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.f()
	}
	return vs
}

func decodeRecord(body []byte) (Record, error) {
	r := recReader{b: body}
	var rec Record
	switch tag := r.u8(); tag {
	case recRunStart:
		rec = &RunStart{Kind: r.u8(), RunID: r.u64(), Conf: r.i64s(), Weights: r.f64s()}
	case recDraw:
		rec = &Draw{Round: r.i(), Members: r.ints()}
	case recSeal:
		rec = &Seal{Round: r.i(), Loss: r.f(), Scale: r.f(), Bits: r.i(), Kappa: r.i(), Elems: r.i(), Members: r.ints(), Spans: r.ints()}
	case recRelease:
		rec = &Release{Round: r.i(), Loss: r.f(), Elems: r.i()}
	case recFinish:
		rec = &Finish{Round: r.i(), Ints: r.i64s(), Floats: r.f64s()}
	default:
		return nil, fmt.Errorf("unknown record tag %d", tag)
	}
	if r.bad || len(r.b) != 0 {
		return nil, fmt.Errorf("record tag %d: malformed body", body[0])
	}
	return rec, nil
}
