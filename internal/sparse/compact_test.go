package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// compactSentinel fills the words past keys and at, which neither pass may
// touch.
const compactSentinel = 0xDEADBEEFDEADBEEF

// compactRun runs one pass — the kernel with the Go loop finishing, or the
// Go loop alone — over dense with room words for keys and for at, each
// followed by four sentinel words, and returns the count and the kept keys
// and indices.
func compactRun(t testing.TB, kernel bool, dense []float64, g uint64, room int) (int, []uint64, []uint64) {
	t.Helper()
	keys, at := make([]uint64, room+4), make([]uint64, room+4)
	for i := range keys {
		keys[i], at[i] = compactSentinel, compactSentinel
	}
	var n int
	if kernel {
		n = compact(keys[:room], at[:room], dense, g)
	} else {
		n = compactGo(keys[:room], at[:room], dense, g, 0, 0)
	}
	for i := room; i < room+4; i++ {
		if keys[i] != compactSentinel || at[i] != compactSentinel {
			t.Fatalf("kernel=%v: wrote past room %d at word %d", kernel, room, i)
		}
	}
	return n, keys[:n], at[:n]
}

// requireCompactMatchesGo holds the kernel to the Go loop on one input.
func requireCompactMatchesGo(t testing.TB, label string, dense []float64, g uint64, room int) {
	t.Helper()
	n, keys, at := compactRun(t, true, dense, g, room)
	wn, wkeys, wat := compactRun(t, false, dense, g, room)
	if n != wn || !slices.Equal(keys, wkeys) || !slices.Equal(at, wat) {
		t.Fatalf("%s: kernel kept %d %x at %v, Go loop %d %x at %v", label, n, keys, at, wn, wkeys, wat)
	}
}

// TestCompactKernelMatchesGo is the edge table of the prefilter's pass:
// the vector kernel against the Go loop on every length 0–17 and every
// room 0–length (so every step boundary, tail and early stop), at the
// cuts where a signed compare against g − 1 could go wrong — g = 0, the
// key of +Inf, a NaN key — over NaNs of both signs and several payloads,
// ±Inf, ±0 and subnormals, from an aligned and an unaligned start, with
// sentinels past keys and at.
func TestCompactKernelMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no vector kernel on this build or processor")
	}
	bits := math.Float64frombits
	edges := []float64{
		bits(0x7FF8000000000000), bits(0xFFF8000000000000), // the quiet NaN, both signs
		bits(0x7FF0000000000001), bits(0xFFFFFFFFFFFFFFFF), // the lowest and highest payloads
		bits(0x7FF4000000000000), bits(0xFFF0000000000002),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, bits(0x000FFFFFFFFFFFFF),
		1, -1.5, math.MaxFloat64, -0x1p-1022,
	}
	cuts := []uint64{0, rankKey(math.Inf(1)), rankKey(bits(0x7FF8000000000000)), rankKey(1), rankKey(math.SmallestNonzeroFloat64)}
	rng := rand.New(rand.NewSource(57))
	backing := make([]float64, 18)
	for length := 0; length <= 17; length++ {
		for _, off := range []int{0, 1} {
			dense := backing[off : off+length]
			for fill := range len(edges) + 4 {
				for i := range dense {
					if fill < len(edges) {
						dense[i] = edges[(i+fill)%len(edges)]
					} else {
						dense[i] = edges[rng.Intn(len(edges))]
					}
				}
				for _, g := range cuts {
					for room := 0; room <= length; room++ {
						requireCompactMatchesGo(t, fmt.Sprintf("len=%d off=%d fill=%d g=%#x room=%d", length, off, fill, g, room), dense, g, room)
					}
				}
			}
		}
	}
}

// FuzzCompact holds the vector kernel to the Go loop on arbitrary bytes:
// bytes 0–7 are the cut (its sign bit cleared, as a key's), byte 8 the
// room as a fraction of the length, byte 9 the start's offset into the
// input, and every following 8 bytes one float64 bit pattern.
func FuzzCompact(f *testing.F) {
	seed := func(g uint64, room, off byte, vals ...float64) {
		b := binary.LittleEndian.AppendUint64(nil, g)
		b = append(b, room, off)
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(0, 255, 0, 1, -2, 3, -4, 5)
	seed(rankKey(math.Inf(1)), 128, 1, math.NaN(), math.Inf(-1), 0, math.Inf(1), -math.NaN(), 1e300, 2, 3, 4)
	seed(rankKey(1), 64, 0, 0.5, 1, -1, 2, 0.25, -3, 1, 1, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		if !useAVX2 {
			t.Skip("no vector kernel on this build or processor")
		}
		if len(data) < 10 {
			return
		}
		g := binary.LittleEndian.Uint64(data) &^ (1 << 63)
		words := fuzzWords(data[10:])
		dense := make([]float64, len(words))
		for i, w := range words {
			dense[i] = math.Float64frombits(w)
		}
		dense = dense[min(int(data[9]&3), len(dense)):]
		room := int(data[8]) * (len(dense) + 1) >> 8
		requireCompactMatchesGo(t, "fuzz", dense, g, room)
	})
}

// BenchmarkCompact times the prefilter's pass, Go loop and kernel, at the
// D of the H = 786 and H = 156 models, with the cut cutGuess takes for
// k = D/100 and the room TopKInto gives the survivors.
func BenchmarkCompact(b *testing.B) {
	for _, d := range []int{99_884, 19_874} {
		dense := benchDist("normal", d)
		k := d / 100
		slab := make([]uint64, slabWords(d, k))
		g, ok := cutGuess(dense, k, slab)
		if !ok {
			b.Fatalf("d=%d: no cut", d)
		}
		m := len(slab)/2 - 1
		keys, at := slab[:m], slab[m+1:2*m+1]
		for _, kernel := range []string{"go", "avx2"} {
			b.Run(kernel+"/d="+strconv.Itoa(d), func(b *testing.B) {
				if kernel == "avx2" && !useAVX2 {
					b.Skip("no vector kernel on this build or processor")
				}
				b.ReportAllocs()
				for range b.N {
					if kernel == "go" {
						compactGo(keys, at, dense, g, 0, 0)
					} else {
						compact(keys, at, dense, g)
					}
				}
			})
		}
	}
}
