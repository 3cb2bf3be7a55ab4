package wal_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fedsparse/internal/fl"
	"fedsparse/internal/wal"
)

// pmMod is 2³¹−1, the modulus of the Park–Miller steps that seed Go 1's
// source: seeds are taken modulo it.
const pmMod = 1<<31 - 1

// stdlibSeeds are the seeds the source must agree with rand.NewSource on:
// the edges of the seed's normalisation (0, ±1, multiples of 2³¹−1, both
// int64 extremes, the stand-in for a seed of 0 itself) and the client
// seeds the engine and every wire tier draw from.
func stdlibSeeds() []int64 {
	seeds := []int64{0, 1, -1, pmMod, -pmMod, 2 * pmMod, pmMod - 1, math.MinInt64, math.MaxInt64, 89482311}
	for _, base := range []int64{1, 2, -7} {
		for _, id := range []int{0, 1, 99, 99_999} {
			seeds = append(seeds, fl.ClientSeed(base, id))
		}
	}
	return seeds
}

// requireSameDraws draws n times from both sources, alternating Uint64
// and Int63, and fails on the first difference.
func requireSameDraws(t *testing.T, label string, src *wal.CountingSource, ref rand.Source64, n int) {
	t.Helper()
	for i := range n {
		if a, b := src.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("%s: Uint64 %d: %#x != %#x", label, i, a, b)
		}
		if a, b := src.Int63(), ref.Int63(); a != b {
			t.Fatalf("%s: Int63 %d: %#x != %#x", label, i, a, b)
		}
	}
}

// TestCountingSourceMatchesStdlib holds the source to math/rand's: at
// every seed of stdlibSeeds, the raw Uint64 and Int63 stream, the stream
// resumed by Reset at a position, and what a rand.Rand draws from it —
// Intn with rejections, Float64, NormFloat64, Perm — equal
// rand.NewSource(seed)'s bit for bit, and Pos counts every step.
func TestCountingSourceMatchesStdlib(t *testing.T) {
	// bound takes Int31n's rejection loop about half the time.
	const bound = 1<<30 + 1
	for _, seed := range stdlibSeeds() {
		src := wal.NewCountingSource(seed, 0)
		requireSameDraws(t, "fresh", src, rand.NewSource(seed).(rand.Source64), 10_000)
		if src.Pos() != 20_000 {
			t.Fatalf("seed %d: Pos %d after 20000 draws", seed, src.Pos())
		}

		for _, pos := range []uint64{0, 1, 607, 10_000} {
			src.Reset(seed, pos)
			ref := rand.NewSource(seed).(rand.Source64)
			for range pos {
				ref.Uint64()
			}
			requireSameDraws(t, "reset", src, ref, 1_000)
			if src.Pos() != pos+2_000 {
				t.Fatalf("seed %d: Pos %d after Reset at %d and 2000 draws", seed, src.Pos(), pos)
			}
		}

		src.Reset(seed, 0)
		rng, ref := rand.New(src), rand.New(rand.NewSource(seed))
		for i := range 1_000 {
			if a, b := rng.Intn(bound), ref.Intn(bound); a != b {
				t.Fatalf("seed %d: Intn %d: %d != %d", seed, i, a, b)
			}
			if a, b := rng.Float64(), ref.Float64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: Float64 %d: %v != %v", seed, i, a, b)
			}
			if a, b := rng.NormFloat64(), ref.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: NormFloat64 %d: %v != %v", seed, i, a, b)
			}
		}
		if a, b := rng.Perm(100), ref.Perm(100); !slices.Equal(a, b) {
			t.Fatalf("seed %d: Perm %v != %v", seed, a, b)
		}
	}
}

// FuzzCountingSource holds the source to rand.NewSource at an arbitrary
// seed, a position up to 65 535 and up to 4 096 draws of each kind.
func FuzzCountingSource(f *testing.F) {
	for i, seed := range stdlibSeeds() {
		f.Add(seed, uint16(i*607), uint16(i*31))
	}
	f.Fuzz(func(t *testing.T, seed int64, pos, n uint16) {
		ref := rand.NewSource(seed).(rand.Source64)
		for range pos {
			ref.Uint64()
		}
		src := wal.NewCountingSource(seed, uint64(pos))
		draws := int(n % 4097)
		requireSameDraws(t, "fuzz", src, ref, draws)
		if src.Pos() != uint64(pos)+2*uint64(draws) {
			t.Fatalf("Pos %d after Reset at %d and %d draws", src.Pos(), pos, 2*draws)
		}
	})
}

// BenchmarkCountingSourceReset is a population host's member switch:
// re-seeding the one shared source for another member's stream. It
// allocates nothing.
func BenchmarkCountingSourceReset(b *testing.B) {
	var s wal.CountingSource
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset(fl.ClientSeed(1, i), 0)
	}
}
