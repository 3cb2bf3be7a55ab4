// RNG stream positions. A snapshot cannot hold an rng's state, so it
// records how far each stream has advanced instead: a CountingSource is
// this package's copy of Go 1's math/rand source (rand.NewSource: the
// additive lagged-Fibonacci generator of Mitchell and Reeds) that counts
// its state advances, and a restart re-seeds and discards the same number
// of draws. Its Int63 is its Uint64 masked, so both advance the stream by
// exactly one step, and every draw equals rand.NewSource's for the same
// seed bit for bit. Only the seeding differs in how it computes: Go seeds
// its 607 words from 1 841 chained Park–Miller steps, each a division;
// Seed computes each of those values directly as seed·48271ⁿ mod 2³¹−1
// from a table of powers, folded without division.

package wal

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// pmMod and pmMul are the Park–Miller generator that seeds the words:
	// x ← 48271·x mod 2³¹−1, from a start of the normalised seed.
	pmMod = 1<<31 - 1
	pmMul = 48271
	// pmSkip is how many Park–Miller steps Go's seeding discards before
	// the first word; word i then takes steps pmSkip+3i+1 to pmSkip+3i+3.
	pmSkip = 20
	// pmZero stands in for a seed that is 0 modulo pmMod.
	pmZero = 89482311
)

// pmPow holds 48271ⁿ mod 2³¹−1 for n = pmSkip+1 … pmSkip+3·rngLen: the
// three Park–Miller powers of each word, in seeding order.
var pmPow = func() (pow [rngLen][3]uint64) {
	x := uint64(1)
	for range pmSkip {
		x = pmFold(x * pmMul)
	}
	for i := range pow {
		for j := range pow[i] {
			x = pmFold(x * pmMul)
			pow[i][j] = x
		}
	}
	return pow
}()

// pmFold reduces p modulo the Mersenne prime 2³¹−1 without a division,
// for p < 2⁶² and not a multiple of 2³¹−1 — a product of two nonzero
// residues never is. One fold of the high bits onto the low leaves
// [1, 2·(2³¹−1)), and one conditional subtraction the residue.
func pmFold(p uint64) uint64 {
	p = p&pmMod + p>>31
	if p >= pmMod {
		p -= pmMod
	}
	return p
}

// CountingSource is Go 1's math/rand source with a count of its state
// advances, so Pos() is a resumable stream position. It is held by
// value and allocates nothing. The zero value is unseeded: Reset seeds
// it before first use.
type CountingSource struct {
	tap, feed int // indices into vec
	vec       [rngLen]int64
	n         uint64
}

// NewCountingSource returns the source for seed, positioned at pos (0
// for a fresh stream).
func NewCountingSource(seed int64, pos uint64) *CountingSource {
	s := &CountingSource{}
	s.Reset(seed, pos)
	return s
}

// Reset repositions s at pos in seed's stream: it re-seeds in place and
// discards pos steps, so one CountingSource can serve many streams in
// turn, each resumed at the Pos it was left at. No Reset allocates.
func (s *CountingSource) Reset(seed int64, pos uint64) {
	s.Seed(seed)
	for range pos {
		s.step()
	}
	s.n = pos
}

// Pos reports how many state advances the stream has made since seed.
func (s *CountingSource) Pos() uint64 { return s.n }

func (s *CountingSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *CountingSource) Uint64() uint64 {
	s.n++
	return s.step()
}

// step advances the generator one word: vec[feed] += vec[tap], both
// indices moving down the ring.
func (s *CountingSource) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Seed seeds s as math/rand's source seeds itself, at position 0: the
// seed is normalised into [1, 2³¹−1), and word i is the XOR of three
// consecutive Park–Miller values, shifted by 40, 20 and 0, with
// rngCooked[i]. Each value is seed·48271ⁿ mod 2³¹−1 from pmPow, so no
// value waits on the one before it.
func (s *CountingSource) Seed(seed int64) {
	s.tap, s.feed, s.n = 0, rngLen-rngTap, 0
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = pmZero
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &pmPow[i]
		u := int64(pmFold(x*p[0]))<<40 ^ int64(pmFold(x*p[1]))<<20 ^ int64(pmFold(x*p[2]))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// RunID derives a stable run identifier from a seed via SplitMix64, so
// every process of a run (and a restarted process with the same flags)
// computes the same nonzero id without coordination.
func RunID(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
