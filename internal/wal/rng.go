// RNG stream positions. math/rand sources are not marshalable, so a
// snapshot records how far each stream has advanced instead: a
// CountingSource wraps the standard source and counts state advances,
// and a restart re-seeds and discards the same number of draws. This
// is exact for math/rand's default source because its Int63 is defined
// as Uint64 masked — both advance the generator by exactly one step.
package wal

import "math/rand"

// CountingSource wraps rand.NewSource(seed) and counts every state
// advance, so Pos() is a resumable stream position. The zero value is
// unseeded: Reset seeds it before first use.
type CountingSource struct {
	src rand.Source64
	n   uint64
}

// NewCountingSource returns a counting wrapper over the standard
// source for seed, positioned at pos (0 for a fresh stream).
func NewCountingSource(seed int64, pos uint64) *CountingSource {
	s := &CountingSource{}
	s.Reset(seed, pos)
	return s
}

// Reset repositions s at pos in seed's stream: it re-seeds the inner
// source in place and discards pos steps, so one CountingSource can
// serve many streams in turn, each resumed at the Pos it was left at.
// Only the first Reset of a zero CountingSource allocates.
func (s *CountingSource) Reset(seed int64, pos uint64) {
	if s.src == nil {
		s.src = rand.NewSource(seed).(rand.Source64)
	} else {
		s.src.Seed(seed)
	}
	for i := uint64(0); i < pos; i++ {
		s.src.Uint64()
	}
	s.n = pos
}

// Pos reports how many state advances the stream has made since seed.
func (s *CountingSource) Pos() uint64 { return s.n }

func (s *CountingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *CountingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *CountingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
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
