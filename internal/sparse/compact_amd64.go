//go:build !purego

package sparse

import "fedsparse/internal/cpu"

// useAVX2 selects compact_amd64.s's kernel for the prefilter's pass, once,
// from what the processor and the operating system support
// (internal/cpu). There is no other selector; the purego build tag leaves
// compactGo as the only pass.
var useAVX2 = cpu.X86.AVX2 && cpu.X86.POPCNT

// compactPerm[m] is the VPERMD permutation that packs the 64-bit lanes
// set in the 4-bit mask m to the front, in lane order; compactAVX2 reads
// it. The lanes after them are don't-cares.
var compactPerm = func() (perm [16][8]uint32) {
	for m := range perm {
		n := 0
		for lane := range 4 {
			if m>>lane&1 != 0 {
				perm[m][2*n], perm[m][2*n+1] = uint32(2*lane), uint32(2*lane+1)
				n++
			}
		}
	}
	return perm
}()

// compactAVX2 is compactGo(keys, at, dense, cut, 0, 0) over a prefix of
// dense, four elements per step, for len(at) ≥ len(keys): it stops before
// the first step that could write past keys, or when fewer than four
// elements are left, and returns the count kept and the elements read, for
// compactGo to go on from. keys[n:] and at[n:] may hold don't-cares.
//
//go:noescape
func compactAVX2(keys, at []uint64, dense []float64, cut uint64) (n, i int)
