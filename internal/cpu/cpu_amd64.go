//go:build !purego

package cpu

func detect() (f Features) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	f.POPCNT = ecx1&popcnt != 0
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return f
	}
	const sseState, avxState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(sseState|avxState) != sseState|avxState {
		return f
	}
	f.AVX = true
	// Leaf 7 holds AVX2; a processor whose highest leaf is below it
	// answers with the highest leaf's data instead.
	if maxLeaf >= 7 {
		const avx2 = 1 << 5
		_, ebx7, _, _ := cpuid(7, 0)
		f.AVX2 = ebx7&avx2 != 0
	}
	return f
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
