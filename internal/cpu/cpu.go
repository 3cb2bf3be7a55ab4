// Package cpu reads, once at init, which vector instructions the
// processor and the operating system support. It is the one CPUID/XGETBV
// home of the repository's assembly kernels (internal/tensor,
// internal/sparse): each picks its kernels from X86 and nothing else.
package cpu

// Features is what the assembly kernels may use.
type Features struct {
	// AVX: the processor has AVX and the OS saves the YMM registers
	// across context switches.
	AVX bool
	// AVX2: AVX as above, and the processor has AVX2 (CPUID leaf 7).
	AVX2 bool
	// POPCNT: the processor has POPCNT.
	POPCNT bool
}

// X86 is this processor's features. It is all false off amd64 and under
// the purego build tag, where the Go loops are the only kernels.
var X86 = detect()
