//go:build !purego

package tensor

// useAVX selects the vector kernels of kernels_amd64.s, once, from what
// the processor and the operating system support: AVX, with the YMM
// registers saved across context switches. There is no other selector;
// the purego build tag leaves the Go loops as the only kernels.
var useAVX = detectAVX()

func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	const sseState, avxState = 1 << 1, 1 << 2
	return xcr0&(sseState|avxState) == sseState|avxState
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The vector kernels. Their callers check every shape first; each keeps
// the addition chain of its Go twin (axpy4Go, axpyGo, scaleGo, matVecGo),
// one chain per lane, with separate multiplies and adds (no FMA), so the
// two are bit-identical.

// axpy4AVX is axpy4Go; every x[i] holds at least len(y) elements.
//
//go:noescape
func axpy4AVX(y []float64, a *[4]float64, x *[4][]float64)

// axpyAVX is axpyGo; len(y) ≥ len(x).
//
//go:noescape
func axpyAVX(a float64, x, y []float64)

// scaleAVX is scaleGo.
//
//go:noescape
func scaleAVX(a float64, x []float64)

// matVecAVX is matVecGo for len(dst) ≥ 4 and len(w) ≥ len(dst)·len(x).
//
//go:noescape
func matVecAVX(dst, w, x []float64)
