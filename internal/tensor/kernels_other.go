//go:build !amd64 || purego

package tensor

// Without the amd64 assembly the Go loops are the only kernels; the
// vector entry points are never called.
const useAVX = false

func axpy4AVX([]float64, *[4]float64, *[4][]float64) { panic("tensor: no vector kernels") }
func axpyAVX(float64, []float64, []float64)          { panic("tensor: no vector kernels") }
func scaleAVX(float64, []float64)                    { panic("tensor: no vector kernels") }
func matVecAVX(_, _, _ []float64)                    { panic("tensor: no vector kernels") }
func matVecLanesAVX(_, _, _ []float64, _, _ int)     { panic("tensor: no vector kernels") }
