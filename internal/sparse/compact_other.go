//go:build !amd64 || purego

package sparse

// Without the amd64 assembly compactGo is the only prefilter pass; the
// vector entry point is never called.
const useAVX2 = false

func compactAVX2(_, _ []uint64, _ []float64, _ uint64) (int, int) {
	panic("sparse: no vector kernel")
}
