package cpu

import "testing"

// TestFeaturesNest pins what the kernels rely on when they read X86: AVX2
// is only reported where AVX, the YMM state included, is.
func TestFeaturesNest(t *testing.T) {
	if X86.AVX2 && !X86.AVX {
		t.Fatalf("X86 = %+v: AVX2 without AVX", X86)
	}
}
