//go:build !purego

#include "textflag.h"

// The first four element indices, one per 64-bit lane.
DATA compactLanes<>+0(SB)/8, $0
DATA compactLanes<>+8(SB)/8, $1
DATA compactLanes<>+16(SB)/8, $2
DATA compactLanes<>+24(SB)/8, $3
GLOBL compactLanes<>(SB), RODATA|NOPTR, $32

// func compactAVX2(keys, at []uint64, dense []float64, cut uint64) (n, i int)
//
// Each step reads four elements, clears their sign bits (the keys),
// compares them with cut − 1 as signed integers (a key is below 2^63, so
// key > cut − 1 iff key ≥ cut, also at cut = 0), packs the kept keys and
// their indices to the front through the mask's VPERMD permutation
// (compactPerm), stores all four lanes of each at keys[n:] and at[n:],
// and advances n by the mask's popcount.
TEXT ·compactAVX2(SB), NOSPLIT, $0-96
	MOVQ keys_base+0(FP), DI
	MOVQ keys_len+8(FP), R9
	MOVQ at_base+24(FP), R10
	MOVQ dense_base+48(FP), SI
	MOVQ dense_len+56(FP), CX
	MOVQ cut+72(FP), AX
	LEAQ ·compactPerm(SB), R8
	DECQ AX
	MOVQ AX, X0
	VPBROADCASTQ X0, Y0 // cut − 1
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	MOVQ AX, X1
	VPBROADCASTQ X1, Y1 // the sign mask
	VMOVDQU compactLanes<>(SB), Y2 // the step's indices
	MOVQ $4, AX
	MOVQ AX, X3
	VPBROADCASTQ X3, Y3
	SUBQ $4, CX // the last step starts at len(dense) − 4
	SUBQ $4, R9 // and at most four before the end of keys
	XORQ BX, BX // n
	XORQ DX, DX // i

compact_step:
	CMPQ DX, CX
	JGT  compact_done
	CMPQ BX, R9
	JGT  compact_done
	VPAND     (SI)(DX*8), Y1, Y4
	VPCMPGTQ  Y0, Y4, Y5
	VMOVMSKPD Y5, AX
	MOVQ      AX, R11
	SHLQ      $5, R11
	VMOVDQU   (R8)(R11*1), Y6
	VPERMD    Y4, Y6, Y7
	VPERMD    Y2, Y6, Y8
	VMOVDQU   Y7, (DI)(BX*8)
	VMOVDQU   Y8, (R10)(BX*8)
	POPCNTQ   AX, AX
	ADDQ      AX, BX
	VPADDQ    Y3, Y2, Y2
	ADDQ      $4, DX
	JMP       compact_step

compact_done:
	VZEROUPPER
	MOVQ BX, n+80(FP)
	MOVQ DX, i+88(FP)
	RET
