//go:build !purego

#include "textflag.h"

// The AVX kernels behind axpy4, AXPY, Scale, MatVec and MatVecLanes.
// Each output element keeps the addition chain of the Go loop it
// replaces, in one lane: vectors only ever run independent chains side by
// side, every multiply and add is a separate VMULPD/VADDPD (no FMA), and
// nothing is reassociated, so the results are bit-identical to the Go
// loops. Leftover elements run the same chain in scalar VMULSD/VADDSD.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4AVX(y []float64, a *[4]float64, x *[4][]float64)
//
// y[c] = (((y[c] + a₀x₀[c]) + a₁x₁[c]) + a₂x₂[c]) + a₃x₃[c], eight
// elements per pass, then four, then one at a time.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-40
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ a+24(FP), AX
	MOVQ x+32(FP), BX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	MOVQ 0(BX), R8  // x[0]'s base; a slice header is 24 bytes
	MOVQ 24(BX), R9
	MOVQ 48(BX), R10
	MOVQ 72(BX), R11
	XORQ SI, SI
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   axpy4_four

axpy4_eight:
	VMOVUPD (DI)(SI*8), Y4
	VMOVUPD 32(DI)(SI*8), Y5
	VMULPD  (R8)(SI*8), Y0, Y6
	VMULPD  32(R8)(SI*8), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R9)(SI*8), Y1, Y6
	VMULPD  32(R9)(SI*8), Y1, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R10)(SI*8), Y2, Y6
	VMULPD  32(R10)(SI*8), Y2, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R11)(SI*8), Y3, Y6
	VMULPD  32(R11)(SI*8), Y3, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(SI*8)
	VMOVUPD Y5, 32(DI)(SI*8)
	ADDQ    $8, SI
	CMPQ    SI, DX
	JB      axpy4_eight

axpy4_four:
	MOVQ CX, DX
	SUBQ SI, DX
	CMPQ DX, $4
	JB   axpy4_one
	VMOVUPD (DI)(SI*8), Y4
	VMULPD  (R8)(SI*8), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R9)(SI*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R10)(SI*8), Y2, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R11)(SI*8), Y3, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, (DI)(SI*8)
	ADDQ    $4, SI

axpy4_one:
	CMPQ SI, CX
	JAE  axpy4_done
	VMOVSD (DI)(SI*8), X4
	VMULSD (R8)(SI*8), X0, X6
	VADDSD X6, X4, X4
	VMULSD (R9)(SI*8), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R10)(SI*8), X2, X6
	VADDSD X6, X4, X4
	VMULSD (R11)(SI*8), X3, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(SI*8)
	INCQ   SI
	JMP    axpy4_one

axpy4_done:
	VZEROUPPER
	RET

// func axpyAVX(a float64, x, y []float64)
//
// y[i] = y[i] + a·x[i] over i < len(x), sixteen elements per pass, then
// four, then one at a time.
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   axpy_four

axpy_sixteen:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VMOVUPD (DI)(AX*8), Y5
	VMOVUPD 32(DI)(AX*8), Y6
	VMOVUPD 64(DI)(AX*8), Y7
	VMOVUPD 96(DI)(AX*8), Y8
	VADDPD  Y1, Y5, Y5
	VADDPD  Y2, Y6, Y6
	VADDPD  Y3, Y7, Y7
	VADDPD  Y4, Y8, Y8
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	VMOVUPD Y7, 64(DI)(AX*8)
	VMOVUPD Y8, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JB      axpy_sixteen

axpy_four:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JB   axpy_one
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y5
	VADDPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpy_four

axpy_one:
	CMPQ AX, CX
	JAE  axpy_done
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X5
	VADDSD X1, X5, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	JMP    axpy_one

axpy_done:
	VZEROUPPER
	RET

// func scaleAVX(a float64, x []float64)
//
// x[i] = x[i]·a, sixteen elements per pass, then four, then one at a time.
TEXT ·scaleAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y0
	MOVQ x_base+8(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   scale_four

scale_sixteen:
	VMULPD  (DI)(AX*8), Y0, Y1
	VMULPD  32(DI)(AX*8), Y0, Y2
	VMULPD  64(DI)(AX*8), Y0, Y3
	VMULPD  96(DI)(AX*8), Y0, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JB      scale_sixteen

scale_four:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JB   scale_one
	VMULPD  (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     scale_four

scale_one:
	CMPQ AX, CX
	JAE  scale_done
	VMULSD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    scale_one

scale_done:
	VZEROUPPER
	RET

// MatVec runs one row's chain per lane: a 4-row × 4-column tile of w is
// loaded and transposed in registers, so that Y4..Y7 hold its columns
// (one row per lane), and the columns are then added to the group's
// accumulator in column order. R8 is the row stride in bytes and R11
// three strides; the tile's rows start at base, base+R8, base+2·R8 and
// base+R11. Y12..Y15 hold the four x values broadcast.
#define MATVEC_TILE(base, acc) \
	VMOVUPD    (base), Y4; \
	VMOVUPD    (base)(R8*1), Y5; \
	VMOVUPD    (base)(R8*2), Y6; \
	VMOVUPD    (base)(R11*1), Y7; \
	VUNPCKLPD  Y5, Y4, Y8; \
	VUNPCKHPD  Y5, Y4, Y9; \
	VUNPCKLPD  Y7, Y6, Y10; \
	VUNPCKHPD  Y7, Y6, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y4; \
	VPERM2F128 $0x20, Y11, Y9, Y5; \
	VPERM2F128 $0x31, Y10, Y8, Y6; \
	VPERM2F128 $0x31, Y11, Y9, Y7; \
	VMULPD     Y12, Y4, Y4; \
	VADDPD     Y4, acc, acc; \
	VMULPD     Y13, Y5, Y5; \
	VADDPD     Y5, acc, acc; \
	VMULPD     Y14, Y6, Y6; \
	VADDPD     Y6, acc, acc; \
	VMULPD     Y15, Y7, Y7; \
	VADDPD     Y7, acc, acc

// MATVEC_COLUMN adds one leftover column of a 4-row group (its x value
// broadcast in Y12) to the group's accumulator.
#define MATVEC_COLUMN(base, acc) \
	VMOVSD      (base), X4; \
	VMOVHPD     (base)(R8*1), X4, X4; \
	VMOVSD      (base)(R8*2), X5; \
	VMOVHPD     (base)(R11*1), X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMULPD      Y12, Y4, Y4; \
	VADDPD      Y4, acc, acc

#define MATVEC_BROADCAST4(xp) \
	VBROADCASTSD 0(xp), Y12; \
	VBROADCASTSD 8(xp), Y13; \
	VBROADCASTSD 16(xp), Y14; \
	VBROADCASTSD 24(xp), Y15

// func matVecAVX(dst, w, x []float64)
//
// dst[r] = ((0 + w[r][0]·x[0]) + w[r][1]·x[1]) + … for a len(dst) × len(x)
// row-major w, len(dst) ≥ 4. Rows go eight per pass, two 4-row groups
// whose chains run side by side to hide the add latency. When the rows do
// not divide evenly, the last pass starts at len(dst)−8 and recomputes
// a few rows an earlier pass already stored; every row's chain is the
// same in any lane, so the rewrite stores the same bits. Fewer than
// eight rows go four per pass the same way.
TEXT ·matVecAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R13
	MOVQ w_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), BX
	MOVQ BX, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R11
	XORQ AX, AX
	CMPQ R13, $8
	JB   matvec_four

matvec_eight:
	MOVQ   AX, R9
	IMULQ  R8, R9
	ADDQ   SI, R9
	LEAQ   (R9)(R8*4), R12
	MOVQ   DX, R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   BX, CX
	SHRQ   $2, CX
	JZ     matvec_eight_cols

matvec_eight_tiles:
	MATVEC_BROADCAST4(R10)
	MATVEC_TILE(R9, Y0)
	MATVEC_TILE(R12, Y1)
	ADDQ $32, R9
	ADDQ $32, R12
	ADDQ $32, R10
	DECQ CX
	JNZ  matvec_eight_tiles

matvec_eight_cols:
	MOVQ BX, CX
	ANDQ $3, CX
	JZ   matvec_eight_store

matvec_eight_col:
	VBROADCASTSD (R10), Y12
	MATVEC_COLUMN(R9, Y0)
	MATVEC_COLUMN(R12, Y1)
	ADDQ $8, R9
	ADDQ $8, R12
	ADDQ $8, R10
	DECQ CX
	JNZ  matvec_eight_col

matvec_eight_store:
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, R13
	JAE     matvec_done
	MOVQ    R13, CX
	SUBQ    $8, CX
	CMPQ    AX, CX
	JBE     matvec_eight
	MOVQ    CX, AX
	JMP     matvec_eight

matvec_four:
	MOVQ   AX, R9
	IMULQ  R8, R9
	ADDQ   SI, R9
	MOVQ   DX, R10
	VXORPD Y0, Y0, Y0
	MOVQ   BX, CX
	SHRQ   $2, CX
	JZ     matvec_four_cols

matvec_four_tiles:
	MATVEC_BROADCAST4(R10)
	MATVEC_TILE(R9, Y0)
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ CX
	JNZ  matvec_four_tiles

matvec_four_cols:
	MOVQ BX, CX
	ANDQ $3, CX
	JZ   matvec_four_store

matvec_four_col:
	VBROADCASTSD (R10), Y12
	MATVEC_COLUMN(R9, Y0)
	ADDQ $8, R9
	ADDQ $8, R10
	DECQ CX
	JNZ  matvec_four_col

matvec_four_store:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R13
	JAE     matvec_done
	MOVQ    R13, AX
	SUBQ    $4, AX
	JMP     matvec_four

matvec_done:
	VZEROUPPER
	RET

// MatVecLanes runs a 4-row × 8-lane block per pass: Y0..Y7 hold rows
// r..r+3, two vectors of four lanes per row (Y0/Y1 row r, Y2/Y3 row r+1,
// …). Each column c loads its eight inputs xt[c][0..7] once and adds
// w[r+i][c]·xt[c] into row i's pair, so every lane runs one input's
// chain in column order.
#define LANES_ROW(off, lo, hi) \
	VBROADCASTSD off, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y11, lo, lo; \
	VADDPD       Y12, hi, hi

// LANES_TRANSPOSE turns four rows' vectors of four lanes (a..d) into four
// lanes' vectors of four rows in Y12..Y15, as MATVEC_TILE does.
#define LANES_TRANSPOSE(a, b, c, d) \
	VUNPCKLPD  b, a, Y8; \
	VUNPCKHPD  b, a, Y9; \
	VUNPCKLPD  d, c, Y10; \
	VUNPCKHPD  d, c, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y12; \
	VPERM2F128 $0x20, Y11, Y9, Y13; \
	VPERM2F128 $0x31, Y10, Y8, Y14; \
	VPERM2F128 $0x31, Y11, Y9, Y15

// func matVecLanesAVX(dst, w, xt []float64, rows, n int)
//
// dst[s·rows + r] = ((0 + w[r][0]·xt[0][s]) + w[r][1]·xt[1][s]) + … for
// s < n over the len(xt)/8 columns of a row-major w, rows ≥ 4. A pass
// computes all eight lanes of four rows, transposes the block into one
// 4-row vector per lane and stores the first n. When rows is not a
// multiple of four, the last pass starts at rows−4 and rewrites a few
// rows an earlier pass stored, with the same bits.
TEXT ·matVecLanesAVX(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ xt_base+48(FP), DX
	MOVQ xt_len+56(FP), BX
	SHRQ $3, BX // columns
	MOVQ rows+72(FP), R13
	MOVQ BX, R8
	SHLQ $3, R8 // w's row stride in bytes
	LEAQ (R8)(R8*2), R11
	MOVQ R13, R12
	SHLQ $3, R12 // dst's lane stride in bytes
	XORQ AX, AX

lanes_pass:
	MOVQ   AX, R9
	IMULQ  R8, R9
	ADDQ   SI, R9
	MOVQ   DX, R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   BX, CX
	TESTQ  CX, CX
	JZ     lanes_store

lanes_col:
	VMOVUPD (R10), Y8
	VMOVUPD 32(R10), Y9
	LANES_ROW((R9), Y0, Y1)
	LANES_ROW((R9)(R8*1), Y2, Y3)
	LANES_ROW((R9)(R8*2), Y4, Y5)
	LANES_ROW((R9)(R11*1), Y6, Y7)
	ADDQ $8, R9
	ADDQ $64, R10
	DECQ CX
	JNZ  lanes_col

lanes_store:
	LEAQ (DI)(AX*8), CX
	LEAQ (R12)(R12*2), R9
	MOVQ n+80(FP), R10
	LANES_TRANSPOSE(Y0, Y2, Y4, Y6)
	VMOVUPD Y12, (CX)
	CMPQ    R10, $1
	JBE     lanes_next
	VMOVUPD Y13, (CX)(R12*1)
	CMPQ    R10, $2
	JBE     lanes_next
	VMOVUPD Y14, (CX)(R12*2)
	CMPQ    R10, $3
	JBE     lanes_next
	VMOVUPD Y15, (CX)(R9*1)
	CMPQ    R10, $4
	JBE     lanes_next
	LEAQ    (CX)(R12*4), CX
	LANES_TRANSPOSE(Y1, Y3, Y5, Y7)
	VMOVUPD Y12, (CX)
	CMPQ    R10, $5
	JBE     lanes_next
	VMOVUPD Y13, (CX)(R12*1)
	CMPQ    R10, $6
	JBE     lanes_next
	VMOVUPD Y14, (CX)(R12*2)
	CMPQ    R10, $7
	JBE     lanes_next
	VMOVUPD Y15, (CX)(R9*1)

lanes_next:
	ADDQ $4, AX
	CMPQ AX, R13
	JAE  lanes_done
	MOVQ R13, CX
	SUBQ $4, CX
	CMPQ AX, CX
	JBE  lanes_pass
	MOVQ CX, AX
	JMP  lanes_pass

lanes_done:
	VZEROUPPER
	RET
