//go:build amd64 && !purego

#include "textflag.h"

// CDT Gaussian on AVX2, four coefficients a register: the vector twin
// of cdtSample, word for word. For a word w, v = w >> 1 < 2^63 and every
// threshold t_k ≤ 2^63, so (v − t_k) >> 63 is 1 exactly when v < t_k;
// their sum over the padded table counts the thresholds above v, the
// magnitude is len(t) less that count, and w's low bit is the sign.
// The loops run a count fixed by n and len(t): nothing branches on a
// word or a threshold.

// CDTSTEP adds (V − t_k) >> 63 to ACC, for t_k broadcast in Y12.
// Clobbers Y13.
#define CDTSTEP(V, ACC) \
	VPSUBQ Y12, V, Y13 \
	VPSRLQ $63, Y13, Y13 \
	VPADDQ Y13, ACC, ACC

// CDTSIGN turns the count ACC of the word W into its signed error:
// mag = size − count (Y15 = size), neg = −(w & 1) (Y14 = 1, Y11 = 0),
// out = (mag ^ neg) − neg. Clobbers W.
#define CDTSIGN(W, ACC) \
	VPSUBQ ACC, Y15, ACC \
	VPAND  Y14, W, W     \
	VPSUBQ W, Y11, W     \
	VPXOR  W, ACC, ACC   \
	VPSUBQ W, ACC, ACC

// func cdtSampleAVX2(dst *int64, words *uint64, n int, t *uint64, tlen int)
// n is a multiple of 4; tlen is a positive multiple of 4. Registers:
// Y0-Y3 words, Y4-Y7 their v, Y8-Y10 (and Y11) counts, Y11 zero, Y12
// t_k, Y13 scratch, Y14 one, Y15 tlen.
TEXT ·cdtSampleAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ words+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ t+24(FP), R8
	MOVQ tlen+32(FP), R9
	VPBROADCASTQ tlen+32(FP), Y15
	MOVQ $1, AX
	MOVQ AX, X14
	VPBROADCASTQ X14, Y14
	VPXOR Y11, Y11, Y11

	// Sixteen words a pass: one broadcast of t_k serves four registers.
	CMPQ CX, $16
	JLT  cdtQuad

cdtWide:
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPSRLQ $1, Y0, Y4
	VPSRLQ $1, Y1, Y5
	VPSRLQ $1, Y2, Y6
	VPSRLQ $1, Y3, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11 // the fourth count borrows the zero register
	MOVQ R8, R10
	MOVQ R9, R11

cdtWideK:
	VPBROADCASTQ (R10), Y12
	CDTSTEP(Y4, Y8)
	CDTSTEP(Y5, Y9)
	CDTSTEP(Y6, Y10)
	CDTSTEP(Y7, Y11)
	ADDQ $8, R10
	DECQ R11
	JNZ  cdtWideK

	// The fourth count moves to Y7 (its v is spent) and Y11 is zero
	// again for CDTSIGN.
	VMOVDQU Y11, Y7
	VPXOR Y11, Y11, Y11
	CDTSIGN(Y0, Y8)
	CDTSIGN(Y1, Y9)
	CDTSIGN(Y2, Y10)
	CDTSIGN(Y3, Y7)
	VMOVDQU Y8, 0(DI)
	VMOVDQU Y9, 32(DI)
	VMOVDQU Y10, 64(DI)
	VMOVDQU Y7, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  cdtWide

cdtQuad:
	TESTQ CX, CX
	JZ    cdtDone

cdtQuadLoop:
	VMOVDQU 0(SI), Y0
	VPSRLQ $1, Y0, Y4
	VPXOR Y8, Y8, Y8
	MOVQ R8, R10
	MOVQ R9, R11

cdtQuadK:
	VPBROADCASTQ (R10), Y12
	CDTSTEP(Y4, Y8)
	ADDQ $8, R10
	DECQ R11
	JNZ  cdtQuadK

	CDTSIGN(Y0, Y8)
	VMOVDQU Y8, 0(DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  cdtQuadLoop

cdtDone:
	VZEROUPPER
	RET
