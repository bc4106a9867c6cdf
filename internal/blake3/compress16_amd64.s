//go:build amd64 && !purego

#include "textflag.h"

// 16-wide BLAKE3 XOF squeeze on AVX-512: one call compresses the blocks
// at counters c..c+15 of the same output state and serializes their
// 1 024 little-endian bytes exactly as sixteen scalar compress calls
// would. As in the 8-wide AVX2 kernel (compress_amd64.s) the lanes are
// transposed: ZMM register i holds state word i of all sixteen blocks,
// so Z0-Z15 hold the whole state and nothing spills. Rotations are
// VPRORD; message words are broadcast into the adds from the XOF's
// cached 7x16 pre-permuted schedule (embedded broadcast), so no
// register holds message state. Z16-Z31 are the transpose's scratch.

// G: one quarter-round on state words a, b, c, d with the round's
// message words mx, my read from the schedule at SI.
#define G(a, b, c, d, mx, my) \
	VPADDD.BCST (mx*4)(SI), a, a \
	VPADDD      b, a, a          \
	VPXORD      a, d, d          \
	VPRORD      $16, d, d        \
	VPADDD      d, c, c          \
	VPXORD      c, b, b          \
	VPRORD      $12, b, b        \
	VPADDD.BCST (my*4)(SI), a, a \
	VPADDD      b, a, a          \
	VPXORD      a, d, d          \
	VPRORD      $8, d, d         \
	VPADDD      d, c, c          \
	VPXORD      c, b, b          \
	VPRORD      $7, b, b

// ROUND: the column and diagonal sweeps, then SI moves to the next
// round's pre-permuted message words.
#define ROUND \
	G(Z0, Z4, Z8, Z12, 0, 1)    \
	G(Z1, Z5, Z9, Z13, 2, 3)    \
	G(Z2, Z6, Z10, Z14, 4, 5)   \
	G(Z3, Z7, Z11, Z15, 6, 7)   \
	G(Z0, Z5, Z10, Z15, 8, 9)   \
	G(Z1, Z6, Z11, Z12, 10, 11) \
	G(Z2, Z7, Z8, Z13, 12, 13)  \
	G(Z3, Z4, Z9, Z14, 14, 15)  \
	ADDQ $64, SI

// iv[0..3], broadcast into state words 8-11 at compression start.
DATA blakeiv16<>+0(SB)/4, $0x6A09E667
DATA blakeiv16<>+4(SB)/4, $0xBB67AE85
DATA blakeiv16<>+8(SB)/4, $0x3C6EF372
DATA blakeiv16<>+12(SB)/4, $0xA54FF53A
GLOBL blakeiv16<>(SB), RODATA|NOPTR, $16

// func blake3Fill16AVX512(out *byte, msched *uint32, cv *uint32, ctrs *uint32, blockLen uint32, flags uint32)
TEXT ·blake3Fill16AVX512(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ msched+8(FP), SI
	MOVQ cv+16(FP), CX
	MOVQ ctrs+24(FP), DX

	// State init: words 0-7 = cv, 8-11 = iv, 12/13 = per-lane counter
	// lo/hi, 14 = blockLen, 15 = flags.
	VPBROADCASTD 0(CX), Z0
	VPBROADCASTD 4(CX), Z1
	VPBROADCASTD 8(CX), Z2
	VPBROADCASTD 12(CX), Z3
	VPBROADCASTD 16(CX), Z4
	VPBROADCASTD 20(CX), Z5
	VPBROADCASTD 24(CX), Z6
	VPBROADCASTD 28(CX), Z7
	VPBROADCASTD blakeiv16<>+0(SB), Z8
	VPBROADCASTD blakeiv16<>+4(SB), Z9
	VPBROADCASTD blakeiv16<>+8(SB), Z10
	VPBROADCASTD blakeiv16<>+12(SB), Z11
	VMOVDQU32    0(DX), Z12
	VMOVDQU32    64(DX), Z13
	MOVL         blockLen+32(FP), AX
	VPBROADCASTD AX, Z14
	MOVL         flags+36(FP), AX
	VPBROADCASTD AX, Z15

	ROUND
	ROUND
	ROUND
	ROUND
	ROUND
	ROUND
	ROUND

	// Feed-forward: words 0-7 ^= words 8-15, words 8-15 ^= cv (XOF
	// mode keeps all 16 words).
	VPXORD Z8, Z0, Z0
	VPXORD Z9, Z1, Z1
	VPXORD Z10, Z2, Z2
	VPXORD Z11, Z3, Z3
	VPXORD Z12, Z4, Z4
	VPXORD Z13, Z5, Z5
	VPXORD Z14, Z6, Z6
	VPXORD Z15, Z7, Z7
	VPXORD.BCST 0(CX), Z8, Z8
	VPXORD.BCST 4(CX), Z9, Z9
	VPXORD.BCST 8(CX), Z10, Z10
	VPXORD.BCST 12(CX), Z11, Z11
	VPXORD.BCST 16(CX), Z12, Z12
	VPXORD.BCST 20(CX), Z13, Z13
	VPXORD.BCST 24(CX), Z14, Z14
	VPXORD.BCST 28(CX), Z15, Z15

	// 16x16 transpose: register i (word i of every block) becomes
	// register b (the 16 words of block b). Interleave dwords: each
	// 128-bit lane k of the result holds two words of blocks 4k, 4k+1
	// (lo) or 4k+2, 4k+3 (hi).
	VPUNPCKLDQ Z1, Z0, Z16
	VPUNPCKHDQ Z1, Z0, Z17
	VPUNPCKLDQ Z3, Z2, Z18
	VPUNPCKHDQ Z3, Z2, Z19
	VPUNPCKLDQ Z5, Z4, Z20
	VPUNPCKHDQ Z5, Z4, Z21
	VPUNPCKLDQ Z7, Z6, Z22
	VPUNPCKHDQ Z7, Z6, Z23
	VPUNPCKLDQ Z9, Z8, Z24
	VPUNPCKHDQ Z9, Z8, Z25
	VPUNPCKLDQ Z11, Z10, Z26
	VPUNPCKHDQ Z11, Z10, Z27
	VPUNPCKLDQ Z13, Z12, Z28
	VPUNPCKHDQ Z13, Z12, Z29
	VPUNPCKLDQ Z15, Z14, Z30
	VPUNPCKHDQ Z15, Z14, Z31

	// Interleave qwords: lane k of Zj (j = 0..3) holds words 0-3 of
	// block 4k+j; Z4-Z7 words 4-7, Z8-Z11 words 8-11, Z12-Z15 words
	// 12-15, same blocks.
	VPUNPCKLQDQ Z18, Z16, Z0
	VPUNPCKHQDQ Z18, Z16, Z1
	VPUNPCKLQDQ Z19, Z17, Z2
	VPUNPCKHQDQ Z19, Z17, Z3
	VPUNPCKLQDQ Z22, Z20, Z4
	VPUNPCKHQDQ Z22, Z20, Z5
	VPUNPCKLQDQ Z23, Z21, Z6
	VPUNPCKHQDQ Z23, Z21, Z7
	VPUNPCKLQDQ Z26, Z24, Z8
	VPUNPCKHQDQ Z26, Z24, Z9
	VPUNPCKLQDQ Z27, Z25, Z10
	VPUNPCKHQDQ Z27, Z25, Z11
	VPUNPCKLQDQ Z30, Z28, Z12
	VPUNPCKHQDQ Z30, Z28, Z13
	VPUNPCKLQDQ Z31, Z29, Z14
	VPUNPCKHQDQ Z31, Z29, Z15

	// Interleave 128-bit lanes (0x88 takes lanes 0 and 2 of each
	// source, 0xdd lanes 1 and 3): Z16+j holds words 0-7 of blocks j
	// and 8+j, Z20+j those of blocks 4+j and 12+j; Z24+j and Z28+j
	// words 8-15 of the same blocks.
	VSHUFI32X4 $0x88, Z4, Z0, Z16
	VSHUFI32X4 $0x88, Z5, Z1, Z17
	VSHUFI32X4 $0x88, Z6, Z2, Z18
	VSHUFI32X4 $0x88, Z7, Z3, Z19
	VSHUFI32X4 $0xdd, Z4, Z0, Z20
	VSHUFI32X4 $0xdd, Z5, Z1, Z21
	VSHUFI32X4 $0xdd, Z6, Z2, Z22
	VSHUFI32X4 $0xdd, Z7, Z3, Z23
	VSHUFI32X4 $0x88, Z12, Z8, Z24
	VSHUFI32X4 $0x88, Z13, Z9, Z25
	VSHUFI32X4 $0x88, Z14, Z10, Z26
	VSHUFI32X4 $0x88, Z15, Z11, Z27
	VSHUFI32X4 $0xdd, Z12, Z8, Z28
	VSHUFI32X4 $0xdd, Z13, Z9, Z29
	VSHUFI32X4 $0xdd, Z14, Z10, Z30
	VSHUFI32X4 $0xdd, Z15, Z11, Z31

	// Once more: Zb is block b, stored at out + 64·b.
	VSHUFI32X4 $0x88, Z24, Z16, Z0
	VSHUFI32X4 $0x88, Z25, Z17, Z1
	VSHUFI32X4 $0x88, Z26, Z18, Z2
	VSHUFI32X4 $0x88, Z27, Z19, Z3
	VSHUFI32X4 $0x88, Z28, Z20, Z4
	VSHUFI32X4 $0x88, Z29, Z21, Z5
	VSHUFI32X4 $0x88, Z30, Z22, Z6
	VSHUFI32X4 $0x88, Z31, Z23, Z7
	VSHUFI32X4 $0xdd, Z24, Z16, Z8
	VSHUFI32X4 $0xdd, Z25, Z17, Z9
	VSHUFI32X4 $0xdd, Z26, Z18, Z10
	VSHUFI32X4 $0xdd, Z27, Z19, Z11
	VSHUFI32X4 $0xdd, Z28, Z20, Z12
	VSHUFI32X4 $0xdd, Z29, Z21, Z13
	VSHUFI32X4 $0xdd, Z30, Z22, Z14
	VSHUFI32X4 $0xdd, Z31, Z23, Z15

	VMOVDQU32 Z0, 0(DI)
	VMOVDQU32 Z1, 64(DI)
	VMOVDQU32 Z2, 128(DI)
	VMOVDQU32 Z3, 192(DI)
	VMOVDQU32 Z4, 256(DI)
	VMOVDQU32 Z5, 320(DI)
	VMOVDQU32 Z6, 384(DI)
	VMOVDQU32 Z7, 448(DI)
	VMOVDQU32 Z8, 512(DI)
	VMOVDQU32 Z9, 576(DI)
	VMOVDQU32 Z10, 640(DI)
	VMOVDQU32 Z11, 704(DI)
	VMOVDQU32 Z12, 768(DI)
	VMOVDQU32 Z13, 832(DI)
	VMOVDQU32 Z14, 896(DI)
	VMOVDQU32 Z15, 960(DI)

	VZEROUPPER
	RET

// func blake3Fill16AVX512W(out *uint64, msched *uint32, cv *uint32, ctrs *uint32, blockLen uint32, flags uint32)
//
// Word-typed alias of blake3Fill16AVX512 for FillUint64 (amd64 is
// little-endian, as for blake3Fill8AVX2W).
TEXT ·blake3Fill16AVX512W(SB), NOSPLIT, $0-40
	JMP ·blake3Fill16AVX512(SB)
