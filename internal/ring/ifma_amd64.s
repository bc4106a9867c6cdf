//go:build amd64 && !purego

// AVX-512 IFMA kernels for the two dyadic loops under every key switch
// and every inner sum: the gathered key-switch inner product
// (AutomorphismNTTMulShoupAdd2) and the 128-bit multiply-accumulate
// (MulCoeffsAddWide). VPMADD52LUQ/VPMADD52HUQ multiply the low 52 bits
// of two lanes and add the low/high 52 bits of the 104-bit product to
// the destination, so for operands below 2^52 one instruction yields
// each half of a product. The callers only run them on rings whose
// every modulus is below 2^51 and whose N is a multiple of 8 (eight
// lanes per ZMM register, no tail).

#include "textflag.h"

// R = X*W mod q, canonical, for X, W < q < 2^51: Shoup's reduction at
// β = 2^52. WS holds ShoupPrecomp(W) = ⌊W·2^64/q⌋, so WS>>12 =
// ⌊W·2^52/q⌋ exactly and qhat = ⌊X·(WS>>12)/2^52⌋ undershoots ⌊X·W/q⌋
// by at most one: X·W − qhat·q ∈ [0, 2q) ⊂ [0, 2^52), so it equals
// (lo52(X·W) + lo52(qhat·(2^52−q))) mod 2^52, and one VPMINUQ against
// R − q (which wraps to a huge value when R < q) makes it canonical.
// NQ = 2^52 − q, Q = q, MASK = 2^52 − 1. Clobbers WS, T0. R must differ
// from X and WS.
#define MULSHOUP52(X, W, WS, Q, NQ, MASK, T0, R) \
	VPSRLQ      $12, WS, WS \
	VPXORQ      T0, T0, T0  \
	VPMADD52HUQ WS, X, T0   \ // qhat
	VPXORQ      R, R, R     \
	VPMADD52LUQ W, X, R     \ // lo52(X·W)
	VPMADD52LUQ NQ, T0, R   \ // + lo52(−qhat·q)
	VPANDQ      MASK, R, R  \
	VPSUBQ      Q, R, T0    \
	VPMINUQ     T0, R, R

// ACC = (ACC + R) mod q for ACC, R < q. Clobbers T0.
#define ADDMOD(R, Q, T0, ACC) \
	VPADDQ  R, ACC, ACC \
	VPSUBQ  Q, ACC, T0  \
	VPMINUQ T0, ACC, ACC

// func autoMulShoupAdd2IFMA(ro0, ro1, ra, perm, rb0, rs0, rb1, rs1 *uint64, q uint64, n int)
// ro0[j] += ra[perm[j]]·rb0[j], ro1[j] += ra[perm[j]]·rb1[j], each mod q
// and canonical — exactly nt.Add(nt.MulShoup) of the scalar loop. The
// gathered lane is loaded once for both products. n is a multiple of 8.
TEXT ·autoMulShoupAdd2IFMA(SB), NOSPLIT, $0-80
	MOVQ ro0+0(FP), DI
	MOVQ ro1+8(FP), R10
	MOVQ ra+16(FP), SI
	MOVQ perm+24(FP), BX
	MOVQ rb0+32(FP), R8
	MOVQ rs0+40(FP), R9
	MOVQ rb1+48(FP), R11
	MOVQ rs1+56(FP), R12
	MOVQ q+64(FP), AX
	VPBROADCASTQ AX, Z31
	MOVQ $0x10000000000000, DX
	SUBQ AX, DX
	VPBROADCASTQ DX, Z30
	MOVQ $0xfffffffffffff, DX
	VPBROADCASTQ DX, Z29
	MOVQ n+72(FP), CX
	SHRQ $3, CX

autoShoup2Loop:
	VMOVDQU64  (BX), Z0
	KXNORW     K1, K1, K1
	VPGATHERQQ (SI)(Z0*8), K1, Z1
	VMOVDQU64  (R8), Z2
	VMOVDQU64  (R9), Z3
	MULSHOUP52(Z1, Z2, Z3, Z31, Z30, Z29, Z4, Z5)
	VMOVDQU64  (DI), Z6
	ADDMOD(Z5, Z31, Z4, Z6)
	VMOVDQU64  Z6, (DI)
	VMOVDQU64  (R11), Z2
	VMOVDQU64  (R12), Z3
	MULSHOUP52(Z1, Z2, Z3, Z31, Z30, Z29, Z4, Z5)
	VMOVDQU64  (R10), Z6
	ADDMOD(Z5, Z31, Z4, Z6)
	VMOVDQU64  Z6, (R10)
	ADDQ $64, BX
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R11
	ADDQ $64, R12
	ADDQ $64, DI
	ADDQ $64, R10
	DECQ CX
	JNZ  autoShoup2Loop
	VZEROUPPER
	RET

// func mulAddWideIFMA(lo, hi, ra, rb *uint64, n int)
// (hi[j], lo[j]) += ra[j]·rb[j] as 128-bit integers, for ra, rb < 2^52:
// the same sum bits.Mul64 + bits.Add64 keep. With L = lo52 and H = hi52
// of the product, the product is L + H·2^52 < 2^104, so its low word is
// L | H<<52 (the halves do not overlap) and its high word H>>12; the
// carry out of the low-word add is lo' < plo. n is a multiple of 8.
TEXT ·mulAddWideIFMA(SB), NOSPLIT, $0-40
	MOVQ lo+0(FP), DI
	MOVQ hi+8(FP), R10
	MOVQ ra+16(FP), SI
	MOVQ rb+24(FP), R8
	MOVQ $1, DX
	VPBROADCASTQ DX, Z31
	MOVQ n+32(FP), CX
	SHRQ $3, CX

wideLoop:
	VMOVDQU64   (SI), Z0
	VMOVDQU64   (R8), Z1
	VPXORQ      Z2, Z2, Z2
	VPMADD52LUQ Z1, Z0, Z2 // L
	VPXORQ      Z3, Z3, Z3
	VPMADD52HUQ Z1, Z0, Z3 // H
	VPSLLQ      $52, Z3, Z4
	VPORQ       Z4, Z2, Z2 // low word of the product
	VPSRLQ      $12, Z3, Z3 // high word of the product
	VMOVDQU64   (DI), Z5
	VPADDQ      Z2, Z5, Z5
	VPCMPUQ     $1, Z2, Z5, K1 // carry: lo' < plo
	VMOVDQU64   (R10), Z6
	VPADDQ      Z3, Z6, Z6
	VPADDQ      Z31, Z6, K1, Z6
	VMOVDQU64   Z5, (DI)
	VMOVDQU64   Z6, (R10)
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, DI
	ADDQ $64, R10
	DECQ CX
	JNZ  wideLoop
	VZEROUPPER
	RET
