//go:build amd64 && !purego

// AVX-512 IFMA kernels for the NTT and for the two dyadic loops under
// every key switch and every inner sum: the forward and inverse
// transform stages, the gathered key-switch inner product
// (AutomorphismNTTMulShoupAdd2) and the 128-bit multiply-accumulate
// (MulCoeffsAddWide). VPMADD52LUQ/VPMADD52HUQ multiply the low 52 bits
// of two lanes and add the low/high 52 bits of the 104-bit product to
// the destination, so for operands below 2^52 one instruction yields
// each half of a product. The callers only run them on moduli below
// 2^51 (eight lanes per ZMM register, no tail): the dyadic kernels on
// rings whose N is a multiple of 8, the NTT stages on rows of N >= 16.

#include "textflag.h"

// R = X·W − qhat·q ∈ [0, 2q), congruent to X·W mod q, for X < 2q and
// W < q < 2^51: Shoup's reduction at β = 2^52. WS52 = WS>>12, where WS
// holds ShoupPrecomp(W) = ⌊W·2^64/q⌋, so WS52 = ⌊W·2^52/q⌋ exactly and
// qhat = ⌊X·WS52/2^52⌋ undershoots ⌊X·W/q⌋ by at most one (X < 2^52).
// X·W − qhat·q < 2q < 2^52, so it equals (lo52(X·W) +
// lo52(qhat·(2^52−q))) mod 2^52. NQ = 2^52 − q, MASK = 2^52 − 1.
// Clobbers T0. R must differ from X and WS52.
#define SHOUP52LAZY(X, W, WS52, NQ, MASK, T0, R) \
	VPXORQ      T0, T0, T0   \
	VPMADD52HUQ WS52, X, T0  \ // qhat
	VPXORQ      R, R, R      \
	VPMADD52LUQ W, X, R      \ // lo52(X·W)
	VPMADD52LUQ NQ, T0, R    \ // + lo52(−qhat·q)
	VPANDQ      MASK, R, R

// R = R mod M for R < 2M: one VPMINUQ against R − M, which wraps to a
// huge value when R < M. Clobbers T0.
#define REDUCE(R, M, T0) \
	VPSUBQ  M, R, T0 \
	VPMINUQ T0, R, R

// R = X*W mod q, canonical, for X < 2q, W < q < 2^51 (SHOUP52LAZY then
// one REDUCE). Q = q. Shifts WS to WS52 in place and clobbers T0.
#define MULSHOUP52(X, W, WS, Q, NQ, MASK, T0, R) \
	VPSRLQ $12, WS, WS                       \
	SHOUP52LAZY(X, W, WS, NQ, MASK, T0, R) \
	REDUCE(R, Q, T0)

// ACC = (ACC + R) mod q for ACC, R < q. Clobbers T0.
#define ADDMOD(R, Q, T0, ACC) \
	VPADDQ R, ACC, ACC \
	REDUCE(ACC, Q, T0)

// The NTT kernels keep q in Z31, 2^52 − q in Z30, 2^52 − 1 in Z29 and
// (inverse only) 2q in Z26; the stage's twiddles sit in Z28 (W) and
// Z27 (WS52).
#define NTTCONSTS(QREG) \
	VPBROADCASTQ QREG, Z31            \
	MOVQ $0x10000000000000, DX        \
	SUBQ QREG, DX                     \
	VPBROADCASTQ DX, Z30              \
	MOVQ $0xfffffffffffff, DX         \
	VPBROADCASTQ DX, Z29              \
	VPADDQ Z31, Z31, Z26

// Forward (eager Cooley–Tukey) butterfly on canonical lanes U, V with
// twiddle Z28/Z27: U = (u + v·w) mod q, V = (u − v·w) mod q, both
// canonical — the scalar loop's nt.Add/nt.Sub of nt.MulShoup, value for
// value. Clobbers T0, T1.
#define FWDBFLY52(U, V, T0, T1) \
	SHOUP52LAZY(V, Z28, Z27, Z30, Z29, T0, T1) \
	REDUCE(T1, Z31, T0)                        \ // v·w mod q
	VPADDQ  Z31, U, T0                         \
	VPSUBQ  T1, T0, V                          \ // u + q − v·w ∈ [1, 2q)
	VPADDQ  T1, U, U                           \ // u + v·w < 2q
	REDUCE(V, Z31, T0)                         \
	REDUCE(U, Z31, T0)

// Inverse (lazy Gentleman–Sande) butterfly on lanes U, V < 2q with
// twiddle Z28/Z27: X = (u + v) mod 2q and Y = (u + 2q − v)·w lazily, in
// [0, 2q). u + 2q − v reaches 4q, which is 2^53 for a 51-bit prime, so it
// is brought into [0, 2q) before VPMADD52 reads its low 52 bits.
// Clobbers U, V, T0.
#define INVBFLY52(U, V, T0, X, Y) \
	VPADDQ V, U, X                             \ // u + v < 4q
	VPADDQ Z26, U, U                           \
	VPSUBQ V, U, U                             \ // u + 2q − v ∈ (0, 4q)
	REDUCE(X, Z26, T0)                         \
	REDUCE(U, Z26, T0)                         \
	SHOUP52LAZY(U, Z28, Z27, Z30, Z29, T0, Y)

// func nttFwdStageIFMA(p, psi, psiS *uint64, q uint64, m, t int)
// One forward Cooley–Tukey stage with t >= 8 (a multiple of 8): m
// groups, group i twiddled by psi[i] (the caller passes &psiRev[m]).
TEXT ·nttFwdStageIFMA(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), SI
	MOVQ psi+8(FP), R8
	MOVQ psiS+16(FP), R9
	MOVQ q+24(FP), AX
	NTTCONSTS(AX)
	MOVQ m+32(FP), R10
	MOVQ t+40(FP), R11
	MOVQ R11, R14
	SHLQ $3, R14 // t*8: x→y lane offset
	MOVQ R14, R13
	SHLQ $1, R13 // 2*t*8: group stride
	SHRQ $3, R11 // vectors per half-group
	MOVQ SI, DX

fwd52Outer:
	VPBROADCASTQ (R8), Z28
	VPBROADCASTQ (R9), Z27
	VPSRLQ       $12, Z27, Z27
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ DX, BX
	LEAQ (DX)(R14*1), R12
	MOVQ R11, CX

fwd52Inner:
	VMOVDQU64 (BX), Z0
	VMOVDQU64 (R12), Z1
	FWDBFLY52(Z0, Z1, Z2, Z3)
	VMOVDQU64 Z0, (BX)
	VMOVDQU64 Z1, (R12)
	ADDQ $64, BX
	ADDQ $64, R12
	DECQ CX
	JNZ  fwd52Inner

	ADDQ R13, DX
	DECQ R10
	JNZ  fwd52Outer
	VZEROUPPER
	RET

// func nttInvStageIFMA(p, psi, psiS *uint64, q uint64, h, t int)
// One inverse Gentleman–Sande stage with t >= 8 (a multiple of 8): h
// groups, group i twiddled by psi[i] (the caller passes &psiInvRev[h]).
// Lanes stay in [0, 2q).
TEXT ·nttInvStageIFMA(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), SI
	MOVQ psi+8(FP), R8
	MOVQ psiS+16(FP), R9
	MOVQ q+24(FP), AX
	NTTCONSTS(AX)
	MOVQ h+32(FP), R10
	MOVQ t+40(FP), R11
	MOVQ R11, R14
	SHLQ $3, R14
	MOVQ R14, R13
	SHLQ $1, R13
	SHRQ $3, R11
	MOVQ SI, DX

inv52Outer:
	VPBROADCASTQ (R8), Z28
	VPBROADCASTQ (R9), Z27
	VPSRLQ       $12, Z27, Z27
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ DX, BX
	LEAQ (DX)(R14*1), R12
	MOVQ R11, CX

inv52Inner:
	VMOVDQU64 (BX), Z0
	VMOVDQU64 (R12), Z1
	INVBFLY52(Z0, Z1, Z2, Z3, Z4)
	VMOVDQU64 Z3, (BX)
	VMOVDQU64 Z4, (R12)
	ADDQ $64, BX
	ADDQ $64, R12
	DECQ CX
	JNZ  inv52Inner

	ADDQ R13, DX
	DECQ R10
	JNZ  inv52Outer
	VZEROUPPER
	RET

// The t = 4, 2, 1 stages work on 16 words a step, A = p[0:8] and
// B = p[8:16], with the lane indices of a tailPerm (kernels_amd64.go):
// u and v gather the butterflies' two halves from (A, B) with VPERMT2Q,
// w spreads the step's twiddles over the lanes with VPERMQ, and a and b
// scatter the results back from (X, Y). TAILLOAD leaves u in Z0, v in
// Z1 and the twiddles in Z28/Z27; TAILSTORE writes the results X, Y back
// and advances p by a step and psi, psiS by STEP = DI bytes.
#define TAILCONSTS(PERM) \
	VMOVDQU64 0(PERM), Z20   \
	VMOVDQU64 64(PERM), Z21  \
	VMOVDQU64 128(PERM), Z22 \
	VMOVDQU64 192(PERM), Z23 \
	VMOVDQU64 256(PERM), Z24

#define TAILLOAD \
	VMOVDQU64 (SI), Z0          \
	VMOVDQU64 64(SI), Z2        \
	VMOVDQA64 Z0, Z1            \
	VPERMT2Q  Z2, Z20, Z0       \ // u
	VPERMT2Q  Z2, Z21, Z1       \ // v
	VPERMQ    (R8), Z22, Z28    \
	VPERMQ    (R9), Z22, Z27    \
	VPSRLQ    $12, Z27, Z27

#define TAILSTORE(X, Y, T) \
	VMOVDQA64 X, T        \
	VPERMT2Q  Y, Z23, X   \
	VPERMT2Q  Y, Z24, T   \
	VMOVDQU64 X, (SI)     \
	VMOVDQU64 T, 64(SI)   \
	ADDQ      $128, SI    \
	ADDQ      DI, R8      \
	ADDQ      DI, R9

// func nttFwdTailIFMA(p, psi, psiS *uint64, q uint64, steps int, perm *tailPerm, step int)
// One forward stage with t = 4, 2 or 1 (perm picks which): steps
// 16-word steps, each consuming step bytes of twiddles from psi/psiS
// (the caller passes &psiRev[m]).
TEXT ·nttFwdTailIFMA(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI
	MOVQ psi+8(FP), R8
	MOVQ psiS+16(FP), R9
	MOVQ q+24(FP), AX
	NTTCONSTS(AX)
	MOVQ steps+32(FP), CX
	MOVQ perm+40(FP), BX
	TAILCONSTS(BX)
	MOVQ step+48(FP), DI

fwdTailLoop:
	TAILLOAD
	FWDBFLY52(Z0, Z1, Z2, Z3)
	TAILSTORE(Z0, Z1, Z2)
	DECQ CX
	JNZ  fwdTailLoop
	VZEROUPPER
	RET

// func nttInvTailIFMA(p, psi, psiS *uint64, q uint64, steps int, perm *tailPerm, step int)
// One inverse stage with t = 1, 2 or 4 (see nttFwdTailIFMA; the caller
// passes &psiInvRev[h]). Lanes stay in [0, 2q).
TEXT ·nttInvTailIFMA(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI
	MOVQ psi+8(FP), R8
	MOVQ psiS+16(FP), R9
	MOVQ q+24(FP), AX
	NTTCONSTS(AX)
	MOVQ steps+32(FP), CX
	MOVQ perm+40(FP), BX
	TAILCONSTS(BX)
	MOVQ step+48(FP), DI

invTailLoop:
	TAILLOAD
	INVBFLY52(Z0, Z1, Z2, Z10, Z11)
	TAILSTORE(Z10, Z11, Z0)
	DECQ CX
	JNZ  invTailLoop
	VZEROUPPER
	RET

// func nttInvFinalIFMA(p *uint64, q, nInv, nInvS, nInvPsi, nInvPsiS uint64, half int)
// Final inverse half-stage with the 1/N scaling folded into the two
// twiddles: x' = (u+v)·nInv, y' = (u+2q−v)·nInvPsi, each operand first
// brought into [0, 2q) and each product canonical, so the output is the
// scalar loop's [0, q) residue. half is a multiple of 8.
TEXT ·nttInvFinalIFMA(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI
	MOVQ q+8(FP), AX
	NTTCONSTS(AX)
	VPBROADCASTQ nInv+16(FP), Z25
	VPBROADCASTQ nInvS+24(FP), Z24
	VPSRLQ       $12, Z24, Z24
	VPBROADCASTQ nInvPsi+32(FP), Z23
	VPBROADCASTQ nInvPsiS+40(FP), Z22
	VPSRLQ       $12, Z22, Z22
	MOVQ half+48(FP), CX
	MOVQ CX, R14
	SHLQ $3, R14
	LEAQ (SI)(R14*1), R12
	SHRQ $3, CX

inv52FinLoop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (R12), Z1
	VPADDQ    Z1, Z0, Z2 // u + v < 4q
	VPADDQ    Z26, Z0, Z3
	VPSUBQ    Z1, Z3, Z3 // u + 2q − v ∈ (0, 4q)
	REDUCE(Z2, Z26, Z4)
	REDUCE(Z3, Z26, Z4)
	SHOUP52LAZY(Z2, Z25, Z24, Z30, Z29, Z4, Z0)
	REDUCE(Z0, Z31, Z4)
	SHOUP52LAZY(Z3, Z23, Z22, Z30, Z29, Z4, Z1)
	REDUCE(Z1, Z31, Z4)
	VMOVDQU64 Z0, (SI)
	VMOVDQU64 Z1, (R12)
	ADDQ $64, SI
	ADDQ $64, R12
	DECQ CX
	JNZ  inv52FinLoop
	VZEROUPPER
	RET

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

// func mulShoupIFMA(ro, ra, rb, rs *uint64, q uint64, n int)
// ro[j] = ra[j]·rb[j] mod q, canonical, by rb's Shoup companions rs —
// exactly nt.MulShoup of the scalar loop. ro may alias ra. n is a
// multiple of 8.
TEXT ·mulShoupIFMA(SB), NOSPLIT, $0-48
	MOVQ ro+0(FP), DI
	MOVQ ra+8(FP), SI
	MOVQ rb+16(FP), R8
	MOVQ rs+24(FP), R9
	MOVQ q+32(FP), AX
	VPBROADCASTQ AX, Z31
	MOVQ $0x10000000000000, DX
	SUBQ AX, DX
	VPBROADCASTQ DX, Z30
	MOVQ $0xfffffffffffff, DX
	VPBROADCASTQ DX, Z29
	MOVQ n+40(FP), CX
	SHRQ $3, CX

mulShoupLoop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (R8), Z1
	VMOVDQU64 (R9), Z2
	MULSHOUP52(Z0, Z1, Z2, Z31, Z30, Z29, Z3, Z4)
	VMOVDQU64 Z4, (DI)
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, DI
	DECQ CX
	JNZ  mulShoupLoop
	VZEROUPPER
	RET
