//go:build amd64 && !purego

// AVX2 kernels for the ring hot loops: NTT butterfly stage sweeps
// (forward eager, inverse Harvey-lazy) and the Barrett dyadic product
// of MulCoeffs. Every kernel reproduces the scalar
// arithmetic in internal/nt exactly — same quotient estimates, same
// conditional-subtraction ladders — so vector and scalar outputs are
// bit-identical (see kernels_amd64.go for the per-kernel argument).
//
// AVX2 has no 64×64 multiply, so products are assembled from four
// VPMULUDQ 32×32 partials (MULHI) or three (MULLO, where the high
// cross terms drop out mod 2^64). All residues and lazy intermediates
// stay below 2^62 (q < 2^61), which keeps every value clear of the
// sign bit and makes the signed VPCMPGTQ compare-mask ladders exact.

#include "textflag.h"

// DST = floor(A*B / 2^64). MASK holds 0x00000000FFFFFFFF lanes.
// Clobbers T0-T3. DST must differ from A, B. High dwords are fed to
// VPMULUDQ via VPSHUFD (port 5) rather than VPSRLQ so operand prep
// stays off the multiplier ports.
#define MULHI(A, B, MASK, T0, T1, T2, T3, DST) \
	VPSHUFD $0xF5, A, T0 \
	VPSHUFD $0xF5, B, T1 \
	VPMULUDQ B, A, T2    \
	VPMULUDQ B, T0, T3   \
	VPMULUDQ T1, A, DST  \
	VPMULUDQ T1, T0, T0  \
	VPSRLQ  $32, T2, T2  \
	VPADDQ  T2, T3, T3   \
	VPSRLQ  $32, T3, T1  \
	VPADDQ  T1, T0, T0   \
	VPAND   MASK, T3, T3 \
	VPADDQ  T3, DST, DST \
	VPSRLQ  $32, DST, DST \
	VPADDQ  T0, DST, DST

// DST = A*B mod 2^64. Clobbers T0, T1. DST may equal A or B.
#define MULLO(A, B, T0, T1, DST) \
	VPSHUFD $0xF5, A, T0 \
	VPMULUDQ B, T0, T0   \
	VPSHUFD $0xF5, B, T1 \
	VPMULUDQ A, T1, T1   \
	VPADDQ  T1, T0, T0   \
	VPSLLQ  $32, T0, T0  \
	VPMULUDQ B, A, DST   \
	VPADDQ  T0, DST, DST

// Materialize the MULHI dword mask without touching general registers.
#define LOADMASK(R) \
	VPCMPEQD R, R, R \
	VPSRLQ  $32, R, R

// if R >= Q { R -= Q }, for R, Q < 2^63. Clobbers T0, T1.
#define CSUB(R, Q, T0, T1) \
	VPCMPGTQ R, Q, T0 \ // T0 = (Q > R)
	VPANDN  Q, T0, T1 \ // Q where R >= Q, else 0
	VPSUBQ  T1, R, R

// R = A*W mod q (canonical), WS = ShoupPrecomp(W), A < 2^62.
// Exactly nt.MulShoup: qhat = hi(A*WS); R = A*W - qhat*q; csub q.
#define MULSHOUP(A, W, WS, Q, MASK, T0, T1, T2, T3, T4, R) \
	MULHI(A, WS, MASK, T0, T1, T2, T3, T4) \
	MULLO(A, W, T0, T1, R)                 \
	MULLO(T4, Q, T0, T1, T2)               \
	VPSUBQ T2, R, R                        \
	CSUB(R, Q, T0, T1)

// R = A*W mod q in [0, 2q): nt.MulShoupLazy (no final subtraction).
#define MULSHOUPLZ(A, W, WS, Q, MASK, T0, T1, T2, T3, T4, R) \
	MULHI(A, WS, MASK, T0, T1, T2, T3, T4) \
	MULLO(A, W, T0, T1, R)                 \
	MULLO(T4, Q, T0, T1, T2)               \
	VPSUBQ T2, R, R

// Forward butterfly on u=Y0, v0=Y1 with w=Y14, ws=Y13, q=Y15,
// mask=Y11: leaves x' = (u+v) mod q in Y1 and y' = (u-v) mod q in Y3.
#define FWDBFLY \
	MULSHOUP(Y1, Y14, Y13, Y15, Y11, Y2, Y3, Y4, Y5, Y6, Y7) \
	VPADDQ  Y7, Y0, Y1   \ // u + v
	CSUB(Y1, Y15, Y2, Y3) \
	VPCMPGTQ Y0, Y7, Y2  \ // v > u: borrow mask
	VPAND   Y15, Y2, Y2  \
	VPSUBQ  Y7, Y0, Y3   \
	VPADDQ  Y2, Y3, Y3

// Inverse lazy butterfly on u=Y0, v=Y1 with w=Y14, ws=Y13, q=Y15,
// 2q=Y12, mask=Y11: leaves x' = (u+v) mod 2q in Y2 and y' =
// lazy((u+2q-v)*w) in Y1. Inputs < 2q, outputs < 2q (Harvey).
#define INVBFLY \
	VPADDQ  Y1, Y0, Y2    \ // u + v < 4q
	CSUB(Y2, Y12, Y3, Y4)  \
	VPADDQ  Y12, Y0, Y5   \
	VPSUBQ  Y1, Y5, Y5    \ // u + 2q - v < 4q
	MULSHOUPLZ(Y5, Y14, Y13, Y15, Y11, Y6, Y7, Y8, Y9, Y10, Y1)

// func nttFwdStageAVX2(p, psi, psiS *uint64, q uint64, m, t int)
// One forward Cooley-Tukey stage with lane count t >= 4 (multiple of
// 4): m groups, group i twiddled by psi[i] (caller passes &psiRev[m]).
TEXT ·nttFwdStageAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), SI
	MOVQ psi+8(FP), R8
	MOVQ psiS+16(FP), R9
	VPBROADCASTQ q+24(FP), Y15
	LOADMASK(Y11)
	MOVQ m+32(FP), R10
	MOVQ t+40(FP), R11
	MOVQ R11, R14
	SHLQ $3, R14          // t*8: x→y lane offset
	MOVQ R14, R13
	SHLQ $1, R13          // 2*t*8: group stride
	SHRQ $2, R11          // butterflies per group / 4
	MOVQ SI, DX

fwdOuter:
	VPBROADCASTQ (R8), Y14
	VPBROADCASTQ (R9), Y13
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ DX, BX
	LEAQ (DX)(R14*1), R12
	MOVQ R11, CX

fwdInner:
	VMOVDQU (BX), Y0
	VMOVDQU (R12), Y1
	FWDBFLY
	VMOVDQU Y1, (BX)
	VMOVDQU Y3, (R12)
	ADDQ $32, BX
	ADDQ $32, R12
	DECQ CX
	JNZ  fwdInner

	ADDQ R13, DX
	DECQ R10
	JNZ  fwdOuter
	VZEROUPPER
	RET

// func nttFwdT2AVX2(p, psi, psiS *uint64, q uint64, m int)
// Forward stage with t=2: memory holds [x0 x1 y0 y1] per group; two
// groups (two ymm) per iteration, deinterleaved with VPERM2I128.
// Twiddles are pair-broadcast with VPERMQ $0x50 from a contiguous
// 4-word load (the table extends past the 2 words consumed).
TEXT ·nttFwdT2AVX2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), SI
	MOVQ psi+8(FP), R8
	MOVQ psiS+16(FP), R9
	VPBROADCASTQ q+24(FP), Y15
	LOADMASK(Y11)
	MOVQ m+32(FP), CX
	SHRQ $1, CX

fwdT2Loop:
	VMOVDQU (R8), Y2
	VPERMQ  $0x50, Y2, Y14 // [w0 w0 w1 w1]
	VMOVDQU (R9), Y2
	VPERMQ  $0x50, Y2, Y13
	VMOVDQU (SI), Y4       // [x0 x1 y0 y1]
	VMOVDQU 32(SI), Y5
	VPERM2I128 $0x20, Y5, Y4, Y0 // u = [x0 x1 x0' x1']
	VPERM2I128 $0x31, Y5, Y4, Y1 // v
	FWDBFLY
	VPERM2I128 $0x20, Y3, Y1, Y4
	VPERM2I128 $0x31, Y3, Y1, Y5
	VMOVDQU Y4, (SI)
	VMOVDQU Y5, 32(SI)
	ADDQ $64, SI
	ADDQ $16, R8
	ADDQ $16, R9
	DECQ CX
	JNZ  fwdT2Loop
	VZEROUPPER
	RET

// func nttFwdT1AVX2(p, psi, psiS *uint64, q uint64, m int)
// Forward stage with t=1: memory holds [x y] pairs; four groups per
// iteration, split into even/odd lanes with VPUNPCK[LH]QDQ. Twiddles
// load contiguously and are reordered to the unpacked lane order
// [w0 w2 w1 w3] with VPERMQ $0xD8.
TEXT ·nttFwdT1AVX2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), SI
	MOVQ psi+8(FP), R8
	MOVQ psiS+16(FP), R9
	VPBROADCASTQ q+24(FP), Y15
	LOADMASK(Y11)
	MOVQ m+32(FP), CX
	SHRQ $2, CX

fwdT1Loop:
	VMOVDQU (R8), Y2
	VPERMQ  $0xD8, Y2, Y14
	VMOVDQU (R9), Y2
	VPERMQ  $0xD8, Y2, Y13
	VMOVDQU (SI), Y4       // [x0 y0 x1 y1]
	VMOVDQU 32(SI), Y5     // [x2 y2 x3 y3]
	VPUNPCKLQDQ Y5, Y4, Y0 // u = [x0 x2 x1 x3]
	VPUNPCKHQDQ Y5, Y4, Y1 // v = [y0 y2 y1 y3]
	FWDBFLY
	VPUNPCKLQDQ Y3, Y1, Y4 // [x0' y0' x1' y1']
	VPUNPCKHQDQ Y3, Y1, Y5
	VMOVDQU Y4, (SI)
	VMOVDQU Y5, 32(SI)
	ADDQ $64, SI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  fwdT1Loop
	VZEROUPPER
	RET

// func nttInvStageAVX2(p, psi, psiS *uint64, q uint64, h, t int)
// One inverse Gentleman-Sande stage with t >= 4 (multiple of 4): h
// groups, group i twiddled by psi[i] (caller passes &psiInvRev[h]).
// Lanes stay in [0, 2q) (Harvey lazy reduction).
TEXT ·nttInvStageAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), SI
	MOVQ psi+8(FP), R8
	MOVQ psiS+16(FP), R9
	VPBROADCASTQ q+24(FP), Y15
	VPADDQ Y15, Y15, Y12  // 2q
	LOADMASK(Y11)
	MOVQ h+32(FP), R10
	MOVQ t+40(FP), R11
	MOVQ R11, R14
	SHLQ $3, R14
	MOVQ R14, R13
	SHLQ $1, R13
	SHRQ $2, R11
	MOVQ SI, DX

invOuter:
	VPBROADCASTQ (R8), Y14
	VPBROADCASTQ (R9), Y13
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ DX, BX
	LEAQ (DX)(R14*1), R15
	MOVQ R11, CX

invInner:
	VMOVDQU (BX), Y0
	VMOVDQU (R15), Y1
	INVBFLY
	VMOVDQU Y2, (BX)
	VMOVDQU Y1, (R15)
	ADDQ $32, BX
	ADDQ $32, R15
	DECQ CX
	JNZ  invInner

	ADDQ R13, DX
	DECQ R10
	JNZ  invOuter
	VZEROUPPER
	RET

// func nttInvT2AVX2(p, psi, psiS *uint64, q uint64, h int)
// Inverse stage with t=2 (see nttFwdT2AVX2 for the lane shuffling).
TEXT ·nttInvT2AVX2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), SI
	MOVQ psi+8(FP), R8
	MOVQ psiS+16(FP), R9
	VPBROADCASTQ q+24(FP), Y15
	VPADDQ Y15, Y15, Y12
	LOADMASK(Y11)
	MOVQ h+32(FP), CX
	SHRQ $1, CX

invT2Loop:
	VMOVDQU (R8), Y2
	VPERMQ  $0x50, Y2, Y14
	VMOVDQU (R9), Y2
	VPERMQ  $0x50, Y2, Y13
	VMOVDQU (SI), Y4
	VMOVDQU 32(SI), Y5
	VPERM2I128 $0x20, Y5, Y4, Y0
	VPERM2I128 $0x31, Y5, Y4, Y1
	INVBFLY
	VPERM2I128 $0x20, Y1, Y2, Y4
	VPERM2I128 $0x31, Y1, Y2, Y5
	VMOVDQU Y4, (SI)
	VMOVDQU Y5, 32(SI)
	ADDQ $64, SI
	ADDQ $16, R8
	ADDQ $16, R9
	DECQ CX
	JNZ  invT2Loop
	VZEROUPPER
	RET

// func nttInvT1AVX2(p, psi, psiS *uint64, q uint64, h int)
// Inverse stage with t=1 (see nttFwdT1AVX2 for the lane shuffling).
TEXT ·nttInvT1AVX2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), SI
	MOVQ psi+8(FP), R8
	MOVQ psiS+16(FP), R9
	VPBROADCASTQ q+24(FP), Y15
	VPADDQ Y15, Y15, Y12
	LOADMASK(Y11)
	MOVQ h+32(FP), CX
	SHRQ $2, CX

invT1Loop:
	VMOVDQU (R8), Y2
	VPERMQ  $0xD8, Y2, Y14
	VMOVDQU (R9), Y2
	VPERMQ  $0xD8, Y2, Y13
	VMOVDQU (SI), Y4
	VMOVDQU 32(SI), Y5
	VPUNPCKLQDQ Y5, Y4, Y0
	VPUNPCKHQDQ Y5, Y4, Y1
	INVBFLY
	VPUNPCKLQDQ Y1, Y2, Y4
	VPUNPCKHQDQ Y1, Y2, Y5
	VMOVDQU Y4, (SI)
	VMOVDQU Y5, 32(SI)
	ADDQ $64, SI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  invT1Loop
	VZEROUPPER
	RET

// func nttInvFinalAVX2(p *uint64, q, nInv, nInvS, nInvPsi, nInvPsiS uint64, half int)
// Final inverse half-stage with the 1/N scaling folded into the two
// twiddles (Longa-Naehrig): x' = (u+v)*nInv, y' = (u+2q-v)*nInvPsi,
// both full MulShoup so the output is canonical [0, q).
TEXT ·nttInvFinalAVX2(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI
	VPBROADCASTQ q+8(FP), Y15
	VPADDQ Y15, Y15, Y12
	VPBROADCASTQ nInv+16(FP), Y14
	VPBROADCASTQ nInvS+24(FP), Y13
	VPBROADCASTQ nInvPsi+32(FP), Y11
	VPBROADCASTQ nInvPsiS+40(FP), Y10
	LOADMASK(Y9)
	MOVQ half+48(FP), CX
	MOVQ CX, R14
	SHLQ $3, R14
	LEAQ (SI)(R14*1), R12
	SHRQ $2, CX

invFinLoop:
	VMOVDQU (SI), Y0
	VMOVDQU (R12), Y1
	VPADDQ  Y1, Y0, Y2     // u + v < 4q
	VPADDQ  Y12, Y0, Y3
	VPSUBQ  Y1, Y3, Y3     // u + 2q - v < 4q
	MULSHOUP(Y2, Y14, Y13, Y15, Y9, Y4, Y5, Y6, Y7, Y8, Y0)
	MULSHOUP(Y3, Y11, Y10, Y15, Y9, Y4, Y5, Y6, Y7, Y8, Y1)
	VMOVDQU Y0, (SI)
	VMOVDQU Y1, (R12)
	ADDQ $32, SI
	ADDQ $32, R12
	DECQ CX
	JNZ  invFinLoop
	VZEROUPPER
	RET

// Barrett ReduceWide replication (see nt.ReduceWide): with
// B = bHi*2^64 + bLo = floor(2^128/q) and x = hi*2^64 + lo,
//   qhat = lo64(hi*bHi) + hi64(hi*bLo) + hi64(lo*bHi) + c1 + c2
// where c1, c2 are the carries of l1+l2 and (l1+l2)+h3. The remainder
// lo - qhat*q is < 4q, canonicalized by csub 2q then csub q (the same
// multiples the scalar while-loop strips). Unsigned carry compares
// flip sign bits (Y9) and use the signed VPCMPGTQ. Carry masks are
// all-ones, so qhat accumulates them by subtraction.
// In: A=Y0, B=Y1; consts q=Y15, bHi=Y14, bLo=Y13, mask=Y11, sign=Y9.
// Out: result in Y7. Clobbers Y0-Y8, Y10, Y12.
#define BARRETTMUL \
	MULHI(Y0, Y1, Y11, Y2, Y3, Y4, Y5, Y6) \ // hi
	MULLO(Y0, Y1, Y2, Y3, Y7)         \ // lo
	MULHI(Y6, Y13, Y11, Y2, Y3, Y4, Y5, Y0) \ // h1 = hi64(hi*bLo)
	MULLO(Y6, Y13, Y2, Y3, Y1)         \ // l1
	MULHI(Y7, Y14, Y11, Y2, Y3, Y4, Y5, Y8) \ // h2 = hi64(lo*bHi)
	MULLO(Y7, Y14, Y2, Y3, Y10)        \ // l2
	MULHI(Y7, Y13, Y11, Y2, Y3, Y4, Y5, Y12) \ // h3 = hi64(lo*bLo)
	MULLO(Y6, Y14, Y2, Y3, Y6)         \ // p = lo64(hi*bHi)
	VPADDQ Y10, Y1, Y2  \ // mid = l1 + l2
	VPXOR  Y9, Y2, Y3   \
	VPXOR  Y9, Y1, Y4   \
	VPCMPGTQ Y3, Y4, Y4 \ // c1 = l1 >u mid
	VPADDQ Y12, Y2, Y5  \ // mid + h3
	VPXOR  Y9, Y5, Y5   \
	VPCMPGTQ Y5, Y3, Y3 \ // c2 = mid >u mid+h3
	VPADDQ Y0, Y6, Y6   \
	VPADDQ Y8, Y6, Y6   \
	VPSUBQ Y4, Y6, Y6   \
	VPSUBQ Y3, Y6, Y6   \ // qhat
	MULLO(Y6, Y15, Y2, Y3, Y0) \
	VPSUBQ Y0, Y7, Y7   \ // r = lo - qhat*q < 4q
	VPADDQ Y15, Y15, Y2 \
	CSUB(Y7, Y2, Y3, Y4)  \
	CSUB(Y7, Y15, Y2, Y3)

// func mulModVecAVX2(ro, ra, rb *uint64, q, bHi, bLo uint64, n int)
// ro[j] = ra[j]*rb[j] mod q, exactly nt.Mul. n is a multiple of 4.
TEXT ·mulModVecAVX2(SB), NOSPLIT, $0-56
	MOVQ ro+0(FP), DI
	MOVQ ra+8(FP), SI
	MOVQ rb+16(FP), DX
	VPBROADCASTQ q+24(FP), Y15
	LOADMASK(Y11)
	VPBROADCASTQ bHi+32(FP), Y14
	VPBROADCASTQ bLo+40(FP), Y13
	MOVQ $0x8000000000000000, AX
	MOVQ AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ n+48(FP), CX
	SHRQ $2, CX

mulModLoop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	BARRETTMUL
	VMOVDQU Y7, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  mulModLoop
	VZEROUPPER
	RET
