package rlwe

import (
	"choco/internal/nt"
	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// The client kernel: fresh encryptions of zero and the decryption phase,
// both as fused per-RNS-residue pipelines — the software shape of
// CHOCO-TACO's per-residue replication (PRNG → NTT → dyadic → add). An
// encryptor draws its randomness once up front (preserving the sampling
// stream order of a serial implementation); after that every residue row
// is independent, so the scheme fans the rows across internal/par, calls
// ZeroRow for row i and adds its own message term to c0 while the row is
// hot. Rows never share state, so the result is byte-identical to serial
// execution regardless of worker count.

// reduceSigned maps a signed coefficient into [0, q), matching
// ring.SetCoeffsInt64 bit for bit.
func reduceSigned(m nt.Modulus, v int64) uint64 {
	if v >= 0 {
		return m.Reduce(uint64(v))
	}
	return m.Neg(m.Reduce(uint64(-v)))
}

// zeroRow is the one encrypt-zero row: dst = INTT(key ⊙ u) + e on residue
// row i of r, with key and u in the NTT domain. The public-key path runs
// it with (P0, u, e1) and (P1, u, e2), the symmetric path with (a, s, e).
func zeroRow(r *ring.Ring, i int, key, u []uint64, e []int64, dst []uint64) {
	m := r.Moduli[i]
	for j := range dst {
		dst[j] = m.Mul(key[j], u[j])
	}
	r.NTTInverseRow(i, dst)
	for j := range dst {
		dst[j] = m.Add(dst[j], reduceSigned(m, e[j]))
	}
}

// Encryptor produces public-key encryptions of zero,
// (P0·u + e1, P1·u + e2) — Eq. 2 of the paper without its message term.
// It is not safe for concurrent use: the sampling stream and the scratch
// buffers are stateful, and they are reused across calls so the
// steady-state encryption loop does not allocate.
type Encryptor struct {
	ctx *Context
	pk  *PublicKey
	src *sampling.Source
	u   *ring.Poly // NTT(u), row by row
	// u ← ternary, e1, e2 ← χ of the encryption in progress.
	uSigned, e1, e2 []int64
}

// NewEncryptor returns an encryptor drawing randomness from seed.
func NewEncryptor(ctx *Context, pk *PublicKey, seed [32]byte) *Encryptor {
	n := ctx.RingQ.N
	return &Encryptor{
		ctx: ctx, pk: pk,
		src:     sampling.NewSource(seed, ctx.label+"-encryptor"),
		u:       ctx.RingQ.NewPoly(),
		uSigned: make([]int64, n), e1: make([]int64, n), e2: make([]int64, n),
	}
}

// Sample draws the next encryption's u, e1, e2, in the serial draw order.
func (enc *Encryptor) Sample() {
	enc.src.TernarySigned(enc.uSigned)
	enc.ctx.sampleError(enc.src, enc.e1)
	enc.ctx.sampleError(enc.src, enc.e2)
}

// ZeroRow writes residue row i of the sampled encryption of zero:
// reduce → NTT of u, then c0 = INTT(P0 ⊙ u) + e1 and c1 = INTT(P1 ⊙ u) + e2,
// coefficient domain. Rows below the top level encrypt at a lower level
// simply by not being asked for.
func (enc *Encryptor) ZeroRow(i int, c0, c1 []uint64) {
	r := enc.ctx.RingQ
	m, ur := r.Moduli[i], enc.u.Coeffs[i]
	for j, v := range enc.uSigned {
		ur[j] = reduceSigned(m, v)
	}
	r.NTTForwardRow(i, ur)
	zeroRow(r, i, enc.pk.P0.Coeffs[i], ur, enc.e1, c0)
	zeroRow(r, i, enc.pk.P1.Coeffs[i], ur, enc.e2, c1)
}

// Seeded symmetric encryption: when the encryptor holds the secret key
// (always true for CHOCO's client), the second ciphertext component can
// be a pseudorandom polynomial expanded from a 32-byte seed instead of
// being transmitted:
//
//	a ← PRG(seed),  c0 = [-(a·s + e) + message]_q,  send (c0, seed)
//
// The server expands a from the seed, reconstructing (c0, a). This
// halves the client's upload — on top of everything CHOCO already does —
// at zero security cost (a is uniform either way); the paper's Table 3
// set C upload drops from 262,144 bytes to 131,104. An extension beyond
// the paper; SEAL and Lattigo ship the same optimization.

// SymmetricEncryptor produces the c0 half of seeded encryptions of zero
// under the secret key. It is not safe for concurrent use.
type SymmetricEncryptor struct {
	ctx    *Context
	sk     *SecretKey
	src    *sampling.Source
	aSrc   *sampling.Source // re-keyed with each ciphertext's seed before use
	aLabel string
	a      *ring.Poly // the expanded a of the encryption in progress
	e      []int64
}

// NewSymmetricEncryptor returns a secret-key encryptor seeded by seed.
func NewSymmetricEncryptor(ctx *Context, sk *SecretKey, seed [32]byte) *SymmetricEncryptor {
	return &SymmetricEncryptor{
		ctx: ctx, sk: sk,
		src:    sampling.NewSource(seed, ctx.label+"-symmetric-encryptor"),
		aSrc:   sampling.NewSource([32]byte{}, ""),
		aLabel: ctx.label + "-seeded-a",
		a:      ctx.RingQ.NewPoly(),
		e:      make([]int64, ctx.RingQ.N),
	}
}

// Sample derives a fresh per-ciphertext seed from the encryptor's stream,
// expands a from it at the given level and draws e. It returns the seed,
// which is the ciphertext's second component.
func (enc *SymmetricEncryptor) Sample(level int) (seed [32]byte) {
	for i := 0; i < 4; i++ {
		v := enc.src.Uint64()
		for j := 0; j < 8; j++ {
			seed[8*i+j] = byte(v >> (8 * j))
		}
	}
	enc.aSrc.Reset(seed, enc.aLabel)
	uniform(enc.aSrc, enc.ctx.RingQ, level, enc.a)
	enc.ctx.sampleError(enc.src, enc.e)
	return seed
}

// ZeroRow writes residue row i of c0 = -(a·s + e), coefficient domain.
func (enc *SymmetricEncryptor) ZeroRow(i int, c0 []uint64) {
	r := enc.ctx.RingQ
	zeroRow(r, i, enc.a.Coeffs[i], enc.sk.ValueQ.Coeffs[i], enc.e, c0)
	m := r.Moduli[i]
	for j := range c0 {
		c0[j] = m.Neg(c0[j])
	}
}

// ExpandA deterministically regenerates a seeded ciphertext's uniform
// polynomial at the given level and returns it in the coefficient domain,
// where ciphertexts live (the server-side half of seeded encryption).
func (ctx *Context) ExpandA(seed [32]byte, level int) *ring.Poly {
	r := ctx.ringQl[level]
	a := r.NewPoly()
	uniform(sampling.NewSource(seed, ctx.label+"-seeded-a"), r, level, a)
	r.INTT(a)
	return a
}

// PhaseInto computes [c0 + c1·s + c2·s² + ...]_q for a ciphertext at the
// given level into the first level+1 rows of acc (coefficient domain) —
// what both schemes' decryptions start from. Temporaries come from the
// ring scratch pool and are returned before exit, so steady-state calls
// do not allocate.
//
// The whole phase is a fused per-residue pipeline (the decryption twin
// of the encrypt-zero rows): each row independently runs NTT(c_i) → ·s^i →
// accumulate → inverse NTT → +c0, fanned across internal/par. c0
// never pays a forward NTT (2 transforms per degree-1 decryption, not
// 3), and rows share no state, so the result is byte-identical to
// serial execution.
func (ctx *Context) PhaseInto(sk *SecretKey, value []*ring.Poly, level int, acc *ring.Poly) {
	r := ctx.ringQl[level]
	acc.DeclareCoeff()
	if len(value) == 1 { // degree 0: the phase is c0 itself
		for i := 0; i <= level; i++ {
			copy(acc.Coeffs[i], value[0].Coeffs[i])
		}
		return
	}
	ci := r.GetPoly()
	var sPow *ring.Poly // s^i rows, needed only for degree ≥ 2
	if len(value) > 2 {
		sPow = r.GetPoly()
	}
	par.ForWorker(r.Level(), func(_, i int) {
		m := r.Moduli[i]
		accr, cir, skr := acc.Coeffs[i][:r.N], ci.Coeffs[i], sk.ValueQ.Coeffs[i]
		copy(cir, value[1].Coeffs[i])
		r.NTTForwardRow(i, cir)
		for j := range accr {
			accr[j] = m.Mul(cir[j], skr[j])
		}
		if sPow != nil {
			spr := sPow.Coeffs[i]
			copy(spr, skr)
			for k := 2; k < len(value); k++ {
				for j := range spr {
					spr[j] = m.Mul(spr[j], skr[j]) // s^k
				}
				copy(cir, value[k].Coeffs[i])
				r.NTTForwardRow(i, cir)
				for j := range accr {
					accr[j] = m.Add(accr[j], m.Mul(cir[j], spr[j]))
				}
			}
		}
		r.NTTInverseRow(i, accr)
		c0r := value[0].Coeffs[i]
		for j := range accr {
			accr[j] = m.Add(accr[j], c0r[j])
		}
	})
	r.PutPoly(ci)
	r.PutPoly(sPow)
}
