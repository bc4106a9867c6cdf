package rlwe

import (
	"fmt"
	"strconv"
	"sync"

	"choco/internal/ring"
	"choco/internal/sampling"
)

// SecretKey is a ternary RLWE secret. The signed coefficient form is
// retained so the secret can be re-embedded in any modulus basis (data
// ring, key ring, extended ring).
type SecretKey struct {
	signed []int64
	// NTT-domain embeddings in the data and key rings.
	ValueQ  *ring.Poly
	ValueQP *ring.Poly
}

// PublicKey is an encryption of zero under the secret key:
// P0 = -(a·s + e), P1 = a, both in NTT domain over the data ring.
type PublicKey struct {
	P0 *ring.Poly
	P1 *ring.Poly
}

// SwitchingKey converts a ciphertext component keyed under some s' into
// one keyed under s. One (b, a) pair per data prime, in NTT domain over
// the key ring QP (GHS-style hybrid key switching with one special
// prime).
type SwitchingKey struct {
	B []*ring.Poly
	A []*ring.Poly

	// Lazily-built Shoup companions of B and A for the key-switching
	// inner product, where the key polynomials are the fixed operands, and
	// beside them the level views. Computed on first use so keys built by
	// any path (keygen, deserialization, tests) pick them up transparently.
	once  sync.Once
	views []keyView
}

// keyView is a switching key as the inner product at one level consumes
// it: per digit q0..ql, the key polynomials and their Shoup companions
// over (q0..ql, p). At the top level these are the key itself; below it
// they are row-slice headers into the same storage, never copies.
type keyView struct {
	b, a           []*ring.Poly
	bShoup, aShoup [][][]uint64
}

// at returns the key's view at the given level, building the companions
// and every level's view once.
func (swk *SwitchingKey) at(ctx *Context, level int) *keyView {
	swk.once.Do(func() {
		top := ctx.MaxLevel()
		full := keyView{b: swk.B, a: swk.A}
		for i := range swk.B {
			full.bShoup = append(full.bShoup, ctx.RingQP.ShoupPolyPrecomp(swk.B[i]))
			full.aShoup = append(full.aShoup, ctx.RingQP.ShoupPolyPrecomp(swk.A[i]))
		}
		swk.views = make([]keyView, top+1)
		swk.views[top] = full
		for l := 0; l < top; l++ {
			v := &swk.views[l]
			for i := 0; i <= l; i++ {
				v.b = append(v.b, &ring.Poly{Coeffs: levelRows(swk.B[i].Coeffs, l), IsNTT: swk.B[i].IsNTT})
				v.a = append(v.a, &ring.Poly{Coeffs: levelRows(swk.A[i].Coeffs, l), IsNTT: swk.A[i].IsNTT})
				v.bShoup = append(v.bShoup, levelRows(full.bShoup[i], l))
				v.aShoup = append(v.aShoup, levelRows(full.aShoup[i], l))
			}
		}
	})
	return &swk.views[level]
}

// levelRows selects rows q0..ql and p of a full-QP row set.
func levelRows(rows [][]uint64, level int) [][]uint64 {
	return append(append(make([][]uint64, 0, level+2), rows[:level+1]...), rows[len(rows)-1])
}

// RelinearizationKey switches s² → s after ciphertext multiplication.
type RelinearizationKey struct {
	Key *SwitchingKey
}

// GaloisKey switches φ_g(s) → s, enabling rotation by the automorphism
// with Galois element g.
type GaloisKey struct {
	GaloisElement uint64
	Key           *SwitchingKey
}

// GaloisKey looks up the key for Galois element g among an evaluator's
// keys.
func (ctx *Context) GaloisKey(keys map[uint64]*GaloisKey, g uint64) (*GaloisKey, error) {
	if gk, ok := keys[g]; ok {
		return gk, nil
	}
	return nil, fmt.Errorf("%s: missing Galois key for element %d", ctx.label, g)
}

// KeyGenerator derives all key material deterministically from a seed.
type KeyGenerator struct {
	ctx  *Context
	seed [32]byte
}

// NewKeyGenerator returns a generator for the context using the seed
// for all randomness (distinct keys use distinct derivation labels).
func NewKeyGenerator(ctx *Context, seed [32]byte) *KeyGenerator {
	return &KeyGenerator{ctx: ctx, seed: seed}
}

// uniform fills rows 0..level of p with uniform residues of r's moduli and
// declares it NTT-domain: uniform randomness is uniform in either domain.
func uniform(src *sampling.Source, r *ring.Ring, level int, p *ring.Poly) {
	for i := 0; i <= level; i++ {
		src.UniformMod(p.Coeffs[i], r.Moduli[i].Value)
	}
	p.DeclareNTT()
}

// sampleError draws one error polynomial's signed coefficients.
func (ctx *Context) sampleError(src *sampling.Source, e []int64) {
	src.GaussianSigned(e, ctx.Sigma)
}

// encryptZeroNTT returns (-(a·s + e), a) over r in the NTT domain, with a
// uniform and e Gaussian from src: the body of the public key and of every
// switching-key digit.
func (ctx *Context) encryptZeroNTT(src *sampling.Source, r *ring.Ring, s *ring.Poly, eSigned []int64) (b, a *ring.Poly) {
	a = r.NewPoly()
	uniform(src, r, r.Level()-1, a)
	e := r.NewPoly()
	ctx.sampleError(src, eSigned)
	r.SetCoeffsInt64(eSigned, e)
	r.NTT(e)
	b = r.NewPoly()
	r.MulCoeffs(a, s, b) // a·s
	r.Add(b, e, b)       // a·s + e
	r.Neg(b, b)          // -(a·s + e)
	return b, a
}

// GenSecretKey samples a ternary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	ctx := kg.ctx
	src := sampling.NewSource(kg.seed, ctx.label+"-secret-key")
	sk := &SecretKey{signed: make([]int64, ctx.RingQ.N)}
	src.TernarySigned(sk.signed)
	sk.ValueQ = ctx.RingQ.NewPoly()
	ctx.RingQ.SetCoeffsInt64(sk.signed, sk.ValueQ)
	ctx.RingQ.NTT(sk.ValueQ)
	sk.ValueQP = ctx.RingQP.NewPoly()
	ctx.RingQP.SetCoeffsInt64(sk.signed, sk.ValueQP)
	ctx.RingQP.NTT(sk.ValueQP)
	return sk
}

// GenPublicKey creates the public encryption key for sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	ctx := kg.ctx
	src := sampling.NewSource(kg.seed, ctx.label+"-public-key")
	p0, p1 := ctx.encryptZeroNTT(src, ctx.RingQ, sk.ValueQ, make([]int64, ctx.RingQ.N))
	return &PublicKey{P0: p0, P1: p1}
}

// genSwitchingKey builds a switching key for sPrime → s. sPrime is
// given in NTT form over the key ring.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, sPrime *ring.Poly, label string) *SwitchingKey {
	ctx := kg.ctx
	rQP := ctx.RingQP
	nData := len(ctx.RingQ.Moduli)
	src := sampling.NewSource(kg.seed, ctx.label+"-switch-key-"+label)

	swk := &SwitchingKey{
		B: make([]*ring.Poly, nData),
		A: make([]*ring.Poly, nData),
	}
	eSigned := make([]int64, rQP.N)
	gadget := rQP.NewPoly()
	for i := 0; i < nData; i++ {
		swk.B[i], swk.A[i] = ctx.encryptZeroNTT(src, rQP, sk.ValueQP, eSigned)

		// + P·qTilde_i·s' (the gadget term). P·qTilde_i is a fixed
		// integer; fold it in residue-wise.
		rQP.Copy(gadget, sPrime)
		for j, m := range rQP.Moduli {
			scaleRow(m, m.Mul(m.Reduce(ctx.qTildeQP[i][j]), m.Reduce(ctx.special())), gadget.Coeffs[j])
		}
		rQP.Add(swk.B[i], gadget, swk.B[i])
	}
	return swk
}

// GenRelinearizationKey creates the s² → s switching key.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	s2 := kg.ctx.RingQP.NewPoly()
	kg.ctx.RingQP.MulCoeffs(sk.ValueQP, sk.ValueQP, s2)
	return &RelinearizationKey{Key: kg.genSwitchingKey(sk, s2, "relin")}
}

// GenGaloisKey creates the φ_g(s) → s switching key for one Galois
// element.
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, galEl uint64) *GaloisKey {
	rQP := kg.ctx.RingQP
	// φ_g(s) computed in coefficient domain over QP.
	sCoeff := rQP.NewPoly()
	rQP.SetCoeffsInt64(sk.signed, sCoeff)
	phi := rQP.NewPoly()
	rQP.Automorphism(sCoeff, galEl, phi)
	rQP.NTT(phi)
	return &GaloisKey{
		GaloisElement: galEl,
		Key:           kg.genSwitchingKey(sk, phi, "galois-"+strconv.FormatUint(galEl, 10)),
	}
}

// GenGaloisKeys creates one Galois key per distinct element, keyed by
// element (the schemes' GenRotationKeys map their rotation steps here).
func (kg *KeyGenerator) GenGaloisKeys(sk *SecretKey, elements []uint64) map[uint64]*GaloisKey {
	keys := make(map[uint64]*GaloisKey, len(elements))
	for _, g := range elements {
		if _, ok := keys[g]; !ok {
			keys[g] = kg.GenGaloisKey(sk, g)
		}
	}
	return keys
}
