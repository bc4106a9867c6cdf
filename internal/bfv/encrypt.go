package bfv

import (
	"math/big"

	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// Ciphertext is a BFV ciphertext of degree len(Value)-1 over the data
// ring, stored in the coefficient domain. Drop counts the data
// residues removed by modulus switching (0 for fresh ciphertexts —
// the zero value is a full-modulus ciphertext); a dropped ciphertext
// is smaller on the wire but supports only decryption, which is
// exactly how the server uses it: compute at full modulus, switch
// down, transmit.
type Ciphertext struct {
	Value []*ring.Poly
	Drop  int
}

// Degree returns the ciphertext degree (1 for fresh ciphertexts).
func (ct *Ciphertext) Degree() int { return len(ct.Value) - 1 }

// CopyCt returns a deep copy.
func (ctx *Context) CopyCt(ct *Ciphertext) *Ciphertext {
	r := ctx.RingAtDrop(ct.Drop)
	out := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value)), Drop: ct.Drop}
	for i, p := range ct.Value {
		out.Value[i] = r.CopyPoly(p)
	}
	return out
}

// Encryptor performs asymmetric BFV encryption — the client-side kernel
// of Eq. 2 in the paper: ct = ([Δm + P0·u + e1]_q, [P1·u + e2]_q).
// It is not safe for concurrent use: the sampling stream and the
// per-encryptor scratch buffers are stateful.
type Encryptor struct {
	ctx     *Context
	zero    *rlwe.Encryptor
	encoder *Encoder
	// OpCount tallies encryptions performed, used by the system-level
	// client cost accounting.
	OpCount int
}

// NewEncryptor returns an encryptor drawing randomness from seed.
func NewEncryptor(ctx *Context, pk *PublicKey, seed [32]byte) *Encryptor {
	return &Encryptor{ctx: ctx, zero: rlwe.NewEncryptor(ctx.Context, pk, seed), encoder: NewEncoder(ctx)}
}

// Encrypt encrypts an encoded plaintext.
func (enc *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	r := enc.ctx.RingQ
	ct := &Ciphertext{Value: []*ring.Poly{r.NewPoly(), r.NewPoly()}}
	enc.EncryptInto(pt, ct)
	return ct
}

// addScaledRow adds Δ·m to residue row i of c0: the BFV message term,
// applied inside the encrypt-zero row loop while the row is hot.
func (ctx *Context) addScaledRow(i int, pt *Plaintext, c0 []uint64) {
	m, d, ds := ctx.RingQ.Moduli[i], ctx.deltaRNS[i], ctx.deltaRNSShoup[i]
	for j, v := range pt.Poly.Coeffs[0] {
		c0[j] = m.Add(c0[j], m.MulShoup(m.Reduce(v), d, ds))
	}
}

// EncryptInto encrypts pt into ct, reusing ct's polynomials — the
// zero-allocation path for steady-state client loops. ct must be a
// degree-1 full-modulus ciphertext (as produced by Encrypt); its
// previous contents are overwritten. The rows are the shared core's fused
// encrypt-zero pipeline (rlwe.Encryptor), fanned across internal/par.
func (enc *Encryptor) EncryptInto(pt *Plaintext, ct *Ciphertext) {
	enc.OpCount++
	enc.zero.Sample()
	c0, c1 := ct.Value[0], ct.Value[1]
	par.ForWorker(enc.ctx.RingQ.Level(), func(_, i int) {
		enc.zero.ZeroRow(i, c0.Coeffs[i], c1.Coeffs[i])
		enc.ctx.addScaledRow(i, pt, c0.Coeffs[i])
	})
	c0.DeclareCoeff()
	c1.DeclareCoeff()
	ct.Drop = 0
}

// EncryptUints encodes and encrypts in one step.
func (enc *Encryptor) EncryptUints(values []uint64) (*Ciphertext, error) {
	pt, err := enc.encoder.EncodeUints(values)
	if err != nil {
		return nil, err
	}
	return enc.Encrypt(pt), nil
}

// EncryptInts encodes and encrypts signed values.
func (enc *Encryptor) EncryptInts(values []int64) (*Ciphertext, error) {
	pt, err := enc.encoder.EncodeInts(values)
	if err != nil {
		return nil, err
	}
	return enc.Encrypt(pt), nil
}

// EncryptZero returns a fresh encryption of zero (used by the server to
// randomize responses and by tests).
func (enc *Encryptor) EncryptZero() *Ciphertext {
	pt := &Plaintext{Poly: enc.ctx.RingT.NewPoly()}
	return enc.Encrypt(pt)
}

// Decryptor inverts encryption given the secret key — Eq. 3:
// m = [round(t/q · [c0 + c1·s]_q)]_t.
type Decryptor struct {
	ctx     *Context
	sk      *SecretKey
	encoder *Encoder
	// OpCount tallies decryptions performed.
	OpCount int
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{ctx: ctx, sk: sk, encoder: NewEncoder(ctx)}
}

// phaseInto computes [c0 + c1·s + c2·s² + ...]_q into acc (coefficient
// domain), at the ciphertext's (possibly modulus-switched) level.
func (dec *Decryptor) phaseInto(ct *Ciphertext, acc *ring.Poly) {
	dec.ctx.PhaseInto(dec.sk, ct.Value, dec.ctx.MaxLevel()-ct.Drop, acc)
}

// Decrypt returns the plaintext underlying ct, scaling by the
// ciphertext's own modulus (which modulus switching may have shrunk).
// The scaling runs RNS-natively (decrypt_rns.go): a flat uint64 pass
// with no big.Int in the loop; DecryptOracle keeps the reference path.
func (dec *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	out := &Plaintext{Poly: dec.ctx.RingT.GetPoly()} // a client returns it once decoded
	dec.DecryptInto(ct, out)
	return out
}

// DecryptInto decrypts ct into pt, reusing pt's backing storage — the
// zero-allocation path for steady-state client loops (serve/nn call it
// once per linear phase boundary).
func (dec *Decryptor) DecryptInto(ct *Ciphertext, pt *Plaintext) {
	ctx := dec.ctx
	dec.OpCount++
	r := ctx.RingAtDrop(ct.Drop)
	x := r.GetPoly()
	dec.phaseInto(ct, x)
	ctx.scaleCenteredInto(x, ct.Drop, pt.Poly.Coeffs[0])
	r.PutPoly(x)
	pt.Poly.DeclareCoeff()
}

// DecryptOracle is the big.Int reference decryption — centered CRT
// composition and rational rounding per coefficient, exactly the
// pre-RNS implementation. Property tests pin Decrypt == DecryptOracle;
// it is not a hot path.
func (dec *Decryptor) DecryptOracle(ct *Ciphertext) *Plaintext {
	ctx := dec.ctx
	dec.OpCount++
	r := ctx.RingAtDrop(ct.Drop)
	x := r.GetPoly()
	dec.phaseInto(ct, x)
	out := &Plaintext{Poly: ctx.RingT.NewPoly()}
	ctx.scaleOracleInto(r, x, out.Poly.Coeffs[0])
	r.PutPoly(x)
	return out
}

// DecryptUints decrypts and decodes all slots.
func (dec *Decryptor) DecryptUints(ct *Ciphertext) []uint64 {
	return dec.encoder.DecodeUints(dec.Decrypt(ct))
}

// DecryptInts decrypts and decodes all slots as centered values.
func (dec *Decryptor) DecryptInts(ct *Ciphertext) []int64 {
	return dec.encoder.DecodeInts(dec.Decrypt(ct))
}

// roundDiv returns round(a/b) for positive b, rounding half away from
// zero, as a new big.Int.
func roundDiv(a, b *big.Int) *big.Int {
	q, r := new(big.Int).QuoRem(a, b, new(big.Int))
	r.Abs(r)
	r.Lsh(r, 1)
	if r.Cmp(b) >= 0 {
		if a.Sign() < 0 {
			q.Sub(q, big.NewInt(1))
		} else {
			q.Add(q, big.NewInt(1))
		}
	}
	return q
}
