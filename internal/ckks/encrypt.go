package ckks

import (
	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// Ciphertext is a CKKS ciphertext at some level, carrying its scale.
// Polynomials are stored in the coefficient domain over the level's
// data ring.
type Ciphertext struct {
	Value []*ring.Poly
	Level int
	Scale float64
}

// Degree returns the ciphertext degree.
func (ct *Ciphertext) Degree() int { return len(ct.Value) - 1 }

// CopyCt deep-copies a ciphertext.
func (ctx *Context) CopyCt(ct *Ciphertext) *Ciphertext {
	r := ctx.RingAtLevel(ct.Level)
	out := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value)), Level: ct.Level, Scale: ct.Scale}
	for i, p := range ct.Value {
		out.Value[i] = r.CopyPoly(p)
	}
	return out
}

// Encryptor performs asymmetric CKKS encryption. It is not safe for
// concurrent use: the sampling stream and the per-encryptor scratch
// buffers are stateful.
type Encryptor struct {
	ctx     *Context
	zero    *rlwe.Encryptor
	encoder *Encoder
	// OpCount tallies encryptions, for client cost accounting.
	OpCount int
}

// NewEncryptor returns an encryptor drawing randomness from seed.
func NewEncryptor(ctx *Context, pk *PublicKey, seed [32]byte) *Encryptor {
	return &Encryptor{ctx: ctx, zero: rlwe.NewEncryptor(ctx.Context, pk, seed), encoder: NewEncoder(ctx)}
}

// Encrypt encrypts a plaintext at its level. Encryption happens at the
// top level; lower-level plaintexts are supported by dropping residues
// of the public key.
func (enc *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	r := enc.ctx.RingAtLevel(pt.Level)
	ct := &Ciphertext{Value: []*ring.Poly{r.NewPoly(), r.NewPoly()}}
	enc.EncryptInto(pt, ct)
	return ct
}

// addRow adds the message to residue row i of c0 — directly; no Δ in
// CKKS, the scale lives in the encoding — inside the encrypt-zero row
// loop while the row is hot.
func (ctx *Context) addRow(i int, pt *Plaintext, c0 []uint64) {
	m := ctx.RingQ.Moduli[i]
	for j, v := range pt.Poly.Coeffs[i] {
		c0[j] = m.Add(c0[j], v)
	}
}

// EncryptInto encrypts pt into ct, reusing ct's polynomials — the
// zero-allocation path for steady-state client loops. ct's polynomials
// must have at least pt.Level+1 residue rows (as produced by Encrypt
// at the same level); previous contents are overwritten. The rows are
// the shared core's fused encrypt-zero pipeline (rlwe.Encryptor), fanned
// across internal/par.
func (enc *Encryptor) EncryptInto(pt *Plaintext, ct *Ciphertext) {
	enc.OpCount++
	enc.zero.Sample()
	c0, c1 := ct.Value[0], ct.Value[1]
	par.ForWorker(pt.Level+1, func(_, i int) {
		enc.zero.ZeroRow(i, c0.Coeffs[i], c1.Coeffs[i])
		enc.ctx.addRow(i, pt, c0.Coeffs[i])
	})
	c0.DeclareCoeff()
	c1.DeclareCoeff()
	ct.Level = pt.Level
	ct.Scale = pt.Scale
}

// EncryptFloats encodes and encrypts real values at the top level with
// the default scale.
func (enc *Encryptor) EncryptFloats(values []float64) (*Ciphertext, error) {
	pt, err := enc.encoder.EncodeFloats(values, enc.ctx.Params.MaxLevel(), enc.ctx.Params.DefaultScale())
	if err != nil {
		return nil, err
	}
	return enc.Encrypt(pt), nil
}

// Decryptor inverts encryption.
type Decryptor struct {
	ctx     *Context
	sk      *SecretKey
	encoder *Encoder
	// OpCount tallies decryptions.
	OpCount int
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{ctx: ctx, sk: sk, encoder: NewEncoder(ctx)}
}

// Decrypt computes [c0 + c1·s + c2·s² + ...]_q as a plaintext carrying
// the ciphertext's scale.
func (dec *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	pt := &Plaintext{Poly: dec.ctx.RingAtLevel(ct.Level).NewPoly()}
	dec.DecryptInto(ct, pt)
	return pt
}

// DecryptInto decrypts ct into pt, reusing pt's polynomial — the
// zero-allocation path for steady-state client loops. pt.Poly must
// have at least ct.Level+1 residue rows (rows above ct.Level in a
// higher-level pt are left untouched); the phase is the shared core's
// fused per-residue pipeline (rlwe.Context.PhaseInto).
func (dec *Decryptor) DecryptInto(ct *Ciphertext, pt *Plaintext) {
	dec.OpCount++
	dec.ctx.PhaseInto(dec.sk, ct.Value, ct.Level, pt.Poly)
	pt.Level = ct.Level
	pt.Scale = ct.Scale
}

// DecryptFloats decrypts and decodes the real parts of all slots.
func (dec *Decryptor) DecryptFloats(ct *Ciphertext) []float64 {
	return dec.encoder.DecodeFloats(dec.Decrypt(ct))
}

// DecryptComplex decrypts and decodes all slots.
func (dec *Decryptor) DecryptComplex(ct *Ciphertext) []complex128 {
	return dec.encoder.DecodeComplex(dec.Decrypt(ct))
}
