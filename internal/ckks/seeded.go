package ckks

import (
	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// Seeded symmetric encryption (see rlwe.SymmetricEncryptor): the client
// holds the secret key, so it sends c0 = [-(a·s + e) + m]_q and the
// 32-byte seed a expands from instead of a itself, halving its upload.

// SeededCiphertext is the compressed wire form of a fresh symmetric
// CKKS encryption, carrying the level and scale of the plaintext.
type SeededCiphertext struct {
	C0    *ring.Poly
	Seed  [32]byte
	Level int
	Scale float64
}

// SymmetricEncryptor encrypts under the secret key, producing seeded
// ciphertexts. It is not safe for concurrent use.
type SymmetricEncryptor struct {
	ctx     *Context
	zero    *rlwe.SymmetricEncryptor
	encoder *Encoder
	// OpCount tallies encryptions performed.
	OpCount int
}

// NewSymmetricEncryptor returns a secret-key encryptor seeded by seed.
func NewSymmetricEncryptor(ctx *Context, sk *SecretKey, seed [32]byte) *SymmetricEncryptor {
	return &SymmetricEncryptor{ctx: ctx, zero: rlwe.NewSymmetricEncryptor(ctx.Context, sk, seed), encoder: NewEncoder(ctx)}
}

// EncryptSeeded encrypts a plaintext into the compressed form at the
// plaintext's level, on the same fused per-residue rows as the public-key
// path; the returned ciphertext is its only allocation.
func (enc *SymmetricEncryptor) EncryptSeeded(pt *Plaintext) *SeededCiphertext {
	enc.OpCount++
	sct := &SeededCiphertext{
		C0:    enc.ctx.RingAtLevel(pt.Level).NewPoly(),
		Seed:  enc.zero.Sample(pt.Level),
		Level: pt.Level,
		Scale: pt.Scale,
	}
	par.ForWorker(pt.Level+1, func(_, i int) {
		enc.zero.ZeroRow(i, sct.C0.Coeffs[i])
		enc.ctx.addRow(i, pt, sct.C0.Coeffs[i])
	})
	return sct
}

// EncryptFloatsSeeded encodes real values at the top level with the
// default scale and encrypts them in one step.
func (enc *SymmetricEncryptor) EncryptFloatsSeeded(values []float64) (*SeededCiphertext, error) {
	pt, err := enc.encoder.EncodeFloats(values, enc.ctx.Params.MaxLevel(), enc.ctx.Params.DefaultScale())
	if err != nil {
		return nil, err
	}
	return enc.EncryptSeeded(pt), nil
}

// Expand reconstructs the full two-component ciphertext (server side).
// The ciphertext takes C0 over, it does not copy it: the decoder that
// calls this has just unpacked the polynomial and holds nothing else.
func (sct *SeededCiphertext) Expand(ctx *Context) *Ciphertext {
	return &Ciphertext{
		Value: []*ring.Poly{sct.C0, ctx.ExpandA(sct.Seed, sct.Level)},
		Level: sct.Level,
		Scale: sct.Scale,
	}
}
