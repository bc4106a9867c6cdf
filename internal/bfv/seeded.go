package bfv

import (
	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// Seeded symmetric encryption (see rlwe.SymmetricEncryptor): the client
// holds the secret key, so it sends c0 = [-(a·s + e) + Δm]_q and the
// 32-byte seed a expands from instead of a itself, halving its upload.

// SeededCiphertext is the compressed wire form of a fresh symmetric
// encryption.
type SeededCiphertext struct {
	C0   *ring.Poly
	Seed [32]byte
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

// EncryptSeeded encrypts a plaintext into the compressed form, on the
// same fused per-residue rows as the public-key path; the returned
// ciphertext is its only allocation.
func (enc *SymmetricEncryptor) EncryptSeeded(pt *Plaintext) *SeededCiphertext {
	enc.OpCount++
	sct := &SeededCiphertext{C0: enc.ctx.RingQ.GetPoly(), Seed: enc.zero.Sample(enc.ctx.MaxLevel())} // a client returns it once marshalled
	par.ForWorker(enc.ctx.RingQ.Level(), func(_, i int) {
		enc.zero.ZeroRow(i, sct.C0.Coeffs[i])
		enc.ctx.addScaledRow(i, pt, sct.C0.Coeffs[i])
	})
	return sct
}

// A returns the NTT-domain a of the latest encryption, the c1 the server
// would expand from its seed; the next encryption overwrites it.
func (enc *SymmetricEncryptor) A() *ring.Poly { return enc.zero.A() }

// EncryptUintsSeeded encodes and encrypts in one step.
func (enc *SymmetricEncryptor) EncryptUintsSeeded(values []uint64) (*SeededCiphertext, error) {
	pt, err := enc.encoder.EncodeUints(values)
	if err != nil {
		return nil, err
	}
	return enc.EncryptSeeded(pt), nil
}

// EncryptIntsSeeded encodes and encrypts signed values.
func (enc *SymmetricEncryptor) EncryptIntsSeeded(values []int64) (*SeededCiphertext, error) {
	pt, err := enc.encoder.EncodeInts(values)
	if err != nil {
		return nil, err
	}
	return enc.EncryptSeeded(pt), nil
}

// Expand reconstructs the full two-component ciphertext (server side).
// The ciphertext takes C0 over, it does not copy it: the decoder that
// calls this has just unpacked the polynomial and holds nothing else.
func (sct *SeededCiphertext) Expand(ctx *Context) *Ciphertext {
	return &Ciphertext{Value: []*ring.Poly{sct.C0, ctx.ExpandA(sct.Seed, ctx.MaxLevel())}}
}

// ProductC1 is the c1 of a product-packed reply as the client rebuilds
// it. The upload was seeded, so its c1 is a, whose NTT-domain form the
// client's encryptor still holds (SymmetricEncryptor.A), and the reply's
// c1 is ModSwitchDown^drop(a·k): nothing but a and the layer's kernel k,
// which the client also has. It runs in the NTT domain — one Shoup
// product per residue, then per switch an inverse transform of the last
// residue and a forward one of each lower residue
// (DivRoundByLastModulusNTT) — and returns c1 there, from the pool of the
// ring at drop, for a decryption that skips c1's forward transform. Its
// inverse transform is, word for word, the c1 of MulPlainQ's output
// switched down drop times.
func (ctx *Context) ProductC1(a *ring.Poly, k *PlaintextQ, drop int) *ring.Poly {
	c1 := ctx.RingQ.GetPoly()
	ctx.RingQ.MulCoeffsShoup(a, k.NTT, k.shoup, c1)
	for d := 0; d < drop; d++ {
		next := ctx.DivRoundByLastModulusNTT(c1, ctx.MaxLevel()-d)
		ctx.RingAtDrop(d).PutPoly(c1)
		c1 = next
	}
	return c1
}
