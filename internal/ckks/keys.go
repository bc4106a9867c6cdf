package ckks

import "choco/internal/rlwe"

// Key material is the shared RLWE core's (internal/rlwe): CKKS adds only
// the mapping from slot-rotation steps to Galois elements.
type (
	SecretKey          = rlwe.SecretKey
	PublicKey          = rlwe.PublicKey
	SwitchingKey       = rlwe.SwitchingKey
	RelinearizationKey = rlwe.RelinearizationKey
	GaloisKey          = rlwe.GaloisKey
)

// KeyGenerator derives key material deterministically from a seed.
type KeyGenerator struct {
	*rlwe.KeyGenerator
	ctx *Context
}

// NewKeyGenerator returns a key generator over ctx seeded by seed.
func NewKeyGenerator(ctx *Context, seed [32]byte) *KeyGenerator {
	return &KeyGenerator{KeyGenerator: rlwe.NewKeyGenerator(ctx.Context, seed), ctx: ctx}
}

// GenRotationKeys creates Galois keys for the listed slot rotations and
// the conjugation automorphism, keyed by Galois element.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, steps ...int) map[uint64]*GaloisKey {
	elements := make([]uint64, 0, len(steps)+1)
	for _, s := range steps {
		elements = append(elements, kg.ctx.GaloisElementForRotation(s))
	}
	return kg.GenGaloisKeys(sk, append(elements, kg.ctx.GaloisElementConjugate()))
}
