package bfv

import "choco/internal/rlwe"

// Key material is the shared RLWE core's (internal/rlwe): BFV adds only
// the mapping from row-rotation steps to Galois elements.
type (
	SecretKey          = rlwe.SecretKey
	PublicKey          = rlwe.PublicKey
	SwitchingKey       = rlwe.SwitchingKey
	RelinearizationKey = rlwe.RelinearizationKey
	GaloisKey          = rlwe.GaloisKey
)

// KeyGenerator derives all key material deterministically from a seed.
type KeyGenerator struct {
	*rlwe.KeyGenerator
	ctx *Context
}

// NewKeyGenerator returns a generator for the context using the seed
// for all randomness (distinct keys use distinct derivation labels).
func NewKeyGenerator(ctx *Context, seed [32]byte) *KeyGenerator {
	return &KeyGenerator{KeyGenerator: rlwe.NewKeyGenerator(ctx.Context, seed), ctx: ctx}
}

// GenRotationKeys creates Galois keys for the given row-rotation step
// counts (positive = left, negative = right) plus the row-swap key,
// returned as a map keyed by Galois element.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, steps ...int) map[uint64]*GaloisKey {
	r := kg.ctx.RingQ
	elements := make([]uint64, 0, len(steps)+1)
	for _, s := range steps {
		elements = append(elements, r.GaloisElementForRotation(s))
	}
	return kg.GenGaloisKeys(sk, append(elements, r.GaloisElementRowSwap()))
}
