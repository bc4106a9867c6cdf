// Package ckks implements the Cheon-Kim-Kim-Song approximate-arithmetic
// homomorphic encryption scheme in full RNS form: canonical-embedding
// encoding over complex slots, encryption/decryption (sharing the
// kernel CHOCO-TACO accelerates), homomorphic addition, plaintext and
// ciphertext multiplication with relinearization and rescaling, slot
// rotation, and conjugation. CHOCO uses CKKS for its fixed-point
// workloads: PageRank, KNN, and K-Means.
package ckks

import (
	"fmt"
	"math"

	"choco/internal/rlwe"
)

// Parameters defines a CKKS parameter set. QBits lists the data primes
// (q0 first); PBits is the key-switching special prime; DefaultScale is
// 2^LogScale.
type Parameters struct {
	LogN     int
	QBits    []int
	PBits    int
	LogScale int
	Sigma    float64
}

// N returns the ring degree.
func (p Parameters) N() int { return 1 << uint(p.LogN) }

// Slots returns the number of complex plaintext slots (N/2).
func (p Parameters) Slots() int { return p.N() / 2 }

// MaxLevel is the highest ciphertext level (number of data primes - 1).
func (p Parameters) MaxLevel() int { return len(p.QBits) - 1 }

// DefaultScale returns 2^LogScale.
func (p Parameters) DefaultScale() float64 {
	return math.Ldexp(1, p.LogScale)
}

// CiphertextBytes returns the size of a fresh (full-level) ciphertext as
// the paper counts it: 2 polynomials × N × data residues × 8 bytes,
// SEAL's in-memory words (Table 3). The frame on the wire is smaller
// (protocol.FrameBytes).
func (p Parameters) CiphertextBytes() int {
	return 2 * p.N() * len(p.QBits) * 8
}

// CiphertextBytesAtLevel returns the size of a ciphertext at the given
// level.
func (p Parameters) CiphertextBytesAtLevel(level int) int {
	return 2 * p.N() * (level + 1) * 8
}

// Validate checks the parameter set.
func (p Parameters) Validate() error {
	if err := rlwe.ValidateChain("ckks", p.LogN, p.QBits, p.PBits, p.Sigma); err != nil {
		return err
	}
	if p.LogScale < 10 || p.LogScale >= p.QBits[0] {
		return fmt.Errorf("ckks: LogScale=%d must be in [10, q0 bits)", p.LogScale)
	}
	return nil
}

// Context carries precomputation for a CKKS parameter set. The embedded
// rlwe.Context holds what CKKS shares with BFV: RingQ over all data
// primes, RingQP with the special prime appended, the per-level rings
// (RingAtLevel) and the key-switching constants.
type Context struct {
	*rlwe.Context
	Params Parameters

	// codec holds the encoder's embedding and word tables.
	codec *codec
}

// NewContext generates primes and precomputes embedding and
// key-switching tables.
func NewContext(params Parameters) (*Context, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	core, err := rlwe.NewContext("ckks", params.LogN, params.QBits, params.PBits, params.Sigma)
	if err != nil {
		return nil, err
	}
	return &Context{Context: core, Params: params, codec: newCodec(params.N(), core.RingQ.Moduli)}, nil
}

// GaloisElementForRotation returns g = 5^steps mod 2N (inverse exponent
// for negative steps), the automorphism that rotates CKKS slots left by
// steps.
func (ctx *Context) GaloisElementForRotation(steps int) uint64 {
	n := ctx.Params.N()
	order := n / 2
	s := ((steps % order) + order) % order
	twoN := uint64(2 * n)
	g := uint64(1)
	for i := 0; i < s; i++ {
		g = g * 5 % twoN
	}
	return g
}

// GaloisElementConjugate returns 2N-1, the conjugation automorphism.
func (ctx *Context) GaloisElementConjugate() uint64 {
	return uint64(2*ctx.Params.N() - 1)
}

// PresetC returns the paper's Table 3 parameter set C: CKKS, N=8192,
// residues {60,60,60} (two data primes plus the key-switching prime),
// 262,144-byte ciphertext.
func PresetC() Parameters {
	return Parameters{LogN: 13, QBits: []int{60, 60}, PBits: 60, LogScale: 45, Sigma: 3.2}
}

// PresetTest returns a small parameter set for fast unit tests. The
// scale is chosen close to the prime size so that one rescale leaves a
// healthy working scale (2^30).
func PresetTest() Parameters {
	return Parameters{LogN: 11, QBits: []int{50, 50}, PBits: 51, LogScale: 40, Sigma: 3.2}
}
