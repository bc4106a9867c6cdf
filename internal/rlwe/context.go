// Package rlwe is the ring-LWE layer that internal/bfv and internal/ckks
// share: the RNS prime chain with its special key-switching prime, secret,
// public and switching keys, hybrid key switching with its hoisting ladder
// (Decompose, the QP accumulator, NTT-domain rotations), the fused
// per-residue encrypt-zero rows of the client kernel, and the decryption
// phase. It is the only place that knows how an RLWE ciphertext is keyed,
// re-keyed and zero-encrypted.
//
// Everything here is a concrete function over ciphertext components
// ([]*ring.Poly) and a level: level l means the data primes q0..ql, the
// top level all of them. CKKS computes at every level. BFV key-switches
// only at the top one — its modulus switching exists to shrink a result
// just before it is sent, after the last rotation — so for BFV the level
// argument is always MaxLevel, which is CKKS's fresh-ciphertext case. The
// schemes keep what actually differs: encoders, Δ/t versus scale
// bookkeeping, the tensor step of Mul, Rescale/ModSwitchDown, and BFV's RNS
// decryption scaling.
package rlwe

import (
	"fmt"
	"math/big"

	"choco/internal/nt"
	"choco/internal/ring"
)

// Context carries the scheme-independent precomputation of a parameter
// set. It is read-only after construction and safe for concurrent use;
// bfv.Context and ckks.Context embed it.
type Context struct {
	LogN  int
	Sigma float64

	// RingQ is the data-prime ring (fresh ciphertexts live here); RingQP
	// appends the special prime and hosts the switching keys.
	RingQ  *ring.Ring
	RingQP *ring.Ring

	// label prefixes every sampling label ("bfv", "ckks"), so the bytes
	// derived from a seed are the bytes each scheme has always derived.
	label string

	// ringQl[l] is the data ring truncated to q0..ql (the top entry is
	// RingQ itself) and ringQlP[l] the key-switching ring (q0..ql, p)
	// (the top entry is RingQP itself; nil without a special prime).
	ringQl  []*ring.Ring
	ringQlP []*ring.Ring

	// Key-switch helpers: qTildeQP[i] = (Q/q_i)·[(Q/q_i)^-1 mod q_i] (the
	// CRT basis element, ≡1 mod q_i, ≡0 mod q_j) reduced into the QP
	// basis; pInvQ[i] = P^-1 mod q_i. qInvQ[l][i] = q_l^-1 mod q_i for
	// i < l is the same constant for the divide-by-last-prime at level l.
	// Each comes with its Shoup companions.
	qTildeQP          [][]uint64
	pInvQ, pInvQShoup []uint64
	qInvQ, qInvQShoup [][]uint64
}

// invShoup returns p^-1 modulo each of moduli with its Shoup companions.
func invShoup(label string, moduli []nt.Modulus, p uint64) (inv, shoup []uint64, err error) {
	inv, shoup = make([]uint64, len(moduli)), make([]uint64, len(moduli))
	for i, m := range moduli {
		v, ok := m.Inv(m.Reduce(p))
		if !ok {
			return nil, nil, fmt.Errorf("%s: chain prime %d not invertible mod q_%d", label, p, i)
		}
		inv[i], shoup[i] = v, m.ShoupPrecomp(v)
	}
	return inv, shoup, nil
}

// ValidateChain sanity-checks the scheme-independent half of a parameter
// set; errors carry the scheme label.
func ValidateChain(label string, logN int, qBits []int, pBits int, sigma float64) error {
	if logN < 10 || logN > 16 {
		return fmt.Errorf("%s: logN=%d outside supported range [10,16]", label, logN)
	}
	if len(qBits) == 0 {
		return fmt.Errorf("%s: no data primes", label)
	}
	for _, b := range qBits {
		if b < logN+2 || b > nt.MaxModulusBits {
			return fmt.Errorf("%s: invalid data prime size %d", label, b)
		}
	}
	if pBits != 0 && (pBits < logN+2 || pBits > nt.MaxModulusBits) {
		return fmt.Errorf("%s: invalid special prime size %d", label, pBits)
	}
	if sigma <= 0 {
		return fmt.Errorf("%s: sigma must be positive", label)
	}
	return nil
}

// NewContext generates the NTT-friendly prime chain (data primes qBits,
// then the special prime when pBits != 0) and precomputes the per-level
// rings and the key-switching constants. Errors carry the scheme label.
func NewContext(label string, logN int, qBits []int, pBits int, sigma float64) (*Context, error) {
	allBits := append([]int{}, qBits...)
	if pBits != 0 {
		allBits = append(allBits, pBits)
	}
	primes, err := nt.GenerateNTTPrimesVarBits(allBits, logN)
	if err != nil {
		return nil, err
	}
	nData := len(qBits)

	ctx := &Context{LogN: logN, Sigma: sigma, label: label}
	if ctx.RingQP, err = ring.NewRing(logN, primes); err != nil {
		return nil, err
	}
	ctx.RingQ = ctx.RingQP
	if pBits != 0 {
		ctx.RingQ = ctx.RingQP.AtLevel(nData - 1)
	}
	ctx.ringQl = make([]*ring.Ring, nData)
	ctx.ringQlP = make([]*ring.Ring, nData)
	for l := 0; l < nData-1; l++ {
		ctx.ringQl[l] = ctx.RingQ.AtLevel(l)
		if pBits != 0 {
			mods := append(append([]uint64{}, primes[:l+1]...), primes[nData])
			if ctx.ringQlP[l], err = ring.NewRing(logN, mods); err != nil {
				return nil, err
			}
		}
	}
	ctx.ringQl[nData-1] = ctx.RingQ
	ctx.qInvQ, ctx.qInvQShoup = make([][]uint64, nData), make([][]uint64, nData)
	for l := 1; l < nData; l++ {
		if ctx.qInvQ[l], ctx.qInvQShoup[l], err = invShoup(label, ctx.RingQ.Moduli[:l], primes[l]); err != nil {
			return nil, err
		}
	}
	if pBits == 0 {
		return ctx, nil
	}
	ctx.ringQlP[nData-1] = ctx.RingQP
	if ctx.pInvQ, ctx.pInvQShoup, err = invShoup(label, ctx.RingQ.Moduli, primes[nData]); err != nil {
		return nil, err
	}
	bigQ := ctx.RingQ.ModulusBig()
	ctx.qTildeQP = make([][]uint64, nData)
	for i := range ctx.qTildeQP {
		qi := new(big.Int).SetUint64(ctx.RingQ.Moduli[i].Value)
		hat := new(big.Int).Div(bigQ, qi)
		hatInv := new(big.Int).ModInverse(new(big.Int).Mod(hat, qi), qi)
		tilde := new(big.Int).Mul(hat, hatInv) // ≡1 mod q_i, ≡0 mod q_j
		row := make([]uint64, len(ctx.RingQP.Moduli))
		for j, m := range ctx.RingQP.Moduli {
			row[j] = new(big.Int).Mod(tilde, new(big.Int).SetUint64(m.Value)).Uint64()
		}
		ctx.qTildeQP[i] = row
	}
	return ctx, nil
}

// MaxLevel is the level of a fresh ciphertext: the number of data primes
// minus one.
func (ctx *Context) MaxLevel() int { return len(ctx.ringQl) - 1 }

// RingAtLevel returns the data ring truncated to the given level.
func (ctx *Context) RingAtLevel(level int) *ring.Ring { return ctx.ringQl[level] }

// KeyRingAtLevel returns the key-switching ring (q0..ql, p) of the given
// level: where resident rotations and their lifted plaintexts live.
func (ctx *Context) KeyRingAtLevel(level int) *ring.Ring { return ctx.ringQlP[level] }

// special returns the key-switching prime.
func (ctx *Context) special() uint64 { return ctx.RingQP.Moduli[len(ctx.ringQl)].Value }

// Add returns a + b for two ciphertexts over r, component by component; the
// result has the larger degree, the unmatched components copied.
func Add(r *ring.Ring, a, b []*ring.Poly) []*ring.Poly {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := make([]*ring.Poly, len(a))
	for i := range out {
		out[i] = r.NewPoly()
		if i < len(b) {
			r.Add(a[i], b[i], out[i])
		} else {
			r.Copy(out[i], a[i])
		}
	}
	return out
}
