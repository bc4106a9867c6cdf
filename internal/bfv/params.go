// Package bfv implements the Brakerski/Fan-Vercauteren somewhat
// homomorphic encryption scheme in full RNS form: key generation,
// asymmetric encryption (the kernel CHOCO-TACO accelerates), decryption,
// batched (SIMD) plaintext encoding, and the homomorphic evaluation
// operations of Table 1 of the paper — ciphertext/plaintext addition,
// plaintext multiplication, ciphertext multiplication with
// relinearization, and slot rotation via Galois automorphisms — plus an
// exact invariant-noise-budget meter.
//
// Following SEAL (the library the paper builds on), the last RNS prime
// is a "special" prime reserved for key switching: fresh ciphertexts and
// all homomorphic results live modulo the data primes only. This is what
// makes the paper's Table 3 ciphertext sizes come out to
// 2·N·(k-1)·8 bytes.
package bfv

import (
	"fmt"
	"math"
	"math/big"

	"choco/internal/nt"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// Parameters defines a BFV parameter set: ring degree, RNS modulus
// chain (data primes followed by one key-switching prime), plaintext
// modulus, and error width.
type Parameters struct {
	LogN int
	// QBits holds the bit sizes of the data primes; PBits the bit size
	// of the key-switching special prime (0 disables key switching).
	QBits []int
	PBits int
	// TBits is the bit size of the plaintext modulus; the modulus is
	// generated as an NTT-friendly prime so that batching is available.
	TBits int
	Sigma float64
}

// N returns the ring degree.
func (p Parameters) N() int { return 1 << uint(p.LogN) }

// Slots returns the number of plaintext slots (equal to N for BFV
// batching over a 2×(N/2) matrix).
func (p Parameters) Slots() int { return p.N() }

// CiphertextBytes returns the size in bytes of a fresh ciphertext as the
// paper counts it: 2 polynomials × N coefficients × data residues × 8
// bytes, SEAL's in-memory words. These are the numbers in the paper's
// Table 3 and what the communication model (nn.CommPlan, params.Select)
// is priced in; a frame on this repository's wire packs each residue
// into its modulus's bits and is smaller (protocol.FrameBytes).
func (p Parameters) CiphertextBytes() int {
	return 2 * p.N() * len(p.QBits) * 8
}

// replyFloorBits is the noise budget the modulus switch alone must leave
// at the modulus a reply is sent at. The switch adds its rounding noise to
// whatever the reply carries, so a reply holding b bits leaves with at
// least b − log2(1+2^(b−floor)): with 8, one bit of budget keeps 0.99 of
// it — nothing that decrypted before the switch fails after it — and a
// reply holding more than the floor is cut down towards it, budget nobody
// uses once the ciphertext is only ever decrypted.
const replyFloorBits = 8

// ReplyDrop returns how many trailing data primes a finished result sheds
// (Evaluator.ModSwitchDown, once each) before it is sent: as many as leave
// replyFloorBits of budget under the switch's own noise. Dividing by a
// prime with rounding adds t·(ε₀ + ε₁·s) in noise-budget units, each ε
// coefficient a rounding error uniform in [−½, ½]; a coefficient of the
// sum has standard deviation at most σ = sqrt((N+1)/12) whatever the
// ternary secret's weight, and 6σ bounds all N of them but for a
// probability near 2⁻¹⁶ at N = 8192 (the worst case, (N+1)/2, would deny
// bfv-B a drop that costs its replies 0.03 bit). What is left at k primes
// is Σ QBits[:k] − 1 − TBits − log2(6σ): 10.2 bits at bfv-B's q₀ (one
// drop), 26.7 at bfv-A's; a set with one data prime never switches. Both
// ends compute it from the parameter set alone, so nothing on the wire
// says so but the frame's residue count.
func (p Parameters) ReplyDrop() int {
	left := float64(p.LogQ()-1-p.TBits) - math.Log2(6*math.Sqrt(float64(p.N()+1)/12))
	drop := 0
	for k := len(p.QBits) - 1; k >= 1; k-- {
		if left -= float64(p.QBits[k]); left < replyFloorBits {
			break
		}
		drop++
	}
	return drop
}

// Rounded wire widths. A product layer's upload and reply carry c0
// rounded to d bits a coefficient (Context.AppendRounded), and each
// rounding adds to c0 an error uniform within ±q/2^(d+1) at the modulus q
// it is rounded from, independent from coefficient to coefficient. Both
// widths hold that error's standard deviation, carried to the modulus q_r
// a reply is sent at, to half the standard deviation
// σ = sqrt((N+1)/12) of the switch's own noise (ReplyDrop): the three
// noises then add to at most sqrt(1.5)·σ, 0.3 bit of budget. Both ends
// compute the widths from the parameter set and the layer, so nothing on
// the wire but the frame's header says so.
//   - The reply's error is one rounding at q_r, of deviation
//     q_r/(2^d′·√12): d′ = ⌈log2 q_r + 1 − ½·log2(N+1)⌉ (ReplyBits), 31 at
//     bfv-B's 36-bit q₀.
//   - The upload's error is a rounding at Q, multiplied by the layer's
//     kernel polynomial k and divided by Q/q_r in the switch: of
//     deviation at most ‖k‖₂·q_r/(2^d·√12), so d is d′'s bound plus
//     log2 ‖k‖₂ (UploadBits): 38 bits for LeNet-Sm's convolutions at
//     bfv-B, 40 for its FC.
//
// log2 q_r is read as the primes' bit widths, which bound it from above.
// A width is capped so that 2^d stays below the modulus rounded from (a
// lifted value then rounds back to its field, so a frame has one
// encoding) and at 63 bits, the widest packed field.

// roundedBase returns ⌊log2 q_r⌋ + 1 − ½·log2(N+1), the reply width's
// bound and the upload width's at ‖k‖₂ = 1.
func (p Parameters) roundedBase() float64 {
	return float64(p.replyModulusBits()) + 1 - math.Log2(float64(p.N()+1))/2
}

// replyModulusBits returns the bit widths summed over the data primes a
// reply keeps: log2 q_r read from above, not the reply's width d′.
func (p Parameters) replyModulusBits() int {
	bits := 0
	for _, b := range p.QBits[:len(p.QBits)-p.ReplyDrop()] {
		bits += b
	}
	return bits
}

// roundedWidth rounds a width's bound up and caps it below the
// modulusBits of k primes: k primes of those widths exceed
// 2^(modulusBits−k).
func roundedWidth(bound float64, modulusBits, k int) int {
	return max(1, min(int(math.Ceil(bound)), modulusBits-k, 63))
}

// ReplyBits returns d′, the width of a product reply's rounded c0.
func (p Parameters) ReplyBits() int {
	return roundedWidth(p.roundedBase(), p.replyModulusBits(), len(p.QBits)-p.ReplyDrop())
}

// UploadBits returns d, the width of a rounded upload to a product whose
// kernel polynomial has ℓ2 norm at most kernelNorm.
func (p Parameters) UploadBits(kernelNorm float64) int {
	return roundedWidth(p.roundedBase()+math.Log2(max(kernelNorm, 1)), p.LogQ(), len(p.QBits))
}

// LogQ returns the total data-modulus width in bits.
func (p Parameters) LogQ() int {
	s := 0
	for _, b := range p.QBits {
		s += b
	}
	return s
}

// Validate performs a sanity check of the parameter set.
func (p Parameters) Validate() error {
	if err := rlwe.ValidateChain("bfv", p.LogN, p.QBits, p.PBits, p.Sigma); err != nil {
		return err
	}
	if p.TBits < p.LogN+2 || p.TBits >= p.LogQ() {
		return fmt.Errorf("bfv: plaintext modulus size %d invalid for logQ=%d", p.TBits, p.LogQ())
	}
	return nil
}

// Context carries all precomputation for a parameter set. It is
// read-only after construction and safe for concurrent use. The embedded
// rlwe.Context holds what BFV shares with CKKS: the prime chain, RingQ
// (the data-prime ring fresh ciphertexts live in), RingQP (with the
// special prime, hosting key-switching keys), the per-level rings and
// the key-switching constants.
type Context struct {
	*rlwe.Context
	Params Parameters

	// RingT is the one-modulus plaintext ring used by the encoder; ringE
	// the extended basis used for exact tensor products.
	RingT *ring.Ring
	ringE *ring.Ring

	// T is the plaintext modulus; Delta = floor(Q/t).
	T             nt.Modulus
	BigQ          *big.Int
	Delta         *big.Int
	deltaRNS      []uint64 // Delta mod q_i
	deltaRNSShoup []uint64 // Shoup companions of deltaRNS

	// Batching index map: slot i lives at coefficient indexMap[i].
	indexMap []int

	// scalers[d] holds the RNS decryption-scaling constants for drop
	// level d (see decrypt_rns.go).
	scalers []rnsScaler
}

// RingAtDrop returns the data ring with drop residues removed (for
// modulus-switched ciphertexts); RingAtDrop(0) is RingQ. A drop of d is
// level MaxLevel−d of the shared core, which BFV leaves only on the way
// out: every homomorphic operation but Add runs at drop 0.
func (ctx *Context) RingAtDrop(drop int) *ring.Ring {
	return ctx.RingAtLevel(ctx.MaxLevel() - drop)
}

// MaxDrop returns how many residues modulus switching can remove while
// leaving one.
func (ctx *Context) MaxDrop() int { return ctx.MaxLevel() }

// NewContext generates primes and precomputes everything needed to
// operate under params.
func NewContext(params Parameters) (*Context, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	// The RNS chain — data primes, special prime, extended basis primes
	// and the plaintext prime — must all be distinct and NTT-friendly for
	// degree N.
	core, err := rlwe.NewContext("bfv", params.LogN, params.QBits, params.PBits, params.Sigma)
	if err != nil {
		return nil, err
	}
	ctx := &Context{Context: core, Params: params}
	nData := len(params.QBits)

	// Plaintext modulus: a TBits prime ≡ 1 mod 2N distinct from the
	// chain (bit sizes differ in practice; if equal, take extras).
	var tVal uint64
	for count := 1; count <= nData+2 && tVal == 0; count++ {
		tPrimes, err := nt.GenerateNTTPrimes(params.TBits, params.LogN, count)
		if err != nil {
			return nil, err
		}
		for _, cand := range tPrimes {
			used := false
			for _, q := range ctx.RingQP.Moduli {
				if q.Value == cand {
					used = true
					break
				}
			}
			if !used {
				tVal = cand
				break
			}
		}
	}
	if tVal == 0 {
		return nil, fmt.Errorf("bfv: could not find distinct plaintext prime")
	}
	ctx.T = nt.NewModulus(tVal)
	ctx.RingT, err = ring.NewRing(params.LogN, []uint64{tVal})
	if err != nil {
		return nil, err
	}

	ctx.BigQ = ctx.RingQ.ModulusBig()
	ctx.Delta = new(big.Int).Div(ctx.BigQ, new(big.Int).SetUint64(tVal))
	ctx.deltaRNS = make([]uint64, nData)
	ctx.deltaRNSShoup = make([]uint64, nData)
	for i, m := range ctx.RingQ.Moduli {
		ctx.deltaRNS[i] = new(big.Int).Mod(ctx.Delta, new(big.Int).SetUint64(m.Value)).Uint64()
		ctx.deltaRNSShoup[i] = m.ShoupPrecomp(ctx.deltaRNS[i])
	}

	// Extended basis for exact ciphertext-ciphertext multiplication:
	// product must exceed N · Q² · 4.
	needBits := 2*ctx.RingQ.ModulusBits() + params.LogN + 3
	ePrimes, err := nt.GenerateNTTPrimes(55, params.LogN, (needBits+54)/55)
	if err != nil {
		return nil, err
	}
	ctx.ringE, err = ring.NewRing(params.LogN, ePrimes)
	if err != nil {
		return nil, err
	}

	ctx.indexMap = buildIndexMap(params.LogN)
	ctx.scalers = buildRNSScalers(ctx)
	return ctx, nil
}

// buildIndexMap computes the slot-to-coefficient position map for the
// 2×(N/2) batching matrix, following SEAL's BatchEncoder: slot i of row
// r sits at the bit-reversed index of the (3^i)-th odd power position.
func buildIndexMap(logN int) []int {
	n := 1 << uint(logN)
	m := uint64(2 * n)
	rowSize := n / 2
	idx := make([]int, n)
	pos := uint64(1)
	gen := uint64(3)
	for i := 0; i < rowSize; i++ {
		index1 := int((pos - 1) >> 1)
		index2 := int((m - pos - 1) >> 1)
		idx[i] = bitrev(index1, logN)
		idx[rowSize+i] = bitrev(index2, logN)
		pos = pos * gen % m
	}
	return idx
}

func bitrev(x, bits int) int {
	r := 0
	for i := 0; i < bits; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

// PresetA returns the paper's Table 3 parameter set A:
// BFV, N=8192, log2 q = 175 with residues {58,58,59}, log2 t = 23.
// The 59-bit prime serves as the key-switching prime, leaving 2 data
// residues and a 262,144-byte ciphertext.
func PresetA() Parameters {
	return Parameters{LogN: 13, QBits: []int{58, 58}, PBits: 59, TBits: 23, Sigma: 3.2}
}

// PresetB returns the paper's Table 3 parameter set B:
// BFV, N=4096, log2 q = 109 with residues {36,36,37}, log2 t = 18,
// 131,072-byte ciphertext.
func PresetB() Parameters {
	return Parameters{LogN: 12, QBits: []int{36, 36}, PBits: 37, TBits: 18, Sigma: 3.2}
}

// PresetTest returns a small parameter set for fast unit tests.
func PresetTest() Parameters {
	return Parameters{LogN: 11, QBits: []int{40, 40}, PBits: 41, TBits: 17, Sigma: 3.2}
}
