package protocol

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// Evaluation-key serialization lets a real client ship its public,
// relinearization, and Galois keys to an untrusted server once at
// session setup, without the server ever holding secret material. Both
// schemes' keys are the shared core's (internal/rlwe), so one codec
// serves both; the bundles differ in their magic word.
//
// Switching keys travel seeded: per key the digit count, the 32-byte
// seed its uniform halves expand from (rlwe.Context.ExpandKeyA), then
// the B halves — half the bytes of shipping (B, A). A bundle's version
// is in its magic; earlier versions are refused by name.
const (
	keyBundleMagic  = uint32(0x334b4843) // "CHK3" on the wire (little-endian)
	ckksBundleMagic = uint32(0x33434843) // "CHC3"
	bundleVersion   = 3

	polyHeaderBytes = 12
)

// retiredBundles names the magics of earlier bundle versions: 1 wrote
// residues as 8-byte words, 2 packed them but shipped every switching
// key's A.
var retiredBundles = map[uint32]struct {
	name    string
	version int
}{
	0x43484f4b: {"CHOK", 1},
	0x43484f43: {"CHOC", 1},
	0x324b4843: {"CHK2", 2},
	0x32434843: {"CHC2", 2},
}

// KeyBundle carries everything the server needs to evaluate on a
// client's ciphertexts.
type KeyBundle struct {
	PK     *bfv.PublicKey
	Relin  *bfv.RelinearizationKey
	Galois map[uint64]*bfv.GaloisKey
}

// CKKSKeyBundle carries a CKKS client's evaluation keys to a server.
type CKKSKeyBundle KeyBundle

// MarshalKeyBundle serializes a bundle.
func MarshalKeyBundle(kb *KeyBundle) []byte { return marshalBundle(keyBundleMagic, kb) }

// UnmarshalKeyBundle reconstructs a bundle under ctx.
func UnmarshalKeyBundle(ctx *bfv.Context, data []byte) (*KeyBundle, error) {
	return unmarshalBundle(ctx.Context, keyBundleMagic, data)
}

// MarshalCKKSKeyBundle serializes a bundle.
func MarshalCKKSKeyBundle(kb *CKKSKeyBundle) []byte {
	return marshalBundle(ckksBundleMagic, (*KeyBundle)(kb))
}

// UnmarshalCKKSKeyBundle reconstructs a bundle under ctx.
func UnmarshalCKKSKeyBundle(ctx *ckks.Context, data []byte) (*CKKSKeyBundle, error) {
	kb, err := unmarshalBundle(ctx.Context, ckksBundleMagic, data)
	return (*CKKSKeyBundle)(kb), err
}

func appendUint32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// appendPoly writes one key polynomial: residue count, N, the NTT flag,
// then the packed rows.
func appendPoly(b []byte, p *ring.Poly) []byte {
	b = appendUint32(b, uint32(len(p.Coeffs)))
	b = appendUint32(b, uint32(len(p.Coeffs[0])))
	if p.IsNTT() {
		b = appendUint32(b, 1)
	} else {
		b = appendUint32(b, 0)
	}
	return p.AppendPacked(b)
}

// appendSwitching writes a switching key: digit count, the seed A
// expands from, then b per digit.
func appendSwitching(b []byte, swk *rlwe.SwitchingKey) []byte {
	b = appendUint32(b, uint32(len(swk.B)))
	b = append(b, swk.Seed[:]...)
	for _, p := range swk.B {
		b = appendPoly(b, p)
	}
	return b
}

// KeyBundleBytes returns the size of a marshalled bundle — a public key,
// a relinearization key if relin, and galois Galois keys — at degree n
// over data primes of qBits bits and a special prime of pBits (0 for
// none).
func KeyBundleBytes(n int, qBits []int, pBits int, relin bool, galois int) int {
	qPoly := ring.PackedBytes(n, qBits...)
	return bundleBytes(qPoly, qPoly+ring.PackedBytes(n, pBits), len(qBits), relin, galois)
}

// bundleBytes counts the layout marshalBundle writes, for polynomials
// that pack to qPoly bytes over the data ring and qpPoly over the key
// ring, and switching keys of digits digits.
func bundleBytes(qPoly, qpPoly, digits int, relin bool, galois int) int {
	swk := 4 + seedBytes + digits*(polyHeaderBytes+qpPoly)
	total := 4 + 2*(polyHeaderBytes+qPoly) + 4 + 4 + galois*(8+swk)
	if relin {
		total += swk
	}
	return total
}

// marshalBundle writes a key bundle: magic, the public key, a flag and
// the relinearization key if there is one, then the Galois keys. The
// buffer is sized once from the keys themselves: a LeNet-Sm bundle is
// 5.7 MB, and growing into it by appending copies five times that.
func marshalBundle(magic uint32, kb *KeyBundle) []byte {
	var anyKey *rlwe.SwitchingKey
	if kb.Relin != nil {
		anyKey = kb.Relin.Key
	}
	for _, gk := range kb.Galois {
		anyKey = gk.Key
		break
	}
	qpPoly, digits := 0, 0
	if anyKey != nil && len(anyKey.B) > 0 {
		qpPoly, digits = anyKey.B[0].PackedBytes(), len(anyKey.B)
	}
	b := make([]byte, 0, bundleBytes(kb.PK.P0.PackedBytes(), qpPoly, digits, kb.Relin != nil, len(kb.Galois)))
	b = appendUint32(b, magic)
	b = appendPoly(b, kb.PK.P0)
	b = appendPoly(b, kb.PK.P1)
	if kb.Relin != nil {
		b = appendUint32(b, 1)
		b = appendSwitching(b, kb.Relin.Key)
	} else {
		b = appendUint32(b, 0)
	}
	// Ascending element order: the same keys serialise to the same bytes
	// (a decoder accepts any order).
	b = appendUint32(b, uint32(len(kb.Galois)))
	for _, g := range slices.Sorted(maps.Keys(kb.Galois)) {
		b = binary.LittleEndian.AppendUint64(b, g)
		b = appendSwitching(b, kb.Galois[g].Key)
	}
	return b
}

// bundleReader walks a key bundle. A bundle comes from whoever opens a
// session, and its polynomials become the fixed operands of every key
// switch the session runs, so nothing is taken on trust: every count is
// checked against the context and every residue goes through
// ring.Poly.Unpack.
type bundleReader struct {
	ctx  *rlwe.Context
	data []byte
	off  int
}

func (r *bundleReader) uint32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, fmt.Errorf("protocol: truncated key bundle")
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

// poly reads one key polynomial over rg: the shape must be the ring's,
// the NTT flag set (keys live in the evaluation domain; nothing else is
// ever written), every word a residue of its modulus.
func (r *bundleReader) poly(rg *ring.Ring) (*ring.Poly, error) {
	var hdr [3]uint32
	for i := range hdr {
		v, err := r.uint32()
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	if int(hdr[0]) != len(rg.Moduli) || int(hdr[1]) != rg.N {
		return nil, fmt.Errorf("protocol: key poly shape (%d,%d) does not match context", hdr[0], hdr[1])
	}
	if hdr[2] != 1 {
		return nil, fmt.Errorf("protocol: key poly is not flagged NTT-domain (flag %d)", hdr[2])
	}
	end := r.off + rg.PackedBytes()
	if end > len(r.data) {
		return nil, fmt.Errorf("protocol: truncated key bundle")
	}
	p := rg.NewPoly()
	p.DeclareNTT()
	if err := p.Unpack(r.data[r.off:end]); err != nil {
		return nil, fmt.Errorf("protocol: key polynomial: %w", err)
	}
	r.off = end
	return p, nil
}

// switching reads a switching key, which must have exactly one digit per
// data prime: the inner product indexes the digits by prime. A is
// expanded from the seed only once every B row has been read, so the
// sampling work a bundle can ask for is bounded by the B bytes it
// actually carries.
func (r *bundleReader) switching() (*rlwe.SwitchingKey, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if int(n) != len(r.ctx.RingQ.Moduli) {
		return nil, fmt.Errorf("protocol: switching key has %d digits, context has %d data primes", n, len(r.ctx.RingQ.Moduli))
	}
	swk := &rlwe.SwitchingKey{B: make([]*ring.Poly, n)}
	if r.off+seedBytes > len(r.data) {
		return nil, fmt.Errorf("protocol: truncated key bundle")
	}
	r.off += copy(swk.Seed[:], r.data[r.off:])
	for i := range swk.B {
		if swk.B[i], err = r.poly(r.ctx.RingQP); err != nil {
			return nil, err
		}
	}
	swk.A = r.ctx.ExpandKeyA(swk.Seed, len(swk.B))
	return swk, nil
}

// unmarshalBundle reads a key bundle with the given magic under ctx.
func unmarshalBundle(ctx *rlwe.Context, magic uint32, data []byte) (*KeyBundle, error) {
	r := &bundleReader{ctx: ctx, data: data}
	if got, err := r.uint32(); err != nil {
		return nil, err
	} else if old, ok := retiredBundles[got]; ok {
		return nil, fmt.Errorf("protocol: a version-%d key bundle (%s); this side reads version %d", old.version, old.name, bundleVersion)
	} else if got != magic {
		return nil, fmt.Errorf("protocol: magic %#x does not open a version-%d key bundle of this scheme", got, bundleVersion)
	}
	kb := &KeyBundle{PK: &rlwe.PublicKey{}}
	var err error
	if kb.PK.P0, err = r.poly(ctx.RingQ); err != nil {
		return nil, err
	}
	if kb.PK.P1, err = r.poly(ctx.RingQ); err != nil {
		return nil, err
	}
	switch hasRelin, err := r.uint32(); {
	case err != nil:
		return nil, err
	case hasRelin == 1:
		swk, err := r.switching()
		if err != nil {
			return nil, err
		}
		kb.Relin = &rlwe.RelinearizationKey{Key: swk}
	case hasRelin != 0:
		return nil, fmt.Errorf("protocol: relinearization flag %d is neither 0 nor 1", hasRelin)
	}
	nGal, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if nGal > 1<<16 {
		return nil, fmt.Errorf("protocol: implausible Galois key count %d", nGal)
	}
	kb.Galois = make(map[uint64]*rlwe.GaloisKey, nGal)
	for i := 0; i < int(nGal); i++ {
		if r.off+8 > len(data) {
			return nil, fmt.Errorf("protocol: truncated key bundle")
		}
		g := binary.LittleEndian.Uint64(data[r.off:])
		r.off += 8
		// An automorphism X → X^g of the 2N-th cyclotomic ring has g odd
		// and below 2N; the permutation tables index by it.
		if g%2 == 0 || g >= uint64(2*ctx.RingQ.N) || kb.Galois[g] != nil {
			return nil, fmt.Errorf("protocol: Galois element %d is even, not below 2N, or repeated", g)
		}
		swk, err := r.switching()
		if err != nil {
			return nil, err
		}
		kb.Galois[g] = &rlwe.GaloisKey{GaloisElement: g, Key: swk}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("protocol: %d trailing bytes in key bundle", len(data)-r.off)
	}
	return kb, nil
}
