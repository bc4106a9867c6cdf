package protocol

import (
	"fmt"
	"maps"
	"slices"

	"choco/internal/ckks"
)

const ckksBundleMagic = uint32(0x43484f43) // "CHOC"

// CKKSKeyBundle carries a CKKS client's evaluation keys to a server.
type CKKSKeyBundle struct {
	PK     *ckks.PublicKey
	Relin  *ckks.RelinearizationKey
	Galois map[uint64]*ckks.GaloisKey
}

// MarshalCKKSKeyBundle serializes a bundle.
func MarshalCKKSKeyBundle(kb *CKKSKeyBundle) []byte {
	b := appendUint32(nil, ckksBundleMagic)
	b = appendPoly(b, kb.PK.P0)
	b = appendPoly(b, kb.PK.P1)

	appendSwitching := func(b []byte, swk *ckks.SwitchingKey) []byte {
		b = appendUint32(b, uint32(len(swk.B)))
		for i := range swk.B {
			b = appendPoly(b, swk.B[i])
			b = appendPoly(b, swk.A[i])
		}
		return b
	}
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
		b = appendUint64(b, g)
		b = appendSwitching(b, kb.Galois[g].Key)
	}
	return b
}

// UnmarshalCKKSKeyBundle reconstructs a bundle under ctx.
func UnmarshalCKKSKeyBundle(ctx *ckks.Context, data []byte) (*CKKSKeyBundle, error) {
	r := &reader{data: data}
	magic, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if magic != ckksBundleMagic {
		return nil, fmt.Errorf("protocol: not a CKKS key bundle")
	}
	allocQ := ctx.RingQ.NewPoly
	allocQP := ctx.RingQP.NewPoly

	kb := &CKKSKeyBundle{PK: &ckks.PublicKey{}}
	if kb.PK.P0, err = r.poly(allocQ); err != nil {
		return nil, err
	}
	if kb.PK.P1, err = r.poly(allocQ); err != nil {
		return nil, err
	}

	readSwitching := func() (*ckks.SwitchingKey, error) {
		n, err := r.uint32()
		if err != nil {
			return nil, err
		}
		if n > 64 {
			return nil, fmt.Errorf("protocol: implausible switching key size %d", n)
		}
		swk := &ckks.SwitchingKey{}
		for i := 0; i < int(n); i++ {
			bPoly, err := r.poly(allocQP)
			if err != nil {
				return nil, err
			}
			aPoly, err := r.poly(allocQP)
			if err != nil {
				return nil, err
			}
			swk.B = append(swk.B, bPoly)
			swk.A = append(swk.A, aPoly)
		}
		return swk, nil
	}

	hasRelin, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if hasRelin == 1 {
		swk, err := readSwitching()
		if err != nil {
			return nil, err
		}
		kb.Relin = &ckks.RelinearizationKey{Key: swk}
	}
	nGal, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if nGal > 1<<16 {
		return nil, fmt.Errorf("protocol: implausible Galois key count %d", nGal)
	}
	kb.Galois = make(map[uint64]*ckks.GaloisKey, nGal)
	for i := 0; i < int(nGal); i++ {
		g, err := r.uint64()
		if err != nil {
			return nil, err
		}
		swk, err := readSwitching()
		if err != nil {
			return nil, err
		}
		kb.Galois[g] = &ckks.GaloisKey{GaloisElement: g, Key: swk}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("protocol: %d trailing bytes in key bundle", len(data)-r.off)
	}
	return kb, nil
}
