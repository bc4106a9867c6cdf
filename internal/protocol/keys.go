package protocol

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"choco/internal/bfv"
	"choco/internal/ring"
)

// Evaluation-key serialization lets a real client ship its public,
// relinearization, and Galois keys to an untrusted server once at
// session setup, without the server ever holding secret material.

const keyBundleMagic = uint32(0x43484f4b) // "CHOK"

func appendUint32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendUint64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendPoly(b []byte, p *ring.Poly) []byte {
	b = appendUint32(b, uint32(len(p.Coeffs)))
	b = appendUint32(b, uint32(len(p.Coeffs[0])))
	if p.IsNTT {
		b = appendUint32(b, 1)
	} else {
		b = appendUint32(b, 0)
	}
	for _, row := range p.Coeffs {
		for _, v := range row {
			b = appendUint64(b, v)
		}
	}
	return b
}

type reader struct {
	data []byte
	off  int
}

func (r *reader) uint32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, fmt.Errorf("protocol: truncated key bundle")
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) uint64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, fmt.Errorf("protocol: truncated key bundle")
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) poly(alloc func() *ring.Poly) (*ring.Poly, error) {
	k, err := r.uint32()
	if err != nil {
		return nil, err
	}
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	isNTT, err := r.uint32()
	if err != nil {
		return nil, err
	}
	p := alloc()
	if int(k) != len(p.Coeffs) || int(n) != len(p.Coeffs[0]) {
		return nil, fmt.Errorf("protocol: key poly shape (%d,%d) does not match context", k, n)
	}
	for _, row := range p.Coeffs {
		for j := range row {
			v, err := r.uint64()
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
	}
	if isNTT == 1 {
		p.DeclareNTT()
	} else {
		p.DeclareCoeff()
	}
	return p, nil
}

// KeyBundle carries everything the server needs to evaluate on a
// client's ciphertexts.
type KeyBundle struct {
	PK     *bfv.PublicKey
	Relin  *bfv.RelinearizationKey
	Galois map[uint64]*bfv.GaloisKey
}

// MarshalKeyBundle serializes a bundle.
func MarshalKeyBundle(kb *KeyBundle) []byte {
	b := appendUint32(nil, keyBundleMagic)
	b = appendPoly(b, kb.PK.P0)
	b = appendPoly(b, kb.PK.P1)

	appendSwitching := func(b []byte, swk *bfv.SwitchingKey) []byte {
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

// UnmarshalKeyBundle reconstructs a bundle under ctx.
func UnmarshalKeyBundle(ctx *bfv.Context, data []byte) (*KeyBundle, error) {
	r := &reader{data: data}
	magic, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if magic != keyBundleMagic {
		return nil, fmt.Errorf("protocol: not a key bundle")
	}
	allocQ := ctx.RingQ.NewPoly
	allocQP := ctx.RingQP.NewPoly

	kb := &KeyBundle{PK: &bfv.PublicKey{}}
	if kb.PK.P0, err = r.poly(allocQ); err != nil {
		return nil, err
	}
	if kb.PK.P1, err = r.poly(allocQ); err != nil {
		return nil, err
	}

	readSwitching := func() (*bfv.SwitchingKey, error) {
		n, err := r.uint32()
		if err != nil {
			return nil, err
		}
		if n > 64 {
			return nil, fmt.Errorf("protocol: implausible switching key size %d", n)
		}
		swk := &bfv.SwitchingKey{}
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
		kb.Relin = &bfv.RelinearizationKey{Key: swk}
	}
	nGal, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if nGal > 1<<16 {
		return nil, fmt.Errorf("protocol: implausible Galois key count %d", nGal)
	}
	kb.Galois = make(map[uint64]*bfv.GaloisKey, nGal)
	for i := 0; i < int(nGal); i++ {
		g, err := r.uint64()
		if err != nil {
			return nil, err
		}
		swk, err := readSwitching()
		if err != nil {
			return nil, err
		}
		kb.Galois[g] = &bfv.GaloisKey{GaloisElement: g, Key: swk}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("protocol: %d trailing bytes in key bundle", len(data)-r.off)
	}
	return kb, nil
}
