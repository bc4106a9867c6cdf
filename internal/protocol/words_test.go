package protocol

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"

	"choco/internal/ring"
	"choco/internal/rlwe"
)

// Wire version 1, kept as a test fixture: every residue an 8-byte
// little-endian word, frame tags the bare family, bundle magics "CHOK" and
// "CHOC". Two uses. The golden digests were taken over version-1 bytes, so
// hashing a decoded ciphertext or key in this form shows the polynomials
// are still, bit for bit, the ones those digests pinned — the wire changed,
// what crosses it did not. And fed to the decoders, these bytes are what a
// version-1 peer would send.

const (
	v1KeyBundleMagic  = uint32(0x43484f4b) // "CHOK"
	v1CKKSBundleMagic = uint32(0x43484f43) // "CHOC"
)

func appendWords(b []byte, p *ring.Poly) []byte {
	for _, row := range p.Coeffs {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return b
}

// wordFrame is version 1's marshalFrame; tag may be a current one, its
// family is what is written.
func wordFrame(tag uint32, scale float64, seed *[seedBytes]byte, polys ...*ring.Poly) []byte {
	b := appendUint32(nil, tag&0xffff)
	b = appendUint32(b, uint32(len(polys)))
	b = appendUint32(b, uint32(len(polys[0].Coeffs[0])))
	b = appendUint32(b, uint32(len(polys[0].Coeffs)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scale))
	if seed != nil {
		b = append(b, seed[:]...)
	}
	for _, p := range polys {
		b = appendWords(b, p)
	}
	return b
}

// wordBundle is version 1's marshalBundle.
func wordBundle(magic uint32, kb *KeyBundle) []byte {
	poly := func(b []byte, p *ring.Poly) []byte {
		b = appendUint32(b, uint32(len(p.Coeffs)))
		b = appendUint32(b, uint32(len(p.Coeffs[0])))
		b = appendUint32(b, 1)
		return appendWords(b, p)
	}
	switching := func(b []byte, swk *rlwe.SwitchingKey) []byte {
		b = appendUint32(b, uint32(len(swk.B)))
		for i := range swk.B {
			b = poly(poly(b, swk.B[i]), swk.A[i])
		}
		return b
	}
	b := poly(poly(appendUint32(nil, magic), kb.PK.P0), kb.PK.P1)
	if kb.Relin != nil {
		b = switching(appendUint32(b, 1), kb.Relin.Key)
	} else {
		b = appendUint32(b, 0)
	}
	b = appendUint32(b, uint32(len(kb.Galois)))
	for _, g := range slices.Sorted(maps.Keys(kb.Galois)) {
		b = switching(binary.LittleEndian.AppendUint64(b, g), kb.Galois[g].Key)
	}
	return b
}

// seedFor returns seed for a seeded family and nil otherwise: what
// marshalFrame and wordFrame take to write a frame unmarshalFrame read.
func seedFor(tag uint32, seed *[seedBytes]byte) *[seedBytes]byte {
	if seeded, _ := frameShape(tag); !seeded {
		return nil
	}
	return seed
}

// withResidue returns an edit that sets residue [row][j] of the
// polynomial of r packed at byte offset at, leaving every other field as
// it was. v must fit the row's field.
func withResidue(r *ring.Ring, at, row, j int, v uint64) func([]byte) []byte {
	return func(b []byte) []byte {
		p := r.NewPoly()
		if err := p.Unpack(b[at : at+r.PackedBytes()]); err != nil {
			panic(err)
		}
		p.Coeffs[row][j] = v
		copy(b[at:], p.AppendPacked(nil))
		return b
	}
}

// allOnes returns the largest value row i's field holds.
func allOnes(r *ring.Ring, i int) uint64 { return 1<<uint(r.Moduli[i].BitLen()) - 1 }
