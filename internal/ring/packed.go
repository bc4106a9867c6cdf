package ring

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Packed residue rows: the wire form of a polynomial. A residue of a
// b-bit modulus has b significant bits, so row i travels as N·b_i bits
// and not as N 64-bit words — at bfv-B's 36-bit primes 44 % of a flat
// word dump is zero. This file is the one place that knows the layout;
// ciphertext frames and key bundles (internal/protocol) are headers
// around AppendPacked and Unpack (a product layer's rounded c0 around
// the packed fields below), and every byte count anywhere in the tree
// comes from PackedBytes and PackedFieldsBytes.
//
// Layout of one row: four interleaved little-endian bitstreams. Stream l
// carries coefficients l, l+4, l+8, … as consecutive b-bit fields, and
// word 4k+l of the row is word k of stream l. Four streams because they
// share one fill counter: the scalar kernels below keep four independent
// accumulators in registers per branch (the branch follows the position
// in the row, never the data), and a 4×64-bit vector unit can run the
// same loop one instruction per step. N is a multiple of 256 for every
// ring that reaches the wire, so each stream is N/4 fields = whole
// words: a row has no padding bits, and a polynomial exactly one
// encoding.

// PackedBytes returns the packed size of a polynomial of degree n, a
// multiple of 256, over moduli of the given bit lengths: n·b/8 bytes for
// each. It is the only place a width turns into a byte count.
func PackedBytes(n int, bits ...int) int {
	total := 0
	for _, b := range bits {
		total += n / 8 * b
	}
	return total
}

// PackedBytes returns the packed size of one polynomial of r.
func (r *Ring) PackedBytes() int {
	total := 0
	for _, m := range r.Moduli {
		total += PackedBytes(r.N, m.BitLen())
	}
	return total
}

// wireRing returns the ring whose moduli size p's rows, or panics: a
// polynomial that did not come from NewPoly, GetPoly or Prefix has no
// wire form.
func (p *Poly) wireRing() *Ring {
	r := p.ring
	if r == nil || len(p.Coeffs) != len(r.Moduli) || r.N%256 != 0 {
		panic("ring: polynomial has no packed form (not allocated by a ring of N ≥ 256, or its rows were re-sliced by hand)")
	}
	return r
}

// PackedBytes returns the packed size of p.
func (p *Poly) PackedBytes() int { return p.wireRing().PackedBytes() }

// AppendPacked appends p's rows, packed, to dst. Every residue must be
// reduced: a value of more bits than its modulus would spill into its
// neighbour.
func (p *Poly) AppendPacked(dst []byte) []byte {
	r := p.wireRing()
	for i, row := range p.Coeffs {
		b := r.Moduli[i].BitLen()
		if debugEnabled {
			assertRowBound("AppendPacked", row, 1<<uint(b))
		}
		off, n := len(dst), PackedBytes(r.N, b)
		dst = slices.Grow(dst, n)[:off+n]
		packRow(dst[off:], row, uint(b))
	}
	return dst
}

// Unpack fills p's rows from src, which must be exactly p.PackedBytes()
// long. Packed rows arrive from untrusted peers and the evaluators' lazy
// reductions and vector kernels assume canonical inputs, so a row
// holding a value that is not a residue of its modulus is an error,
// found in the pass that unpacks it. Do not use p after an error.
func (p *Poly) Unpack(src []byte) error {
	r := p.wireRing()
	if len(src) != r.PackedBytes() {
		return fmt.Errorf("ring: %d packed bytes, a polynomial of this ring takes %d", len(src), r.PackedBytes())
	}
	for i, row := range p.Coeffs {
		m := r.Moduli[i]
		n := PackedBytes(r.N, m.BitLen())
		if !unpackRow(row, src[:n], uint(m.BitLen()), m.Value) {
			return fmt.Errorf("ring: residue row %d holds a value that is not reduced mod %d", i, m.Value)
		}
		src = src[n:]
	}
	return nil
}

// packRow writes row, b bits per coefficient, over dst's
// len(row)·b/8 bytes; len(row) is a multiple of 256 and 1 ≤ b ≤ 63.
// Each stream accumulates fields in a word until it is full, stores it
// and keeps the spilled high bits of the last field; the fill counter is
// back at zero after every 64 fields, so nothing is left over.
func packRow(dst []byte, row []uint64, b uint) {
	var a0, a1, a2, a3 uint64
	var fill uint
	for ; len(row) >= 4; row = row[4:] {
		v0, v1, v2, v3 := row[0], row[1], row[2], row[3]
		a0 |= v0 << (fill & 63)
		a1 |= v1 << (fill & 63)
		a2 |= v2 << (fill & 63)
		a3 |= v3 << (fill & 63)
		if fill += b; fill >= 64 {
			d := dst[:32]
			binary.LittleEndian.PutUint64(d[0:], a0)
			binary.LittleEndian.PutUint64(d[8:], a1)
			binary.LittleEndian.PutUint64(d[16:], a2)
			binary.LittleEndian.PutUint64(d[24:], a3)
			dst = dst[32:]
			fill -= 64
			spill := (b - fill) & 63 // 1…b bits of the field went into the stored word
			a0, a1, a2, a3 = v0>>spill, v1>>spill, v2>>spill, v3>>spill
		}
	}
}

// unpackRow is packRow's inverse over src's len(row)·b/8 bytes, and
// reports whether every value is below q. The check rides along
// branch-free: a field is below 2^63, so v − q borrows into the top bit
// exactly when v < q, and the top bits are and-ed over the row.
func unpackRow(row []uint64, src []byte, b uint, q uint64) bool {
	mask := uint64(1)<<b - 1
	inRange := ^uint64(0)
	var a0, a1, a2, a3 uint64 // bits read and not yet handed out
	var have uint             // how many, per stream
	for ; len(row) >= 4; row = row[4:] {
		v0, v1, v2, v3 := a0, a1, a2, a3
		if have < b {
			s := src[:32]
			w0, w1 := binary.LittleEndian.Uint64(s[0:]), binary.LittleEndian.Uint64(s[8:])
			w2, w3 := binary.LittleEndian.Uint64(s[16:]), binary.LittleEndian.Uint64(s[24:])
			src = src[32:]
			v0 |= w0 << (have & 63)
			v1 |= w1 << (have & 63)
			v2 |= w2 << (have & 63)
			v3 |= w3 << (have & 63)
			used := (b - have) & 63 // 1…b bits of the new word complete the field
			a0, a1, a2, a3 = w0>>used, w1>>used, w2>>used, w3>>used
			have += 64 - b
		} else {
			a0, a1, a2, a3 = a0>>b, a1>>b, a2>>b, a3>>b
			have -= b
		}
		v0, v1, v2, v3 = v0&mask, v1&mask, v2&mask, v3&mask
		inRange &= (v0 - q) & (v1 - q) & (v2 - q) & (v3 - q)
		row[0], row[1], row[2], row[3] = v0, v1, v2, v3
	}
	return inRange>>63 != 0
}

// Packed fields: the wire form of a run of values of one width — a
// product layer's c0 rounded to d bits (bfv.Context.AppendRounded), at
// every coefficient or at the ones the client reads, and the model
// frame's offset weights (protocol.MarshalModel). count b-bit values
// travel as one little-endian bitstream, value i at bits [i·b, (i+1)·b),
// closed to whole 8-byte words with zero bits.

// PackedFieldsBytes returns the packed size of count values of b bits.
func PackedFieldsBytes(count, b int) int { return (count*b + 63) / 64 * 8 }

// AppendFields appends count values, value(i) for each, b bits each
// (1 ≤ b ≤ 63), to dst. Every value must be below 2^b.
func AppendFields(dst []byte, count int, b uint, value func(int) uint64) []byte {
	var run [256]uint64
	for i := 0; i < count; i += len(run) {
		n := min(len(run), count-i)
		for k := range run[:n] {
			run[k] = value(i + k)
		}
		dst = AppendFieldRun(dst, run[:n], b)
	}
	return dst
}

// AppendFieldRun appends values, b bits each (1 ≤ b ≤ 63), to dst as one
// packed-field stream closed to a whole word. A run of a multiple of 64
// values ends on a word boundary, so such runs appended one after another
// are one stream: a producer that computes its values in a pass of its
// own packs them as it goes, a block at a time (bfv.Context.AppendRounded).
// Every value must be below 2^b.
func AppendFieldRun(dst []byte, values []uint64, b uint) []byte {
	off, n := len(dst), PackedFieldsBytes(len(values), int(b))
	dst = slices.Grow(dst, n)[:off+n]
	out := dst[off:]
	var acc uint64
	var fill uint
	for _, v := range values {
		acc |= v << (fill & 63) // the masks tell the compiler the counts are below 64
		if fill += b; fill >= 64 {
			binary.LittleEndian.PutUint64(out, acc)
			out = out[8:]
			fill -= 64
			acc = v >> ((b - fill) & 63) // the bits of v the stored word had no room for
		}
	}
	if fill > 0 {
		binary.LittleEndian.PutUint64(out, acc)
	}
	return dst
}

// UnpackFields is AppendFields' inverse: it hands value i to set(i, v)
// for each of count values in src, which must be exactly
// PackedFieldsBytes(count, b) long, and refuses a value that is not below
// q or a padding bit that is set, so an accepted stream is the one
// encoding of its values.
func UnpackFields(src []byte, count int, b uint, q uint64, set func(int, uint64)) error {
	if want := PackedFieldsBytes(count, int(b)); len(src) != want {
		return fmt.Errorf("ring: %d packed bytes, %d fields of %d bits take %d", len(src), count, b, want)
	}
	var run [256]uint64
	for i := 0; i < count; i += len(run) {
		n := min(len(run), count-i)
		size := PackedFieldsBytes(n, int(b))
		if err := UnpackFieldRun(src[:size], run[:n], b); err != nil {
			return err
		}
		src = src[size:]
		for k, v := range run[:n] {
			if v >= q {
				return fmt.Errorf("ring: packed field %d holds %d, not reduced mod %d", i+k, v, q)
			}
			set(i+k, v)
		}
	}
	return nil
}

// UnpackFieldRun is AppendFieldRun's inverse: it fills values from src,
// which must be exactly PackedFieldsBytes(len(values), b) long, and
// refuses a set padding bit. A value of b bits needs no other check.
func UnpackFieldRun(src []byte, values []uint64, b uint) error {
	if want := PackedFieldsBytes(len(values), int(b)); len(src) != want {
		return fmt.Errorf("ring: %d packed bytes, %d fields of %d bits take %d", len(src), len(values), b, want)
	}
	mask := uint64(1)<<b - 1
	var acc uint64 // bits read and not yet handed out
	var have uint  // how many
	for i := range values {
		v := acc
		if have < b {
			w := binary.LittleEndian.Uint64(src)
			src = src[8:]
			v |= w << (have & 63) // the masks tell the compiler the counts are below 64
			used := b - have      // 1…b bits of w complete the field
			acc, have = w>>(used&63), 64-used
		} else {
			acc, have = acc>>(b&63), have-b
		}
		values[i] = v & mask
	}
	if acc != 0 {
		return fmt.Errorf("ring: packed fields carry set padding bits")
	}
	return nil
}
