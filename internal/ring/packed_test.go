package ring

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// packRowReference restates the row layout of packed.go one bit at a
// time: field j of stream l is coefficient 4j+l, bit t of a stream is bit
// t mod 64 of the stream's word t/64, and that word is word 4·(t/64)+l of
// the row, little-endian.
func packRowReference(row []uint64, b uint) []byte {
	out := make([]byte, len(row)*int(b)/8)
	for i, v := range row {
		stream, field := uint(i%4), uint(i/4)
		for k := uint(0); k < b; k++ {
			if v>>k&1 == 1 {
				t := field*b + k
				out[8*(4*(t/64)+stream)+t%64/8] |= 1 << (t % 8)
			}
		}
	}
	return out
}

// rowBelow returns n values below q: uniform ones, with 0, 1, q−1, q/2
// and 2^61 mod q planted among them.
func rowBelow(rng *rand.Rand, n int, q uint64) []uint64 {
	row := make([]uint64, n)
	for i := range row {
		row[i] = rng.Uint64() % q
	}
	for i, v := range []uint64{0, 1, q - 1, 1 << 61, q / 2} {
		row[(i*37+5)%n] = v % q
	}
	return row
}

// modulusOfWidth returns a value of exactly b bits to play the modulus;
// the codec only compares against it.
func modulusOfWidth(rng *rand.Rand, b uint) uint64 {
	return 1<<(b-1) + 1 + rng.Uint64()%(1<<(b-1)-1)
}

func TestPackRowMatchesLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for b := uint(2); b <= 62; b++ {
		q := modulusOfWidth(rng, b)
		for _, n := range []int{256, 1024} {
			row := rowBelow(rng, n, q)
			got := make([]byte, PackedBytes(n, int(b)))
			packRow(got, row, b)
			if !bytes.Equal(got, packRowReference(row, b)) {
				t.Fatalf("width %d, n %d: packRow does not write the documented layout", b, n)
			}
			back := make([]uint64, n)
			if !unpackRow(back, got, b, q) {
				t.Fatalf("width %d, n %d: unpackRow rejected reduced residues", b, n)
			}
			for i := range row {
				if back[i] != row[i] {
					t.Fatalf("width %d, n %d: coefficient %d came back %d, was %d", b, n, i, back[i], row[i])
				}
			}
		}
	}
}

func TestUnpackRowRejectsUnreduced(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, b := range []uint{2, 30, 36, 37, 58, 59, 60, 61, 62} {
		q := modulusOfWidth(rng, b)
		row := rowBelow(rng, 256, q)
		buf := make([]byte, PackedBytes(256, int(b)))
		back := make([]uint64, 256)
		for _, at := range []int{0, 1, 2, 3, 63, 64, 130, 252, 255} {
			for _, bad := range []uint64{q, q + 1, 1<<b - 1} {
				if bad >= 1<<b {
					continue // q+1 does not fit the field when q = 2^b − 1
				}
				old := row[at]
				row[at] = bad
				packRow(buf, row, b)
				if unpackRow(back, buf, b, q) {
					t.Fatalf("width %d: unpackRow accepted %d at %d, modulus %d", b, bad, at, q)
				}
				row[at] = old
			}
		}
		packRow(buf, row, b)
		if !unpackRow(back, buf, b, q) {
			t.Fatalf("width %d: unpackRow rejected the restored row", b)
		}
	}
}

func TestPolyPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// The chains in use: bfv-B, bfv-A, ckks-C, the test presets.
	for _, bits := range [][]int{{36, 36, 37}, {58, 58, 59}, {60, 60, 60, 60}, {30, 30, 30}, {50, 40, 40, 51, 41}} {
		r := testRing(t, 8, bits)
		if got, want := r.PackedBytes(), PackedBytes(r.N, bits...); got != want {
			t.Fatalf("%v: the ring packs to %d B, PackedBytes over the widths says %d", bits, got, want)
		}
		p := randomVecPoly(r, rng, true)
		buf := p.AppendPacked([]byte("hdr"))
		if len(buf) != 3+r.PackedBytes() || p.PackedBytes() != r.PackedBytes() {
			t.Fatalf("%v: packed to %d B, want %d", bits, len(buf)-3, r.PackedBytes())
		}
		back := r.NewPoly()
		if err := back.Unpack(buf[3:]); err != nil {
			t.Fatal(err)
		}
		back.isNTT = p.isNTT
		if !r.Equal(back, p) {
			t.Fatalf("%v: polynomial changed across the wire", bits)
		}
		if err := back.Unpack(buf[3 : len(buf)-8]); err == nil {
			t.Errorf("%v: Unpack accepted a buffer one word short", bits)
		}
		if err := back.Unpack(append(buf[3:], make([]byte, 8)...)); err == nil {
			t.Errorf("%v: Unpack accepted a buffer one word long", bits)
		}
		// A value that is a residue of row 0's modulus but not of row 1's.
		last := len(bits) - 1
		if r.Moduli[0].Value > r.Moduli[last].Value {
			p.Coeffs[last][17] = r.Moduli[last].Value
			if err := back.Unpack(p.AppendPacked(nil)); err == nil || !strings.Contains(err.Error(), "not reduced") {
				t.Errorf("%v: Unpack of an unreduced last row: %v", bits, err)
			}
		}

		// A prefix view packs as a polynomial of the shorter chain.
		sub := r.AtLevel(0)
		if got := len(sub.Prefix(p).AppendPacked(nil)); got != PackedBytes(r.N, bits[0]) {
			t.Errorf("%v: one-row prefix packed to %d B", bits, got)
		}
	}
}

func TestHandBuiltPolyHasNoPackedForm(t *testing.T) {
	r := testRing(t, 8, []int{36, 37})
	p := r.NewPoly()
	defer func() {
		if recover() == nil {
			t.Fatal("a re-sliced polynomial packed without complaint")
		}
	}()
	(&Poly{Coeffs: p.Coeffs[:1]}).AppendPacked(nil)
}

// FuzzPackedRow drives the row codec at every width with fuzz-chosen
// residues and with fuzz-chosen wire bytes. From residues: unpack∘pack is
// the identity. From bytes: unpackRow accepts exactly when every field is
// below the modulus, and what it accepts packs back to the same bytes —
// the row has one encoding.
func FuzzPackedRow(f *testing.F) {
	for _, b := range []uint8{36, 37, 40, 41, 50, 51, 58, 59, 60, 2, 62} {
		f.Add(b, uint64(b), []byte{0, 1, 2, 3}, []byte{0xff, 0x00, 0x55})
		f.Add(b, uint64(7), []byte{}, []byte{})
	}
	f.Fuzz(func(t *testing.T, width uint8, seed uint64, pattern, wire []byte) {
		b := 2 + uint(width)%61
		rng := rand.New(rand.NewSource(int64(seed)))
		q := modulusOfWidth(rng, b)
		n := 256 * (1 + int(seed%3))
		row := rowBelow(rng, n, q)
		for i := range row {
			if len(pattern) > 0 && pattern[i%len(pattern)]&1 == 0 {
				row[i] = uint64(pattern[i%len(pattern)]) * (q / 255) % q
			}
		}
		buf := make([]byte, PackedBytes(n, int(b)))
		packRow(buf, row, b)
		back := make([]uint64, n)
		if !unpackRow(back, buf, b, q) {
			t.Fatalf("width %d: reduced residues rejected", b)
		}
		for i := range row {
			if back[i] != row[i] {
				t.Fatalf("width %d: coefficient %d came back %d, was %d", b, i, back[i], row[i])
			}
		}

		// Arbitrary bytes on the wire, repeated to the row's length.
		for i := range buf {
			buf[i] = 0
			if len(wire) > 0 {
				buf[i] = wire[i%len(wire)] ^ byte(seed>>(i%8))
			}
		}
		ok := unpackRow(back, buf, b, q)
		reduced := true
		for _, v := range back {
			if v >= 1<<b {
				t.Fatalf("width %d: unpacked a value of more than %d bits", b, b)
			}
			reduced = reduced && v < q
		}
		if ok != reduced {
			t.Fatalf("width %d: unpackRow said %v, the values say %v", b, ok, reduced)
		}
		again := make([]byte, len(buf))
		packRow(again, back, b)
		if !bytes.Equal(again, buf) {
			t.Fatalf("width %d: a row re-packs to different bytes", b)
		}
	})
}

func benchPackedRow(b *testing.B, width uint, unpack bool) {
	rng := rand.New(rand.NewSource(1))
	q := modulusOfWidth(rng, width)
	row := rowBelow(rng, 4096, q)
	buf := make([]byte, PackedBytes(len(row), int(width)))
	packRow(buf, row, width)
	b.SetBytes(int64(len(row))) // MB/s reads as coefficients per microsecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if unpack {
			if !unpackRow(row, buf, width, q) {
				b.Fatal("rejected")
			}
		} else {
			packRow(buf, row, width)
		}
	}
}

func BenchmarkPackRow36(b *testing.B)   { benchPackedRow(b, 36, false) }
func BenchmarkPackRow59(b *testing.B)   { benchPackedRow(b, 59, false) }
func BenchmarkUnpackRow36(b *testing.B) { benchPackedRow(b, 36, true) }
func BenchmarkUnpackRow59(b *testing.B) { benchPackedRow(b, 59, true) }

// TestPackedFieldsMatchLayout holds the field codec to its documented
// layout, one bit at a time, at every width and at counts that end
// inside a word, on a word boundary and at zero, and its decoder to
// refusing a value ≥ q, a set padding bit and a wrong length.
func TestPackedFieldsMatchLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for b := uint(2); b <= 62; b++ {
		q := modulusOfWidth(rng, b)
		for _, n := range []int{0, 1, 10, 64, 588, 3136} {
			vals := make([]uint64, n)
			if n > 0 {
				vals = rowBelow(rng, n, q)
			}
			got := AppendFields([]byte{0xAA}, n, b, func(i int) uint64 { return vals[i] })
			if got[0] != 0xAA || len(got) != 1+PackedFieldsBytes(n, int(b)) || len(got)%8 != 1 {
				t.Fatalf("width %d, count %d: appended %d bytes to a 1-byte prefix, want %d whole words", b, n, len(got)-1, PackedFieldsBytes(n, int(b)))
			}
			got = got[1:]
			want := make([]byte, len(got))
			for i, v := range vals {
				for k := uint(0); k < b; k++ {
					if v>>k&1 == 1 {
						bit := uint(i)*b + k
						want[bit/8] |= 1 << (bit % 8)
					}
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("width %d, count %d: AppendPackedFields does not write the documented layout", b, n)
			}
			back := make([]uint64, n)
			unpack := func(src []byte) error {
				return UnpackFields(src, n, b, q, func(i int, v uint64) { back[i] = v })
			}
			if err := unpack(got); err != nil {
				t.Fatalf("width %d, count %d: %v", b, n, err)
			}
			for i := range vals {
				if back[i] != vals[i] {
					t.Fatalf("width %d, count %d: field %d came back %d, was %d", b, n, i, back[i], vals[i])
				}
			}
			if n == 0 {
				continue
			}
			if err := unpack(append(got, make([]byte, 8)...)); err == nil {
				t.Fatalf("width %d, count %d: a stream one word long accepted", b, n)
			}
			at := rng.Intn(n)
			old := vals[at]
			vals[at] = q
			if err := unpack(AppendFields(nil, n, b, func(i int) uint64 { return vals[i] })); err == nil || !strings.Contains(err.Error(), "not reduced") {
				t.Fatalf("width %d, count %d: field %d = q accepted (%v)", b, n, at, err)
			}
			vals[at] = old
			if pad := len(got)*8 - n*int(b); pad > 0 {
				bad := bytes.Clone(got)
				bad[len(bad)-1] |= 0x80
				if err := unpack(bad); err == nil || !strings.Contains(err.Error(), "padding") {
					t.Fatalf("width %d, count %d: a set padding bit accepted (%v)", b, n, err)
				}
			}
		}
	}
}
