package protocol

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"strings"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// A ciphertext frame is the per-request half of the trust boundary: it
// comes from whoever holds the connection, and everything behind the
// decoder — Harvey-lazy butterflies, the AVX2 dyadic kernels, the
// accumulators' exactness arguments — assumes canonical residues and a
// component count the evaluators index by. These tests pin that the
// decoders let nothing else through.

// wireFrames builds one valid frame of each ciphertext family at the
// test presets, the seeds of the table tests and the fuzz corpus alike.
type wireFrames struct {
	bctx                 *bfv.Context
	cctx                 *ckks.Context
	bfvFull, bfvSeeded   []byte
	bfvDropped           []byte // one residue modulus-switched away
	ckksFull, ckksSeeded []byte
	bfvValue, ckksValue  []*ring.Poly // the polynomials inside bfvFull and ckksFull
	// bfvRead is the dropped reply as a product-packed layer sends it,
	// c0 rounded to readWidth bits at readIdx and nothing else: 100
	// coefficients, seven apart, whose fields end inside a word. bfvUpload
	// is the seeded encryption's c0 as a product layer's upload, rounded
	// to uploadWidth bits.
	bfvRead, bfvUpload     []byte
	readIdx                []int
	readWidth, uploadWidth int
	droppedC0, uploadC0    *ring.Poly
}

func newWireFrames(t testing.TB) wireFrames {
	t.Helper()
	bctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	bkg := bfv.NewKeyGenerator(bctx, [32]byte{1, 2, 3})
	bsk := bkg.GenSecretKey()
	vals := make([]uint64, bctx.Params.N())
	for i := range vals {
		vals[i] = uint64(i*7+1) % bctx.T.Value
	}
	bct, err := bfv.NewEncryptor(bctx, bkg.GenPublicKey(bsk), [32]byte{9}).EncryptUints(vals)
	if err != nil {
		t.Fatal(err)
	}
	bsct, err := bfv.NewSymmetricEncryptor(bctx, bsk, [32]byte{71}).EncryptUintsSeeded(vals)
	if err != nil {
		t.Fatal(err)
	}
	// The frame a reply leaves as: switched down to the parameter set's
	// reply level, k = 1 at the Test preset.
	dropped, bev := bct, bfv.NewEvaluator(bctx, nil, nil)
	for d := 0; d < bctx.Params.ReplyDrop(); d++ {
		if dropped, err = bev.ModSwitchDown(dropped); err != nil {
			t.Fatal(err)
		}
	}

	cctx, err := ckks.NewContext(ckks.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	ckg := ckks.NewKeyGenerator(cctx, [32]byte{83})
	csk := ckg.GenSecretKey()
	floats := []float64{1.25, -2.5, 3.75, 0.125}
	cct, err := ckks.NewEncryptor(cctx, ckg.GenPublicKey(csk), [32]byte{4}).EncryptFloats(floats)
	if err != nil {
		t.Fatal(err)
	}
	csct, err := ckks.NewSymmetricEncryptor(cctx, csk, [32]byte{84}).EncryptFloatsSeeded(floats)
	if err != nil {
		t.Fatal(err)
	}
	readIdx := make([]int, 100)
	for i := range readIdx {
		readIdx[i] = 3 + 7*i
	}
	readWidth, uploadWidth := bctx.Params.ReplyBits(), bctx.Params.UploadBits(70)
	return wireFrames{
		bctx: bctx, cctx: cctx,
		bfvFull: MarshalBFV(bct), bfvSeeded: MarshalSeededBFV(bsct), bfvDropped: MarshalBFV(dropped),
		bfvRead: AppendRoundedRead(nil, bctx, dropped.Value[0], readIdx, readWidth), readIdx: readIdx,
		bfvUpload: AppendRoundedUpload(nil, bctx, bsct.C0, uploadWidth),
		readWidth: readWidth, uploadWidth: uploadWidth, droppedC0: dropped.Value[0], uploadC0: bsct.C0,
		ckksFull: MarshalCKKS(cct), ckksSeeded: MarshalSeededCKKS(csct),
		bfvValue: bct.Value, ckksValue: cct.Value,
	}
}

// checkResidues restates the chocodebug ciphertext invariants
// (bfv/debug_on.go debugCheckCt and its CKKS twin) so the default build
// checks them too: each component has exactly the ring's residue rows,
// each row N words, each word in [0, q_i).
func checkResidues(t *testing.T, r *ring.Ring, polys []*ring.Poly) {
	t.Helper()
	if len(polys) != 2 && len(polys) != 3 {
		t.Fatalf("decoded a ciphertext of %d components", len(polys))
	}
	for pi, p := range polys {
		if p == nil || len(p.Coeffs) != len(r.Moduli) {
			t.Fatalf("component %d does not have the ring's %d residue rows", pi, len(r.Moduli))
		}
		for i, row := range p.Coeffs {
			if len(row) != r.N {
				t.Fatalf("component %d row %d has %d words, want N = %d", pi, i, len(row), r.N)
			}
			for j, v := range row {
				if v >= r.Moduli[i].Value {
					t.Fatalf("component %d residue [%d][%d] = %d is not reduced mod %d", pi, i, j, v, r.Moduli[i].Value)
				}
			}
		}
	}
}

func checkBFV(t *testing.T, ctx *bfv.Context, ct *bfv.Ciphertext) {
	t.Helper()
	if ct.Drop < 0 || ct.Drop > ctx.MaxDrop() {
		t.Fatalf("decoded drop %d outside [0,%d]", ct.Drop, ctx.MaxDrop())
	}
	checkResidues(t, ctx.RingAtDrop(ct.Drop), ct.Value)
}

func checkCKKS(t *testing.T, ctx *ckks.Context, ct *ckks.Ciphertext) {
	t.Helper()
	if ct.Level < 0 || ct.Level > ctx.Params.MaxLevel() {
		t.Fatalf("decoded level %d outside [0,%d]", ct.Level, ctx.Params.MaxLevel())
	}
	if !(ct.Scale > 0) || math.IsInf(ct.Scale, 0) {
		t.Fatalf("decoded scale %v", ct.Scale)
	}
	checkResidues(t, ctx.RingAtLevel(ct.Level), ct.Value)
}

// mutated returns a copy of frame with edit applied.
func mutated(frame []byte, edit func([]byte) []byte) []byte {
	return edit(append([]byte(nil), frame...))
}

func setU32(at int, v uint32) func([]byte) []byte {
	return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[at:], v); return b }
}

func setU64(at int, v uint64) func([]byte) []byte {
	return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[at:], v); return b }
}

// withDegree rewrites the component count and resizes the body to match,
// so the frame fails on the count and not on its length.
func withDegree(deg int) func([]byte) []byte {
	return func(b []byte) []byte {
		per := (len(b) - headerBytes) / int(binary.LittleEndian.Uint32(b[4:]))
		binary.LittleEndian.PutUint32(b[4:], uint32(deg))
		return append(b[:headerBytes], make([]byte, deg*per)...)
	}
}

func TestUnmarshalRejectsHostileCiphertexts(t *testing.T) {
	f := newWireFrames(t)
	bR, cR := f.bctx.RingQ, f.cctx.RingQ
	bq, cq := bR.Moduli, cR.Moduli
	bN, cN := bR.N, cR.N
	bLast, cLast := len(bq)-1, len(cq)-1
	bDrop := f.bctx.RingAtDrop(f.bctx.Params.ReplyDrop()) // the ring f.bfvDropped arrives over
	// Byte offsets of the polynomials: c0 behind the header (and the
	// seed), c1 behind c0.
	const c0, seededC0 = headerBytes, headerBytes + seedBytes
	oneWordLong := func(b []byte) []byte { return append(b, make([]byte, 8)...) }

	type decoder struct {
		name string
		fn   func([]byte) error
	}
	bfvFull := []decoder{
		{"UnmarshalBFV", func(b []byte) error { _, err := UnmarshalBFV(f.bctx, b); return err }},
		{"UnmarshalAnyBFV", func(b []byte) error { _, err := UnmarshalAnyBFV(f.bctx, b); return err }},
	}
	bfvSeeded := []decoder{
		{"UnmarshalSeededBFV", func(b []byte) error { _, err := UnmarshalSeededBFV(f.bctx, b); return err }},
		{"UnmarshalAnyBFV", func(b []byte) error { _, err := UnmarshalAnyBFV(f.bctx, b); return err }},
	}
	ckksFull := []decoder{
		{"UnmarshalCKKS", func(b []byte) error { _, err := UnmarshalCKKS(f.cctx, b); return err }},
		{"UnmarshalAnyCKKS", func(b []byte) error { _, err := UnmarshalAnyCKKS(f.cctx, b); return err }},
	}
	ckksSeeded := []decoder{
		{"UnmarshalSeededCKKS", func(b []byte) error { _, err := UnmarshalSeededCKKS(f.cctx, b); return err }},
		{"UnmarshalAnyCKKS", func(b []byte) error { _, err := UnmarshalAnyCKKS(f.cctx, b); return err }},
	}

	for _, tc := range []struct {
		name     string
		decoders []decoder
		frame    []byte
		want     string // substring of the error; "" means the frame is valid
	}{
		{"bfv/valid", bfvFull, f.bfvFull, ""},
		{"bfv/valid dropped level", bfvFull, f.bfvDropped, ""},
		{"bfv/largest residue q-1", bfvFull, mutated(f.bfvFull, withResidue(bR, c0, 0, 0, bq[0].Value-1)), ""},
		{"bfv/degree 0", bfvFull, mutated(f.bfvFull, withDegree(0)), "components"},
		{"bfv/degree 1", bfvFull, mutated(f.bfvFull, withDegree(1)), "components"},
		{"bfv/degree 4", bfvFull, mutated(f.bfvFull, withDegree(4)), "components"},
		{"bfv/degree 2^31", bfvFull, mutated(f.bfvFull, setU32(4, 1<<31)), "components"},
		{"bfv/first residue = q0", bfvFull, mutated(f.bfvFull, withResidue(bR, c0, 0, 0, bq[0].Value)), "not reduced"},
		{"bfv/first residue of row 1 = q1", bfvFull, mutated(f.bfvFull, withResidue(bR, c0, 1, 0, bq[1].Value)), "not reduced"},
		{"bfv/residue = q0+1", bfvFull, mutated(f.bfvFull, withResidue(bR, c0, 0, 2, bq[0].Value+1)), "not reduced"},
		{"bfv/field of all ones", bfvFull, mutated(f.bfvFull, withResidue(bR, c0, 0, 3, allOnes(bR, 0))), "not reduced"},
		{"bfv/last residue of c1 = q", bfvFull, mutated(f.bfvFull, withResidue(bR, c0+bR.PackedBytes(), bLast, bN-1, bq[bLast].Value)), "not reduced"},
		{"bfv/dropped level, last residue of c1 = q", bfvFull, mutated(f.bfvDropped, withResidue(bDrop, c0+bDrop.PackedBytes(), len(bDrop.Moduli)-1, bN-1, bDrop.Moduli[len(bDrop.Moduli)-1].Value)), "not reduced"},
		{"bfv/scale field set", bfvFull, mutated(f.bfvFull, setU64(16, math.Float64bits(1))), "scale"},
		{"bfv/truncated in the header", bfvFull, f.bfvFull[:20], "truncated"},
		{"bfv/one word short", bfvFull, f.bfvFull[:len(f.bfvFull)-8], "length"},
		{"bfv/one word long", bfvFull, mutated(f.bfvFull, oneWordLong), "length"},
		{"bfv/k says one residue, body has them all", bfvFull, mutated(f.bfvFull, setU32(12, 1)), "length"},

		{"bfv-seeded/valid", bfvSeeded, f.bfvSeeded, ""},
		{"bfv-seeded/component field 2", bfvSeeded, mutated(f.bfvSeeded, setU32(4, 2)), "shape"},
		{"bfv-seeded/first residue = q0", bfvSeeded, mutated(f.bfvSeeded, withResidue(bR, seededC0, 0, 0, bq[0].Value)), "not reduced"},
		{"bfv-seeded/last field of all ones", bfvSeeded, mutated(f.bfvSeeded, withResidue(bR, seededC0, bLast, bN-1, allOnes(bR, bLast))), "not reduced"},
		{"bfv-seeded/truncated in the seed", bfvSeeded, f.bfvSeeded[:headerBytes+10], "truncated"},
		{"bfv-seeded/one word short", bfvSeeded, f.bfvSeeded[:len(f.bfvSeeded)-8], "length"},
		{"bfv-seeded/one word long", bfvSeeded, mutated(f.bfvSeeded, oneWordLong), "length"},

		{"ckks/valid", ckksFull, f.ckksFull, ""},
		{"ckks/degree 1", ckksFull, mutated(f.ckksFull, withDegree(1)), "components"},
		{"ckks/degree 4", ckksFull, mutated(f.ckksFull, withDegree(4)), "components"},
		{"ckks/first residue = q0", ckksFull, mutated(f.ckksFull, withResidue(cR, c0, 0, 0, cq[0].Value)), "not reduced"},
		{"ckks/first residue of row 1 = q1", ckksFull, mutated(f.ckksFull, withResidue(cR, c0, 1, 0, cq[1].Value)), "not reduced"},
		{"ckks/last field of all ones", ckksFull, mutated(f.ckksFull, withResidue(cR, c0+cR.PackedBytes(), cLast, cN-1, allOnes(cR, cLast))), "not reduced"},
		{"ckks/scale NaN", ckksFull, mutated(f.ckksFull, setU64(16, math.Float64bits(math.NaN()))), "scale"},
		{"ckks/scale 0", ckksFull, mutated(f.ckksFull, setU64(16, 0)), "scale"},
		{"ckks/scale -1", ckksFull, mutated(f.ckksFull, setU64(16, math.Float64bits(-1))), "scale"},
		{"ckks/scale +Inf", ckksFull, mutated(f.ckksFull, setU64(16, math.Float64bits(math.Inf(1)))), "scale"},
		{"ckks/one word short", ckksFull, f.ckksFull[:len(f.ckksFull)-8], "length"},
		{"ckks/one word long", ckksFull, mutated(f.ckksFull, oneWordLong), "length"},

		{"ckks-seeded/valid", ckksSeeded, f.ckksSeeded, ""},
		{"ckks-seeded/component field 3", ckksSeeded, mutated(f.ckksSeeded, setU32(4, 3)), "shape"},
		{"ckks-seeded/first residue = q0", ckksSeeded, mutated(f.ckksSeeded, withResidue(cR, seededC0, 0, 0, cq[0].Value)), "not reduced"},
		{"ckks-seeded/scale NaN", ckksSeeded, mutated(f.ckksSeeded, setU64(16, math.Float64bits(math.NaN()))), "scale"},
		{"ckks-seeded/one word short", ckksSeeded, f.ckksSeeded[:len(f.ckksSeeded)-8], "length"},
		{"ckks-seeded/one word long", ckksSeeded, mutated(f.ckksSeeded, oneWordLong), "length"},
	} {
		for _, d := range tc.decoders {
			err := d.fn(tc.frame)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s: %s rejected a valid frame: %v", tc.name, d.name, err)
			case tc.want != "" && err == nil:
				t.Errorf("%s: %s accepted the frame", tc.name, d.name)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s: %s failed with %q, want the %q check to fire", tc.name, d.name, err, tc.want)
			}
		}
	}
}

// withField sets field i of the d-bit fields at at to v.
func withField(at, d, i int, v uint64) func([]byte) []byte {
	return func(b []byte) []byte {
		for k := 0; k < d; k++ {
			bit := at*8 + i*d + k
			b[bit/8] = b[bit/8]&^(1<<(bit%8)) | byte(v>>k&1)<<(bit%8)
		}
		return b
	}
}

// checkRoundedC0 holds a decoded rounded c0 to the polynomial it was
// rounded from: at each coefficient of idx (all when nil) within
// q/2^(d+1) + 1 of it at the level's modulus q, read as the centered
// distance at each residue's scale, and zero elsewhere.
func checkRoundedC0(t *testing.T, ctx *bfv.Context, got, want *ring.Poly, d int, idx []int) {
	t.Helper()
	r := ctx.RingAtDrop(len(ctx.RingQ.Moduli) - len(want.Coeffs))
	if len(got.Coeffs) != len(r.Moduli) {
		t.Fatalf("decoded %d residues, want %d", len(got.Coeffs), len(r.Moduli))
	}
	diff := r.NewPoly()
	r.Sub(got, want, diff)
	vals := make([]*big.Int, r.N)
	r.PolyToBigintCentered(diff, vals)
	bound := new(big.Int).Rsh(r.ModulusBig(), uint(d+1))
	bound.Add(bound, big.NewInt(1))
	read := map[int]bool{}
	for _, j := range idx {
		read[j] = true
	}
	for j, v := range vals {
		if idx == nil || read[j] {
			if v.CmpAbs(bound) > 0 {
				t.Fatalf("coefficient %d decodes %v away from c0, more than the rounding's %v", j, v, bound)
			}
			continue
		}
		for i := range got.Coeffs {
			if got.Coeffs[i][j] != 0 {
				t.Fatalf("coefficient %d, off the read set, decodes to %d", j, got.Coeffs[i][j])
			}
		}
	}
}

// TestUnmarshalReadReplyRejects holds the rounded read reply decoder to
// its contract: the frame a product-packed layer sends decodes to the
// switched reply's c0 within its rounding at the read set, zero off it,
// as a one-component ciphertext, and marshals back to itself; a frame
// whose read count or width disagrees with the layer's (in the header, or
// a layer that reads one coefficient fewer), a set padding bit, a
// truncated or overlong frame, a wrong shape, the retired full-width
// layouts (tags 5 and 6), a full reply, and the frame arriving where a
// slot layer's full reply or an upload is due are refused by name.
func TestUnmarshalReadReplyRejects(t *testing.T) {
	f := newWireFrames(t)
	idx, d := f.readIdx, f.readWidth
	read := func(idx []int, d int) func([]byte) error {
		return func(b []byte) error { _, err := UnmarshalRoundedRead(f.bctx, b, idx, d); return err }
	}
	setLastBit := func(b []byte) []byte { b[len(b)-1] |= 0x80; return b }

	ct, err := UnmarshalRoundedRead(f.bctx, f.bfvRead, idx, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Value) != 1 || ct.Drop != f.bctx.Params.ReplyDrop() {
		t.Fatalf("decoded %d components at drop %d, want c0 alone at drop %d", len(ct.Value), ct.Drop, f.bctx.Params.ReplyDrop())
	}
	checkRoundedC0(t, f.bctx, ct.Value[0], f.droppedC0, d, idx)
	if !bytes.Equal(AppendRoundedRead(nil, f.bctx, ct.Value[0], idx, d), f.bfvRead) {
		t.Error("the decoded c0 rounds back to another frame")
	}
	if got := len(f.bfvRead) + lengthPrefixBytes; got != RoundedFrameBytes(len(idx), d) {
		t.Errorf("the frame is %d B on the wire, RoundedFrameBytes says %d", got, RoundedFrameBytes(len(idx), d))
	}
	if whole, err := UnmarshalRoundedRead(f.bctx, mutated(f.bfvRead, setU32(12, uint32(len(f.bctx.RingQ.Moduli)))), idx, d); err != nil || whole.Drop != 0 {
		t.Errorf("a reply rounded from every residue: %v; want it read at drop 0, for the client to refuse by its level", err)
	}

	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		frame  []byte
		want   string // substring of the error; "" means the frame is valid
	}{
		{"valid", read(idx, d), f.bfvRead, ""},
		{"largest field 2^d-1", read(idx, d), mutated(f.bfvRead, withField(headerBytes, d, 99, 1<<d-1)), ""},
		{"header count one more than the layer reads", read(idx, d), mutated(f.bfvRead, setU64(16, uint64(d)<<32|uint64(len(idx)+1))), "the layer reads"},
		{"header count 2^32-1", read(idx, d), mutated(f.bfvRead, setU64(16, uint64(d)<<32|(1<<32-1))), "the layer reads"},
		{"a layer reading one coefficient fewer", read(idx[:len(idx)-1], d), f.bfvRead, "the layer reads"},
		{"header width one more", read(idx, d), mutated(f.bfvRead, setU64(16, uint64(d+1)<<32|uint64(len(idx)))), "the layer's width"},
		{"header width 2^32-1", read(idx, d), mutated(f.bfvRead, setU64(16, math.MaxUint64)), "the layer's width"},
		{"a layer rounding one bit wider", read(idx, d+1), f.bfvRead, "the layer's width"},
		{"padding bit set", read(idx, d), mutated(f.bfvRead, setLastBit), "padding"},
		{"truncated in the header", read(idx, d), f.bfvRead[:20], "truncated"},
		{"truncated in c0", read(idx, d), f.bfvRead[:len(f.bfvRead)-8], "length"},
		{"header alone", read(idx, d), f.bfvRead[:headerBytes], "length"},
		{"one word long", read(idx, d), append(bytes.Clone(f.bfvRead), make([]byte, 8)...), "length"},
		{"k = 0", read(idx, d), mutated(f.bfvRead, setU32(12, 0)), "shape"},
		{"k one past the context", read(idx, d), mutated(f.bfvRead, setU32(12, uint32(len(f.bctx.RingQ.Moduli)+1))), "shape"},
		{"two components", read(idx, d), mutated(f.bfvRead, setU32(4, 2)), "shape"},
		{"N halved", read(idx, d), mutated(f.bfvRead, setU32(8, uint32(f.bctx.RingQ.N/2))), "shape"},
		{"the layout that carried c1 whole (tag 5)", read(idx, d), mutated(f.bfvRead, setU32(0, HelloVersion<<16|5)), "retired read reply carrying c1 whole"},
		{"the full-width c0 read reply (tag 6)", read(idx, d), mutated(f.bfvRead, setU32(0, HelloVersion<<16|6)), "retired full-width c0 read reply"},
		{"a full reply where reads are due", read(idx, d), f.bfvDropped, "not the expected ciphertext tag"},
		{"the frame where a slot layer's reply is due", func(b []byte) error { _, err := UnmarshalBFV(f.bctx, b); return err }, f.bfvRead, "not the expected ciphertext tag"},
		{"the frame as a seeded upload", func(b []byte) error { _, err := UnmarshalAnyBFV(f.bctx, b); return err }, f.bfvRead, "not the expected ciphertext tag"},
		{"the frame as a rounded upload", func(b []byte) error { _, err := UnmarshalRoundedUpload(f.bctx, b, d); return err }, f.bfvRead, "rounded product read reply"},
	} {
		checkRefusal(t, tc.name, tc.decode(tc.frame), tc.want)
	}
}

// TestUnmarshalRoundedUploadRejects holds the rounded upload decoder to
// its contract: a product layer's upload decodes to its c0 within the
// rounding at every coefficient, at every residue, as a one-component
// full-modulus ciphertext, and marshals back to itself; a width that is
// not the layer's, a read count, a level below the top, a truncated or
// overlong frame, a wrong shape, and a seeded upload — whose seed no
// server reads — or a read reply in its place are refused by name.
func TestUnmarshalRoundedUploadRejects(t *testing.T) {
	f := newWireFrames(t)
	d := f.uploadWidth
	up := func(d int) func([]byte) error {
		return func(b []byte) error { _, err := UnmarshalRoundedUpload(f.bctx, b, d); return err }
	}
	ct, err := UnmarshalRoundedUpload(f.bctx, f.bfvUpload, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Value) != 1 || ct.Drop != 0 {
		t.Fatalf("decoded %d components at drop %d, want c0 alone at drop 0", len(ct.Value), ct.Drop)
	}
	checkRoundedC0(t, f.bctx, ct.Value[0], f.uploadC0, d, nil)
	if !bytes.Equal(AppendRoundedUpload(nil, f.bctx, ct.Value[0], d), f.bfvUpload) {
		t.Error("the decoded c0 rounds back to another frame")
	}
	if got := len(f.bfvUpload) + lengthPrefixBytes; got != RoundedFrameBytes(f.bctx.RingQ.N, d) {
		t.Errorf("the frame is %d B on the wire, RoundedFrameBytes says %d", got, RoundedFrameBytes(f.bctx.RingQ.N, d))
	}
	full := uint32(len(f.bctx.RingQ.Moduli))
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		frame  []byte
		want   string
	}{
		{"valid", up(d), f.bfvUpload, ""},
		{"largest field 2^d-1", up(d), mutated(f.bfvUpload, withField(headerBytes, d, 0, 1<<d-1)), ""},
		{"header width one less", up(d), mutated(f.bfvUpload, setU64(16, uint64(d-1)<<32)), "the layer's width"},
		{"a layer rounding one bit narrower", up(d - 1), f.bfvUpload, "the layer's width"},
		{"a read count", up(d), mutated(f.bfvUpload, setU64(16, uint64(d)<<32|1)), "carries every coefficient"},
		{"rounded from one residue", up(d), mutated(f.bfvUpload, setU32(12, full-1)), "rounded from all"},
		{"k = 0", up(d), mutated(f.bfvUpload, setU32(12, 0)), "shape"},
		{"two components", up(d), mutated(f.bfvUpload, setU32(4, 2)), "shape"},
		{"N halved", up(d), mutated(f.bfvUpload, setU32(8, uint32(f.bctx.RingQ.N/2))), "shape"},
		{"truncated in the header", up(d), f.bfvUpload[:20], "truncated"},
		{"one word short", up(d), f.bfvUpload[:len(f.bfvUpload)-8], "length"},
		{"one word long", up(d), append(bytes.Clone(f.bfvUpload), make([]byte, 8)...), "length"},
		{"a seeded upload", up(d), f.bfvSeeded, "seeded BFV ciphertext"},
		{"a read reply", up(d), f.bfvRead, "rounded product read reply"},
		{"the frame as a seeded upload", func(b []byte) error { _, err := UnmarshalAnyBFV(f.bctx, b); return err }, f.bfvUpload, "rounded product upload"},
	} {
		checkRefusal(t, tc.name, tc.decode(tc.frame), tc.want)
	}
}

// checkRefusal fails t unless err is nil where want is "" and otherwise
// holds want.
func checkRefusal(t *testing.T, name string, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("%s: rejected a valid frame: %v", name, err)
	case want != "" && err == nil:
		t.Errorf("%s: accepted the frame", name)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Errorf("%s: failed with %q, want the %q check to fire", name, err, want)
	}
}

// checkOneEncoding asserts that a frame any of the tags' decoders accepts
// marshals back to exactly the bytes it came from: the decoder's checks are
// all equalities, a packed row has no spare bits, so one ciphertext has one
// encoding and nothing rides along in a frame that decodes.
func checkOneEncoding(t *testing.T, ctx *rlwe.Context, data []byte, tags ...uint32) {
	t.Helper()
	for _, tag := range tags {
		value, scale, seed, err := unmarshalFrame(ctx, tag, data)
		if err != nil {
			continue
		}
		if !bytes.Equal(marshalFrame(tag, scale, seedFor(tag, &seed), value...), data) {
			t.Fatalf("a frame accepted under tag %#x marshals back to different bytes", tag)
		}
	}
}

// TestVersion1PeerIsRefusedByName: a version-1 hello, every version-1
// ciphertext frame and both version-1 key bundles — bytes a peer from
// before the packed wire would send — fail on their version, not on a
// length that happens not to fit.
func TestVersion1PeerIsRefusedByName(t *testing.T) {
	f := newWireFrames(t)
	hello, err := MarshalHelloTenant("old-client", "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHello(mutated(hello, setU32(4, 1))); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 hello: %v", err)
	}
	shard, err := MarshalShardHelloTenant("old-client", "127.0.0.1:7501", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseShardHello(mutated(shard, setU32(4, 1))); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 shard hello: %v", err)
	}

	seed := [seedBytes]byte{1}
	for name, err := range map[string]error{
		"bfv":         second(UnmarshalBFV(f.bctx, wordFrame(SchemeBFV, 0, nil, f.bfvValue...))),
		"bfv any":     second(UnmarshalAnyBFV(f.bctx, wordFrame(SchemeBFV, 0, nil, f.bfvValue...))),
		"bfv seeded":  second(UnmarshalAnyBFV(f.bctx, wordFrame(SchemeBFVSeeded, 0, &seed, f.bfvValue[0]))),
		"ckks":        second(UnmarshalCKKS(f.cctx, wordFrame(SchemeCKKS, 1<<30, nil, f.ckksValue...))),
		"ckks seeded": second(UnmarshalAnyCKKS(f.cctx, wordFrame(SchemeCKKSSeeded, 1<<30, &seed, f.ckksValue[0]))),
	} {
		if err == nil || !strings.Contains(err.Error(), "wire version 1") {
			t.Errorf("version-1 %s frame: %v", name, err)
		}
	}

	for _, fx := range newBundleFixtures(t) {
		kb, err := fx.decode(fx.frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, magic := range []uint32{v1KeyBundleMagic, v1CKKSBundleMagic} {
			if _, err := fx.decode(wordBundle(magic, kb)); err == nil || !strings.Contains(err.Error(), "version-1 key bundle") {
				t.Errorf("%s: version-1 bundle %#x: %v", fx.name, magic, err)
			}
		}
	}
}

func second[T any](_ T, err error) error { return err }

// FuzzUnmarshalBFV throws arbitrary bytes, seeded from the golden
// frames, at every BFV ciphertext decoder: the outcome is an error or a
// ciphertext that satisfies the evaluators' input invariants — never a
// panic, never an out-of-range residue.
func FuzzUnmarshalBFV(f *testing.F) {
	w := newWireFrames(f)
	for _, frame := range [][]byte{w.bfvFull, w.bfvSeeded, w.bfvDropped} {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(mutated(frame, setU64(len(frame)-8, math.MaxUint64)))
	}
	f.Add(mutated(w.bfvFull, withDegree(3)))
	f.Add(mutated(w.bfvFull, setU32(4, math.MaxUint32)))
	// A reply whose header and body disagree about the level, both ways.
	f.Add(mutated(w.bfvDropped, setU32(12, 2)))
	f.Add(mutated(w.bfvFull, setU32(12, 1)))
	f.Add([]byte{})
	f.Add(wordFrame(SchemeBFV, 0, nil, w.bfvValue...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range []func(*bfv.Context, []byte) (*bfv.Ciphertext, error){UnmarshalBFV, UnmarshalSeededBFV, UnmarshalAnyBFV} {
			if ct, err := decode(w.bctx, data); err == nil {
				checkBFV(t, w.bctx, ct)
			}
		}
		checkOneEncoding(t, w.bctx.Context, data, SchemeBFV, SchemeBFVSeeded)
	})
}

// FuzzUnmarshalCKKS is FuzzUnmarshalBFV for the CKKS decoders, whose
// header also carries a level (through k) and a scale.
func FuzzUnmarshalCKKS(f *testing.F) {
	w := newWireFrames(f)
	for _, frame := range [][]byte{w.ckksFull, w.ckksSeeded} {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(mutated(frame, setU64(len(frame)-8, math.MaxUint64)))
		f.Add(mutated(frame, setU64(16, math.Float64bits(math.NaN()))))
	}
	f.Add(mutated(w.ckksFull, withDegree(3)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range []func(*ckks.Context, []byte) (*ckks.Ciphertext, error){UnmarshalCKKS, UnmarshalSeededCKKS, UnmarshalAnyCKKS} {
			if ct, err := decode(w.cctx, data); err == nil {
				checkCKKS(t, w.cctx, ct)
			}
		}
		checkOneEncoding(t, w.cctx.Context, data, SchemeCKKS, SchemeCKKSSeeded)
	})
}
