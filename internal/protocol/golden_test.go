package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// Wire-format stability tests: the header layout is a compatibility
// contract between deployed clients and servers; these pin it.

func TestBFVWireHeaderLayout(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{1})
	sk := kg.GenSecretKey()
	enc := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{2})
	data := MarshalBFV(enc.EncryptZero())

	if got := binary.LittleEndian.Uint32(data[0:]); got != 0x20001 {
		t.Errorf("scheme tag %#x, want wire version 2 over family 1", got)
	}
	if got := binary.LittleEndian.Uint32(data[4:]); got != 2 {
		t.Errorf("component count %d, want 2", got)
	}
	if got := binary.LittleEndian.Uint32(data[8:]); int(got) != ctx.Params.N() {
		t.Errorf("N field %d", got)
	}
	if got := binary.LittleEndian.Uint32(data[12:]); int(got) != len(ctx.Params.QBits) {
		t.Errorf("k field %d", got)
	}
	if got := binary.LittleEndian.Uint64(data[16:]); got != 0 {
		t.Errorf("scale field %#x in a BFV frame", got)
	}
	// Two polynomials, each row N·⌈log₂ q⌉ bits.
	p := ctx.Params
	if want := headerBytes + 2*ring.PackedBytes(p.N(), p.QBits...); len(data) != want || len(data)+lengthPrefixBytes != FrameBytes(ctx.RingQ.PackedBytes(), 2, false) {
		t.Errorf("total length %d, want %d", len(data), want)
	}
}

func TestBFVWireDeterminism(t *testing.T) {
	// Identical seeds must byte-identically reproduce the wire form —
	// the foundation of the repo's reproducibility.
	build := func() []byte {
		ctx, err := bfv.NewContext(bfv.PresetTest())
		if err != nil {
			t.Fatal(err)
		}
		kg := bfv.NewKeyGenerator(ctx, [32]byte{3})
		sk := kg.GenSecretKey()
		enc := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{4})
		ct, _ := enc.EncryptUints([]uint64{1, 2, 3})
		return MarshalBFV(ct)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wire bytes differ at offset %d", i)
		}
	}
}

func TestCrossSchemeUnmarshalRejected(t *testing.T) {
	bctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(bctx, [32]byte{1})
	sk := kg.GenSecretKey()
	enc := bfv.NewEncryptor(bctx, kg.GenPublicKey(sk), [32]byte{2})
	bfvWire := MarshalBFV(enc.EncryptZero())

	// A BFV frame must not unmarshal as CKKS, and a key bundle must
	// not unmarshal as a ciphertext.
	kb := MarshalKeyBundle(&KeyBundle{PK: kg.GenPublicKey(sk), Galois: map[uint64]*bfv.GaloisKey{}})
	if _, err := UnmarshalBFV(bctx, kb); err == nil {
		t.Error("key bundle accepted as ciphertext")
	}
	if _, err := UnmarshalKeyBundle(bctx, bfvWire); err == nil {
		t.Error("ciphertext accepted as key bundle")
	}
}

// goldenFrame is one pinned ciphertext: its frame must hash to wire, and
// the ciphertext decoded from that frame, written out the way wire
// version 1 wrote it (words_test.go), to words — the digest the same
// ciphertext has had since it was first pinned.
type goldenFrame struct {
	name        string
	tag         uint32
	frame       []byte
	wire, words string
}

func checkGoldenFrames(t *testing.T, ctx *rlwe.Context, frames []goldenFrame) {
	t.Helper()
	for _, g := range frames {
		if got := sha(g.frame); got != g.wire {
			t.Errorf("%s: frame hash drifted: %s", g.name, got)
		}
		value, scale, seed, err := unmarshalFrame(ctx, g.tag, g.frame)
		if err != nil {
			t.Errorf("%s: %v", g.name, err)
			continue
		}
		if got := sha(wordFrame(g.tag, scale, seedFor(g.tag, &seed), value...)); got != g.words {
			t.Errorf("%s: the decoded polynomials are not the pinned ones: %s", g.name, got)
		}
	}
}

// TestBFVCiphertextGoldenHashes pins SHA-256 digests of ciphertexts
// captured from the pre-optimization (serial, allocating, big.Int) client
// kernel. The fused per-residue encryption pipeline, the block-batched
// samplers, and every future client-kernel change must reproduce these
// polynomials exactly: randomness derivation, sampling stream order and
// RNS arithmetic are pinned by the words digests, the wire layout by the
// frame digests.
func TestBFVCiphertextGoldenHashes(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{1, 2, 3})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(ctx, pk, [32]byte{9})
	vals := make([]uint64, ctx.Params.N())
	for i := range vals {
		vals[i] = uint64(i*7+1) % ctx.T.Value
	}
	ct, err := enc.EncryptUints(vals)
	if err != nil {
		t.Fatal(err)
	}
	sym := bfv.NewSymmetricEncryptor(ctx, sk, [32]byte{71})
	sct, err := sym.EncryptUintsSeeded(vals)
	if err != nil {
		t.Fatal(err)
	}
	// A second encryption continues the sampling stream — pins
	// cross-call sampler state, not just the first draw.
	ct2 := enc.EncryptZero()
	checkGoldenFrames(t, ctx.Context, []goldenFrame{
		{"public encryption", SchemeBFV, MarshalBFV(ct),
			"75798eb51b5dceec29c4e1552fee6bac991747f5350ae782b399d0df301a47ef", "a0246c63ffb2b93c1c251365aff2ffda4bf840639ed7ca0f41e2e53159d09195"},
		{"seeded encryption", SchemeBFVSeeded, MarshalSeededBFV(sct),
			"8ee722d257809a1506fa6d7b689b3c5f2579981c4ef59200254553c58e2fafd6", "e09a81f99bccb067a684673039e331bd984a72dd740c5e32a36db9844bfdcd90"},
		{"second public encryption", SchemeBFV, MarshalBFV(ct2),
			"b296964974677c90c84a264e2aeb0ccffb15b8828afe006c7755b558c4d445cb", "5d613f67a909de05a62c0604788204da4901c776369212ca23f4def40d78a2ea"},
	})
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestCKKSGoldenHashes is the CKKS twin of the BFV pins above, and goes
// further down the stack: besides the two client encryptions it pins the
// output bytes of one rotation, one multiply-relinearise-rescale and one
// lazy rotation sum, so the key generator, the key-switch core at the top
// level and one level below it, and the QP accumulator are all held to
// the bytes they produced when these digests were taken. The three
// key-switched rows were re-pinned once, when switching keys became
// seeded: every A now expands from a per-key seed under its own label,
// so the keys — and what they switch to — changed; the two encryptions
// did not.
func TestCKKSGoldenHashes(t *testing.T) {
	ctx, err := ckks.NewContext(ckks.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, [32]byte{4, 5, 6})
	sk := kg.GenSecretKey()
	enc := ckks.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{10})
	ev := ckks.NewEvaluator(ctx, kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, 1, 2, 4))
	vals := make([]float64, ctx.Params.Slots())
	for i := range vals {
		vals[i] = float64(i%17)/8 - 1
	}
	ct, err := enc.EncryptFloats(vals)
	if err != nil {
		t.Fatal(err)
	}
	sct, err := ckks.NewSymmetricEncryptor(ctx, sk, [32]byte{72}).EncryptFloatsSeeded(vals)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := ev.RotateLeft(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if sq, err = ev.Rescale(sq); err != nil {
		t.Fatal(err)
	}
	sum, err := ev.RotateSumLazy(sq, []int{0, 1, 2, 4}) // one level below the top
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenFrames(t, ctx.Context, []goldenFrame{
		{"public encryption", SchemeCKKS, MarshalCKKS(ct),
			"0295c4b01e73b2543a0c2388be678bcf99f7a494ac288547f39b65ef5b00e52c", "14b5a75353b3c41dc3d37dfcfc9abf062062e90790b7860e6e69e2a14334579f"},
		{"seeded encryption", SchemeCKKSSeeded, MarshalSeededCKKS(sct),
			"ccc9407f4017b2b7723797c1456184d71ad72f7e788263a429b4d1c8bb822db4", "2b7489c280b5634c18bd858f9d743c848c9d548259686997bda197ac7979c2ef"},
		{"RotateLeft", SchemeCKKS, MarshalCKKS(rot),
			"1fd27661bf3d2e305c57ec7c1d2ad4d71155d1c683cbb1aed2e301aa59e1eac1", "84d3a4a3da75151ba75dad8c75da435e86483822bce706ea810af72010fe3c12"},
		{"MulRelin+Rescale", SchemeCKKS, MarshalCKKS(sq),
			"dcab79a04f772a58848849da3a5345a08dc714419f2788c8e00d9078becabb86", "9c02d54711617775682816d9f8c5dedd7fec5af7db32b1775084dcc27d502afb"},
		{"RotateSumLazy", SchemeCKKS, MarshalCKKS(sum),
			"b328103ca95e164d87a8fb1a73abb6a2f2d3e8debfdcc94cf97b9de03199bf08", "9f7e05be8b937e1e1fe187c1aa6853b16b9c6a9f8d87bd75b161199174c3804d"},
	})
}

// TestKeyBundleGoldenHashes pins a whole evaluation-key bundle per scheme
// (public key, relinearisation key, three Galois keys): every sampling
// label, the gadget term and the bundle layout. Possible only because the
// Galois keys are written in ascending element order. As for the frames,
// the bundle's own digest pins the layout and the digest of the decoded
// keys in version-1 form (words_test.go) pins the keys — B and the A
// expanded from the seed. Both were re-pinned when switching keys became
// seeded (bundle version 3): A comes from its own seeded stream, so B's
// errors moved too.
func TestKeyBundleGoldenHashes(t *testing.T) {
	bctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	bkg := bfv.NewKeyGenerator(bctx, [32]byte{7, 8, 9})
	bsk := bkg.GenSecretKey()
	bkb := &KeyBundle{PK: bkg.GenPublicKey(bsk), Relin: bkg.GenRelinearizationKey(bsk), Galois: bkg.GenRotationKeys(bsk, 1, -3)}
	data := MarshalKeyBundle(bkb)
	if got := sha(data); len(bkb.Galois) != 3 || got != "d9b1ef6cb38c4aa0f9afefc3bf3d6f3eef953e2202340678443ef23ec7c21691" {
		t.Errorf("BFV key bundle (%d Galois keys) hash drifted: %s", len(bkb.Galois), got)
	}
	if back, err := UnmarshalKeyBundle(bctx, data); err != nil {
		t.Error(err)
	} else if got := sha(wordBundle(v1KeyBundleMagic, back)); got != "8357059c84e6688b64ee34f9af5c359532e996baae1cb9e13f2992baa738d2a6" {
		t.Errorf("the decoded BFV keys are not the pinned ones: %s", got)
	}

	cctx, err := ckks.NewContext(ckks.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	ckg := ckks.NewKeyGenerator(cctx, [32]byte{7, 8, 9})
	csk := ckg.GenSecretKey()
	ckb := &CKKSKeyBundle{PK: ckg.GenPublicKey(csk), Relin: ckg.GenRelinearizationKey(csk), Galois: ckg.GenRotationKeys(csk, 1, -3)}
	data = MarshalCKKSKeyBundle(ckb)
	if got := sha(data); len(ckb.Galois) != 3 || got != "1e651e9a0be5202030fe08c9a493cc972b08713c4fe054fbfb59e8288bbcd67c" {
		t.Errorf("CKKS key bundle (%d Galois keys) hash drifted: %s", len(ckb.Galois), got)
	}
	if back, err := UnmarshalCKKSKeyBundle(cctx, data); err != nil {
		t.Error(err)
	} else if got := sha(wordBundle(v1CKKSBundleMagic, (*KeyBundle)(back))); got != "5c524fd5df5b37b88ac79619bf350b7d65b29932ca60eeaccc7d5ba310b20530" {
		t.Errorf("the decoded CKKS keys are not the pinned ones: %s", got)
	}
}
