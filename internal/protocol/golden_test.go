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
// frame digests. Every digest was re-pinned once, when the Gaussian error
// sampler became the constant-time table sampler: the errors changed,
// the frame lengths did not.
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
			"3f2b0cbfe13bb1cafe4f469f15e2ee43c3d1b9daf1872c43d9a512593638cf29", "bf3cefa82b7fcffb581ed481cbe5ca2e65e0760869d7ebb7775b18adfdd3c298"},
		{"seeded encryption", SchemeBFVSeeded, MarshalSeededBFV(sct),
			"e8a547f5450a39c915c6d95e2bba197c127d8422ce128d94489313b9c2f52f7c", "cfa31dfa31553a0d773882219c19a1c13626d0a0c4a07581374885c12ce086d6"},
		{"second public encryption", SchemeBFV, MarshalBFV(ct2),
			"0969803b77f3c776dd14c3fd80eb5e28cced767c99bf9c5322b6b1b222256c85", "cfa30f003650ac4415b1ca320096c5c9c23a6550da9fd8598649562c1968162d"},
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
// did not. All five were re-pinned when the error sampler became the
// table sampler, which draws every encryption and key error.
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
			"591a0e1ddf45a53843fff1284ecb611defe4e91067f3a783581d112ce89158f8", "81a051f2ad60945a6b583abb798525d6e78a7db0c041ed8940395df1c642935b"},
		{"seeded encryption", SchemeCKKSSeeded, MarshalSeededCKKS(sct),
			"fc0fb5a29b59c1cd87a059d612dc2af005879574148a67e0c831d21421e28623", "832f80feb93484ed72d5858c9c250b83a1f9f7b3be10adab4e809b32ef9d0e9e"},
		{"RotateLeft", SchemeCKKS, MarshalCKKS(rot),
			"3730ad1cc98120cd176720562388bbaf4537ac3febb2438a41cdc2c4853dd630", "bd675154bfa4a146d946f109d8bcc4d1a38cb40fb647f96bd7d2548bfb3bf5de"},
		{"MulRelin+Rescale", SchemeCKKS, MarshalCKKS(sq),
			"16a9f167d4a3c05d4a17289c713cf295733c998f000aa452a592b8a79dbae76d", "55359d440d983e956d8e98e5f6f64afd8d6a72986530bcc2c2c6a658e3eb2042"},
		{"RotateSumLazy", SchemeCKKS, MarshalCKKS(sum),
			"43f4e20dc196156f41efb0e84ba7da4b09d466666b1ba81f77a3e8a4afea4b9c", "cbf6e12a1b8bf2a987f506d9272cf424f9b0f247fdbfb9d4dbbebe85a3acaae2"},
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
// errors moved too; and again when the error sampler became the table
// sampler, which changed every B's error.
func TestKeyBundleGoldenHashes(t *testing.T) {
	bctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	bkg := bfv.NewKeyGenerator(bctx, [32]byte{7, 8, 9})
	bsk := bkg.GenSecretKey()
	bkb := &KeyBundle{PK: bkg.GenPublicKey(bsk), Relin: bkg.GenRelinearizationKey(bsk), Galois: bkg.GenRotationKeys(bsk, 1, -3)}
	data := MarshalKeyBundle(bkb)
	if got := sha(data); len(bkb.Galois) != 3 || got != "2be2694fd713cda8f9881843a0bccf19c50446ca0f509e3340b31c4bd476fa07" {
		t.Errorf("BFV key bundle (%d Galois keys) hash drifted: %s", len(bkb.Galois), got)
	}
	if back, err := UnmarshalKeyBundle(bctx, data); err != nil {
		t.Error(err)
	} else if got := sha(wordBundle(v1KeyBundleMagic, back)); got != "c0c4123525bb1731400a2da4158b806862cda122cf45548a6e1b2caa52e621eb" {
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
	if got := sha(data); len(ckb.Galois) != 3 || got != "1db8b5e1edd9b3a0051b412d7a815945cf494c5668c010f2d282884185fb62c4" {
		t.Errorf("CKKS key bundle (%d Galois keys) hash drifted: %s", len(ckb.Galois), got)
	}
	if back, err := UnmarshalCKKSKeyBundle(cctx, data); err != nil {
		t.Error(err)
	} else if got := sha(wordBundle(v1CKKSBundleMagic, (*KeyBundle)(back))); got != "bafbf1dcbd69a81cb2d04e696ce48429017bf653c55c2fb030215b0047e55d90" {
		t.Errorf("the decoded CKKS keys are not the pinned ones: %s", got)
	}
}
