package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ckks"
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

	if got := binary.LittleEndian.Uint32(data[0:]); got != SchemeBFV {
		t.Errorf("scheme tag %d", got)
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
	if len(data) != headerBytes+ctx.Params.CiphertextBytes() {
		t.Errorf("total length %d", len(data))
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

// TestBFVCiphertextGoldenHashes pins SHA-256 digests of wire-format
// ciphertexts captured from the pre-optimization (serial, allocating,
// big.Int) client kernel. The fused per-residue encryption pipeline,
// the block-batched samplers, and every future client-kernel change
// must reproduce these bytes exactly: randomness derivation, sampling
// stream order, RNS arithmetic, and wire layout are all pinned at once.
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
	if got := fmt.Sprintf("%x", sha256.Sum256(MarshalBFV(ct))); got != "a0246c63ffb2b93c1c251365aff2ffda4bf840639ed7ca0f41e2e53159d09195" {
		t.Errorf("public encryption hash drifted: %s", got)
	}
	sym := bfv.NewSymmetricEncryptor(ctx, sk, [32]byte{71})
	sct, err := sym.EncryptUintsSeeded(vals)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(MarshalSeededBFV(sct))); got != "e09a81f99bccb067a684673039e331bd984a72dd740c5e32a36db9844bfdcd90" {
		t.Errorf("seeded encryption hash drifted: %s", got)
	}
	// A second encryption continues the sampling stream — pins
	// cross-call sampler state, not just the first draw.
	ct2 := enc.EncryptZero()
	if got := fmt.Sprintf("%x", sha256.Sum256(MarshalBFV(ct2))); got != "5d613f67a909de05a62c0604788204da4901c776369212ca23f4def40d78a2ea" {
		t.Errorf("second public encryption hash drifted: %s", got)
	}
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestCKKSGoldenHashes is the CKKS twin of the BFV pins above, and goes
// further down the stack: besides the two client encryptions it pins the
// output bytes of one rotation, one multiply-relinearise-rescale and one
// lazy rotation sum, so the key generator, the key-switch core at the top
// level and one level below it, and the QP accumulator are all held to
// the bytes they produced when these digests were taken.
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
	for _, c := range []struct{ name, got, want string }{
		{"public encryption", sha(MarshalCKKS(ct)), "14b5a75353b3c41dc3d37dfcfc9abf062062e90790b7860e6e69e2a14334579f"},
		{"seeded encryption", sha(MarshalSeededCKKS(sct)), "2b7489c280b5634c18bd858f9d743c848c9d548259686997bda197ac7979c2ef"},
		{"RotateLeft", sha(MarshalCKKS(rot)), "b36ae61825b188ef221594db1e379e4d9cee6ee402fed8e4a37d624e8c7c871a"},
		{"MulRelin+Rescale", sha(MarshalCKKS(sq)), "0520beb0723b9da48f9589a7e4e78f0f1979695da3aa71cbc2dc01c29ffd6803"},
		{"RotateSumLazy", sha(MarshalCKKS(sum)), "6ba864b189293334764ba4ae95d7c4e706d576a6d7f740a54e3920fc9cc3fb50"},
	} {
		if c.got != c.want {
			t.Errorf("%s hash drifted: %s", c.name, c.got)
		}
	}
}

// TestKeyBundleGoldenHashes pins a whole evaluation-key bundle per scheme
// (public key, relinearisation key, three Galois keys): every sampling
// label, the gadget term and the bundle layout. Possible only because the
// Galois keys are written in ascending element order.
func TestKeyBundleGoldenHashes(t *testing.T) {
	bctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	bkg := bfv.NewKeyGenerator(bctx, [32]byte{7, 8, 9})
	bsk := bkg.GenSecretKey()
	bkb := &KeyBundle{PK: bkg.GenPublicKey(bsk), Relin: bkg.GenRelinearizationKey(bsk), Galois: bkg.GenRotationKeys(bsk, 1, -3)}
	if got := sha(MarshalKeyBundle(bkb)); len(bkb.Galois) != 3 || got != "c2cbc2421b13258d8968d7b17a295c651844ba2b343c0d1eefe836a958839079" {
		t.Errorf("BFV key bundle (%d Galois keys) hash drifted: %s", len(bkb.Galois), got)
	}

	cctx, err := ckks.NewContext(ckks.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	ckg := ckks.NewKeyGenerator(cctx, [32]byte{7, 8, 9})
	csk := ckg.GenSecretKey()
	ckb := &CKKSKeyBundle{PK: ckg.GenPublicKey(csk), Relin: ckg.GenRelinearizationKey(csk), Galois: ckg.GenRotationKeys(csk, 1, -3)}
	if got := sha(MarshalCKKSKeyBundle(ckb)); len(ckb.Galois) != 3 || got != "66588490a268fd47711223a01eba3284caf6be0a5d7d8573f2c36c7105944170" {
		t.Errorf("CKKS key bundle (%d Galois keys) hash drifted: %s", len(ckb.Galois), got)
	}
}
