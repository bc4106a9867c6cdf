package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// A key bundle is the per-session half of the trust boundary: its
// polynomials become the fixed operands of every key switch the session
// runs, its digit counts and Galois elements index the inner product and
// the permutation tables. These tests pin that the one decoder lets
// nothing through that the evaluators would have to trust.

// bundleFixture is one valid bundle per scheme at the test presets (public
// key, relinearization key, three Galois keys) with its decoder.
type bundleFixture struct {
	name   string
	core   *rlwe.Context
	frame  []byte
	decode func([]byte) (*KeyBundle, error)
}

func newBundleFixtures(t testing.TB) []bundleFixture {
	t.Helper()
	bctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	bkg := bfv.NewKeyGenerator(bctx, [32]byte{7, 8, 9})
	bsk := bkg.GenSecretKey()
	bkb := &KeyBundle{PK: bkg.GenPublicKey(bsk), Relin: bkg.GenRelinearizationKey(bsk), Galois: bkg.GenRotationKeys(bsk, 1, -3)}

	cctx, err := ckks.NewContext(ckks.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	ckg := ckks.NewKeyGenerator(cctx, [32]byte{7, 8, 9})
	csk := ckg.GenSecretKey()
	ckb := &CKKSKeyBundle{PK: ckg.GenPublicKey(csk), Relin: ckg.GenRelinearizationKey(csk), Galois: ckg.GenRotationKeys(csk, 1, -3)}

	return []bundleFixture{
		{"bfv", bctx.Context, MarshalKeyBundle(bkb), func(b []byte) (*KeyBundle, error) { return UnmarshalKeyBundle(bctx, b) }},
		{"ckks", cctx.Context, MarshalCKKSKeyBundle(ckb), func(b []byte) (*KeyBundle, error) {
			kb, err := UnmarshalCKKSKeyBundle(cctx, b)
			return (*KeyBundle)(kb), err
		}},
	}
}

// bundleLayout locates the fields of a bundle with a relinearization key.
// A switching key is its digit count, its seed, then one key-ring
// polynomial (the B half) per digit.
type bundleLayout struct {
	polyQ, polyQP, swk int // encoded sizes: a data-ring poly, a key-ring poly, a switching key
	relinFlag          int // offset of the relinearization flag
	relinKey           int // offset of the relinearization key (its digit count)
	galoisCount        int // offset of the Galois key count
}

func layoutOf(core *rlwe.Context) bundleLayout {
	nData := len(core.RingQ.Moduli)
	l := bundleLayout{polyQ: polyHeaderBytes + core.RingQ.PackedBytes(), polyQP: polyHeaderBytes + core.RingQP.PackedBytes()}
	l.swk = 4 + seedBytes + nData*l.polyQP
	l.relinFlag = 4 + 2*l.polyQ
	l.relinKey = l.relinFlag + 4
	l.galoisCount = l.relinKey + l.swk
	return l
}

// galoisKey returns the offset of the i-th Galois entry (its element).
func (l bundleLayout) galoisKey(i int) int { return l.galoisCount + 4 + i*(8+l.swk) }

// seed and firstB return the offsets of the seed and of the first B
// polynomial of the switching key whose digit count is at key.
func seed(key int) int   { return key + 4 }
func firstB(key int) int { return key + 4 + seedBytes }

func TestUnmarshalKeyBundleRejectsHostileBundles(t *testing.T) {
	for _, f := range newBundleFixtures(t) {
		l := layoutOf(f.core)
		qp := f.core.RingQP
		q := qp.Moduli
		twoN := uint64(2 * f.core.RingQ.N)
		firstElement := binary.LittleEndian.Uint64(f.frame[l.galoisKey(0):])
		firstGaloisB := firstB(l.galoisKey(0) + 8) // first key poly of the first Galois key
		lastGalois := l.galoisKey(2) + 8           // digit count of the last Galois key

		for _, tc := range []struct {
			name  string
			frame []byte
			want  string // substring of the error; "" means the bundle is valid
		}{
			{"valid", f.frame, ""},
			{"largest residue q-1", mutated(f.frame, withResidue(qp, firstGaloisB+polyHeaderBytes, 0, 0, q[0].Value-1)), ""},
			{"wrong magic", mutated(f.frame, setU32(0, helloMagic)), "key bundle"},
			// Version 2 shipped every A beside its B; its magics are named.
			{"magic CHK2", mutated(f.frame, setU32(0, 0x324b4843)), "version-2 key bundle (CHK2)"},
			{"magic CHC2", mutated(f.frame, setU32(0, 0x32434843)), "version-2 key bundle (CHC2)"},
			{"public key residue = q0", mutated(f.frame, withResidue(f.core.RingQ, 4+polyHeaderBytes, 0, 0, q[0].Value)), "not reduced"},
			{"relin key field of all ones", mutated(f.frame, withResidue(qp, firstB(l.relinKey)+polyHeaderBytes, 0, 1, allOnes(qp, 0))), "not reduced"},
			{"another relin seed", mutated(f.frame, setU64(seed(l.relinKey), 1)), ""},
			{"Galois key special-prime residue = p", mutated(f.frame, withResidue(qp, firstGaloisB+polyHeaderBytes, len(q)-1, qp.N-1, q[len(q)-1].Value)), "not reduced"},
			{"public key flagged coefficient-domain", mutated(f.frame, setU32(4+8, 0)), "NTT"},
			{"Galois key poly NTT flag 2", mutated(f.frame, setU32(firstGaloisB+8, 2)), "NTT"},
			{"key poly with one residue row too few", mutated(f.frame, setU32(firstGaloisB, uint32(len(q)-1))), "shape"},
			{"relin key with one digit", mutated(f.frame, setU32(l.relinKey, 1)), "digits"},
			{"Galois key with three digits", mutated(f.frame, setU32(l.galoisKey(0)+8, 3)), "digits"},
			{"Galois key with zero digits", mutated(f.frame, setU32(l.galoisKey(1)+8, 0)), "digits"},
			// 2³²−1 digits would be 2³²−1 polynomials to expand: the count is
			// refused before the seed is read, let alone expanded.
			{"Galois key with 2^32-1 digits", mutated(f.frame, setU32(lastGalois, ^uint32(0))), "digits"},
			{"relin flag 2", mutated(f.frame, setU32(l.relinFlag, 2)), "relinearization flag"},
			{"Galois element even", mutated(f.frame, setU64(l.galoisKey(0), 4)), "Galois element"},
			{"Galois element 2N+1", mutated(f.frame, setU64(l.galoisKey(2), twoN+1)), "Galois element"},
			{"Galois element repeated", mutated(f.frame, setU64(l.galoisKey(1), firstElement)), "Galois element"},
			{"Galois count 2^20", mutated(f.frame, setU32(l.galoisCount, 1<<20)), "implausible"},
			{"Galois count one too many", mutated(f.frame, setU32(l.galoisCount, 4)), "truncated"},
			{"Galois count one too few", mutated(f.frame, setU32(l.galoisCount, 2)), "trailing"},
			{"truncated inside a key poly", f.frame[:firstGaloisB+100], "truncated"},
			{"truncated inside a poly header", f.frame[:firstGaloisB+6], "truncated"},
			{"truncated inside a Galois element", f.frame[:l.galoisKey(1)+3], "truncated"},
			{"truncated inside a seed", f.frame[:seed(lastGalois)+seedBytes/2], "truncated"},
			{"a seed and no B rows after it", f.frame[:firstB(lastGalois)], "truncated"},
			{"truncated inside the relin seed", f.frame[:seed(l.relinKey)+1], "truncated"},
			{"one trailing byte", append(append([]byte(nil), f.frame...), 0), "trailing"},
			{"one word short", f.frame[:len(f.frame)-8], "truncated"},
			{"one word long", append(append([]byte(nil), f.frame...), make([]byte, 8)...), "trailing"},
		} {
			kb, err := f.decode(tc.frame)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s/%s: rejected a valid bundle: %v", f.name, tc.name, err)
			case tc.want == "":
				checkBundle(t, f.core, kb)
			case err == nil:
				t.Errorf("%s/%s: accepted the bundle", f.name, tc.name)
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s/%s: failed with %q, want the %q check to fire", f.name, tc.name, err, tc.want)
			}
		}

		// What a decoder accepts it writes back byte for byte: the writer's
		// element order is canonical.
		kb, err := f.decode(f.frame)
		if err != nil {
			t.Fatal(err)
		}
		if magic := binary.LittleEndian.Uint32(f.frame); !bytes.Equal(marshalBundle(magic, kb), f.frame) {
			t.Errorf("%s: a decoded bundle does not re-marshal to the bytes it came from", f.name)
		}
	}
}

// TestDecodedKeysAreTheGeneratedKeys: a bundle carries B and a seed, and
// the decoder expands A from the seed; every digit of every key it
// returns is, polynomial for polynomial, the one the generator made —
// both schemes, at the test presets and at bfv-B.
func TestDecodedKeysAreTheGeneratedKeys(t *testing.T) {
	type keys struct {
		name   string
		core   *rlwe.Context
		kb     *KeyBundle
		decode func([]byte) (*KeyBundle, error)
		frame  []byte
	}
	var cases []keys
	for name, params := range map[string]bfv.Parameters{"bfv-Test": bfv.PresetTest(), "bfv-B": bfv.PresetB()} {
		ctx, err := bfv.NewContext(params)
		if err != nil {
			t.Fatal(err)
		}
		kg := bfv.NewKeyGenerator(ctx, [32]byte{3, 1, 4})
		sk := kg.GenSecretKey()
		kb := &KeyBundle{PK: kg.GenPublicKey(sk), Relin: kg.GenRelinearizationKey(sk), Galois: kg.GenRotationKeys(sk, 1, -3, 16)}
		cases = append(cases, keys{name, ctx.Context, kb, func(b []byte) (*KeyBundle, error) { return UnmarshalKeyBundle(ctx, b) }, MarshalKeyBundle(kb)})
	}
	cctx, err := ckks.NewContext(ckks.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	ckg := ckks.NewKeyGenerator(cctx, [32]byte{3, 1, 4})
	csk := ckg.GenSecretKey()
	ckb := &CKKSKeyBundle{PK: ckg.GenPublicKey(csk), Relin: ckg.GenRelinearizationKey(csk), Galois: ckg.GenRotationKeys(csk, 1, -3, 16)}
	cases = append(cases, keys{"ckks-Test", cctx.Context, (*KeyBundle)(ckb), func(b []byte) (*KeyBundle, error) {
		kb, err := UnmarshalCKKSKeyBundle(cctx, b)
		return (*KeyBundle)(kb), err
	}, MarshalCKKSKeyBundle(ckb)})

	for _, c := range cases {
		back, err := c.decode(c.frame)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rQ, rQP := c.core.RingQ, c.core.RingQP
		if !rQ.Equal(back.PK.P0, c.kb.PK.P0) || !rQ.Equal(back.PK.P1, c.kb.PK.P1) {
			t.Errorf("%s: the decoded public key is not the generated one", c.name)
		}
		same := func(what string, got, want *rlwe.SwitchingKey) {
			if got.Seed != want.Seed || len(got.B) != len(want.B) || len(got.A) != len(want.A) {
				t.Fatalf("%s %s: seed or digit count differs", c.name, what)
			}
			for i := range want.B {
				if !rQP.Equal(got.B[i], want.B[i]) || got.B[i].IsNTT() != want.B[i].IsNTT() {
					t.Errorf("%s %s digit %d: B differs", c.name, what, i)
				}
				if !rQP.Equal(got.A[i], want.A[i]) || got.A[i].IsNTT() != want.A[i].IsNTT() {
					t.Errorf("%s %s digit %d: the expanded A is not the generated one", c.name, what, i)
				}
			}
		}
		same("relinearization key", back.Relin.Key, c.kb.Relin.Key)
		if len(back.Galois) != len(c.kb.Galois) {
			t.Fatalf("%s: %d Galois keys decoded, %d generated", c.name, len(back.Galois), len(c.kb.Galois))
		}
		for g, gk := range c.kb.Galois {
			same(fmt.Sprintf("Galois key %d", g), back.Galois[g].Key, gk.Key)
		}
	}
}

// TestKeyBundleBytesIsTheMarshalledSize holds the size function that
// nn.EvaluationKeyFootprint reports from to the bundle that is sent, with
// and without a relinearization key and a special prime.
func TestKeyBundleBytesIsTheMarshalledSize(t *testing.T) {
	for _, params := range []bfv.Parameters{bfv.PresetTest(), {LogN: 11, QBits: []int{36, 37}, TBits: 16, Sigma: 3.2}} {
		ctx, err := bfv.NewContext(params)
		if err != nil {
			t.Fatal(err)
		}
		kg := bfv.NewKeyGenerator(ctx, [32]byte{5})
		sk := kg.GenSecretKey()
		kb := &KeyBundle{PK: kg.GenPublicKey(sk), Galois: map[uint64]*bfv.GaloisKey{}}
		check := func(relin bool) {
			t.Helper()
			want := KeyBundleBytes(params.N(), params.QBits, params.PBits, relin, len(kb.Galois))
			data := MarshalKeyBundle(kb)
			if len(data) != want || cap(data) != want {
				t.Errorf("%v: bundle (relin %v, %d Galois keys) is %d B in a buffer of %d, KeyBundleBytes says %d", params.QBits, relin, len(kb.Galois), len(data), cap(data), want)
			}
		}
		check(false)
		if params.PBits == 0 {
			continue // key switching needs the special prime
		}
		kb.Relin = kg.GenRelinearizationKey(sk)
		check(true)
		kb.Galois = kg.GenRotationKeys(sk, 1, -3)
		check(true)
	}
	// At the test preset a key is 4 + 32 + 2·(12 + 30 976) B, where it was
	// 4 + 4·(12 + 30 976) with A on the wire: 289 068 B for the fixture
	// bundle (relinearization and three Galois keys), not 536 844.
	if got := KeyBundleBytes(2048, []int{40, 40}, 41, true, 3); got != 289068 {
		t.Errorf("the test-preset fixture bundle is %d B by KeyBundleBytes, want 289068", got)
	}
}

// TestShortGaloisKeyIsRefusedNotIndexed is the defect the digit check
// closes: a well-formed bundle whose Galois key carries fewer digits than
// the context has data primes used to decode, and the first rotation then
// indexed the missing digit inside the key-switch inner product — a panic
// from outside input.
func TestShortGaloisKeyIsRefusedNotIndexed(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{7, 8, 9})
	sk := kg.GenSecretKey()
	galois := kg.GenRotationKeys(sk, 1)
	for _, gk := range galois {
		gk.Key = &bfv.SwitchingKey{B: gk.Key.B[:1], A: gk.Key.A[:1]}
	}
	frame := MarshalKeyBundle(&KeyBundle{PK: kg.GenPublicKey(sk), Galois: galois})
	if _, err := UnmarshalKeyBundle(ctx, frame); err == nil || !strings.Contains(err.Error(), "digits") {
		t.Fatalf("bundle with a one-digit Galois key: err = %v, want the digit-count check", err)
	}
}

// checkRows asserts p has r's shape and canonical residues.
func checkRows(t *testing.T, r *ring.Ring, p *ring.Poly) {
	t.Helper()
	if len(p.Coeffs) != len(r.Moduli) {
		t.Fatalf("decoded a key polynomial of %d residue rows, ring has %d", len(p.Coeffs), len(r.Moduli))
	}
	for i, row := range p.Coeffs {
		if len(row) != r.N {
			t.Fatalf("row %d has %d words, want N = %d", i, len(row), r.N)
		}
		for j, v := range row {
			if v >= r.Moduli[i].Value {
				t.Fatalf("residue [%d][%d] = %d is not reduced mod %d", i, j, v, r.Moduli[i].Value)
			}
		}
	}
}

// checkBundle asserts what the evaluators assume of a decoded bundle.
func checkBundle(t *testing.T, core *rlwe.Context, kb *KeyBundle) {
	t.Helper()
	checkKey := func(swk *rlwe.SwitchingKey) {
		if len(swk.B) != len(core.RingQ.Moduli) || len(swk.A) != len(swk.B) {
			t.Fatalf("decoded a switching key of %d/%d digits", len(swk.B), len(swk.A))
		}
		for i := range swk.B {
			for _, p := range []*ring.Poly{swk.B[i], swk.A[i]} {
				if !p.IsNTT() {
					t.Fatal("decoded a coefficient-domain key polynomial")
				}
				checkRows(t, core.RingQP, p)
			}
		}
	}
	for _, p := range []*ring.Poly{kb.PK.P0, kb.PK.P1} {
		if !p.IsNTT() {
			t.Fatal("decoded a coefficient-domain public key")
		}
		checkRows(t, core.RingQ, p)
	}
	if kb.Relin != nil {
		checkKey(kb.Relin.Key)
	}
	for g, gk := range kb.Galois {
		if g%2 == 0 || g >= uint64(2*core.RingQ.N) || gk.GaloisElement != g {
			t.Fatalf("decoded Galois element %d (key says %d)", g, gk.GaloisElement)
		}
		checkKey(gk.Key)
	}
}

// FuzzUnmarshalKeyBundle throws arbitrary bytes, seeded from valid
// bundles of both schemes, at the key-bundle decoder: the outcome is an
// error or a bundle that satisfies the evaluators' assumptions — never a
// panic, never an out-of-range residue or index.
func FuzzUnmarshalKeyBundle(f *testing.F) {
	fixtures := newBundleFixtures(f)
	for _, fx := range fixtures {
		l := layoutOf(fx.core)
		f.Add(fx.frame)
		f.Add(fx.frame[:l.galoisKey(1)+3])
		f.Add(fx.frame[:firstB(l.galoisKey(0)+8)])
		f.Add(mutated(fx.frame, setU32(l.relinKey, ^uint32(0))))
		f.Add(mutated(fx.frame, setU64(seed(l.relinKey), ^uint64(0))))
		f.Add(mutated(fx.frame, setU32(l.galoisKey(0)+8, 1)))
		f.Add(mutated(fx.frame, setU64(l.galoisKey(0), 4)))
		f.Add(mutated(fx.frame, setU64(len(fx.frame)-8, ^uint64(0))))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fx := range fixtures {
			if kb, err := fx.decode(data); err == nil {
				checkBundle(t, fx.core, kb)
			}
		}
	})
}
