package bfv

import (
	"testing"

	"choco/internal/par"
)

// TestClientPipelineParallelDeterminism pins that the fused
// per-residue encryption pipeline and the pooled decryption path are
// byte-identical whether the residue fan-out runs serially or across
// the full worker pool.
func TestClientPipelineParallelDeterminism(t *testing.T) {
	run := func(workers int) ([][]uint64, []uint64) {
		old := par.Parallelism()
		par.SetParallelism(workers)
		defer par.SetParallelism(old)
		kit := newTestKit(t, PresetTest())
		vals := rampUints(kit.ctx.Params.N(), kit.ctx.T.Value)
		ct, err := kit.enc.EncryptUints(vals)
		if err != nil {
			t.Fatal(err)
		}
		ct2 := kit.enc.EncryptZero() // second call: stream continuation
		var rows [][]uint64
		for _, p := range append(ct.Value, ct2.Value...) {
			rows = append(rows, p.Coeffs...)
		}
		return rows, kit.dec.Decrypt(ct).Poly.Coeffs[0]
	}
	serialRows, serialPt := run(1)
	parRows, parPt := run(8)
	if len(serialRows) != len(parRows) {
		t.Fatal("row count mismatch")
	}
	for i := range serialRows {
		for j := range serialRows[i] {
			if serialRows[i][j] != parRows[i][j] {
				t.Fatalf("ciphertext row %d coeff %d: serial %d != parallel %d",
					i, j, serialRows[i][j], parRows[i][j])
			}
		}
	}
	for j := range serialPt {
		if serialPt[j] != parPt[j] {
			t.Fatalf("plaintext coeff %d: serial %d != parallel %d", j, serialPt[j], parPt[j])
		}
	}
}

// TestEncryptDecryptIntoAllocs asserts the steady-state client kernel
// is allocation-free: after warmup, EncryptInto and DecryptInto at
// preset B must show ~0 amortized allocations per op (the CHOCO-TACO
// software analogue — the client loop never touches the heap).
func TestEncryptDecryptIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	old := par.Parallelism()
	par.SetParallelism(1) // serial fallback: no goroutine or closure overhead
	defer par.SetParallelism(old)
	kit := newTestKit(t, PresetB())
	pt, err := kit.ecd.EncodeUints(rampUints(kit.ctx.Params.N(), kit.ctx.T.Value))
	if err != nil {
		t.Fatal(err)
	}
	ct := kit.enc.Encrypt(pt)
	out := &Plaintext{Poly: kit.ctx.RingT.NewPoly()}
	for i := 0; i < 4; i++ { // warm the ring scratch pools
		kit.enc.EncryptInto(pt, ct)
		kit.dec.DecryptInto(ct, out)
	}
	if a := testing.AllocsPerRun(16, func() { kit.enc.EncryptInto(pt, ct) }); a > 1 {
		t.Errorf("EncryptInto allocates %.1f objects/op, want ~0", a)
	}
	if a := testing.AllocsPerRun(16, func() { kit.dec.DecryptInto(ct, out) }); a > 1 {
		t.Errorf("DecryptInto allocates %.1f objects/op, want ~0", a)
	}

	// The seeded upload path runs the same fused rows: beyond the
	// ciphertext it returns (its struct and one polynomial) it may allocate
	// what the Into kernels do, nothing per polynomial.
	sym := NewSymmetricEncryptor(kit.ctx, kit.sk, [32]byte{71})
	sym.EncryptSeeded(pt)
	returned := testing.AllocsPerRun(16, func() { seededSink = &SeededCiphertext{C0: kit.ctx.RingQ.NewPoly()} })
	if a := testing.AllocsPerRun(16, func() { seededSink = sym.EncryptSeeded(pt) }); a > returned+1 {
		t.Errorf("EncryptSeeded allocates %.1f objects/op, the ciphertext it returns is %.1f", a, returned)
	}
}

// seededSink keeps the measured allocations from being optimized away.
var seededSink *SeededCiphertext

// TestEncodeDecodeModSwitchAllocs holds the client's slot encode and
// decode and the reply's ModSwitchDown to the objects they return plus a
// fixed few: nothing per slot or per coefficient. At preset B, N = 8192
// slots and two 8192-coefficient components, so a per-coefficient object
// shows as thousands.
func TestEncodeDecodeModSwitchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	old := par.Parallelism()
	par.SetParallelism(1)
	defer par.SetParallelism(old)
	kit := newTestKit(t, PresetB())
	values := rampUints(kit.ctx.Params.N(), kit.ctx.T.Value)
	pt, err := kit.ecd.EncodeUints(values)
	if err != nil {
		t.Fatal(err)
	}
	ct := kit.enc.Encrypt(pt)
	for i := 0; i < 4; i++ { // warm the ring scratch pools
		kit.ecd.EncodeUints(values)
		kit.ecd.DecodeInts(pt)
		kit.ev.ModSwitchDown(ct)
	}
	for _, c := range []struct {
		name  string
		limit float64
		run   func()
	}{
		{"EncodeUints", 8, func() { kit.ecd.EncodeUints(values) }},
		{"DecodeInts", 8, func() { kit.ecd.DecodeInts(pt) }},
		{"ModSwitchDown", 16, func() { kit.ev.ModSwitchDown(ct) }},
	} {
		a := testing.AllocsPerRun(16, c.run)
		t.Logf("%s: %.1f objects/op", c.name, a)
		if a > c.limit {
			t.Errorf("%s allocates %.1f objects/op, want at most %.0f", c.name, a, c.limit)
		}
	}
}
