package ckks

import (
	"testing"

	"choco/internal/par"
)

// TestClientPipelineParallelDeterminism pins that the fused
// per-residue CKKS encrypt/decrypt pipelines are byte-identical
// whether the residue fan-out runs serially or across the full worker
// pool.
func TestClientPipelineParallelDeterminism(t *testing.T) {
	run := func(workers int) ([][]uint64, []uint64) {
		old := par.Parallelism()
		par.SetParallelism(workers)
		defer par.SetParallelism(old)
		kit := newTestKit(t, PresetTest())
		ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
		if err != nil {
			t.Fatal(err)
		}
		ct2, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots())) // stream continuation
		if err != nil {
			t.Fatal(err)
		}
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
			t.Fatalf("phase coeff %d: serial %d != parallel %d", j, serialPt[j], parPt[j])
		}
	}
}

// TestEncryptDecryptIntoAllocs asserts the steady-state CKKS client
// kernel is allocation-free after warmup, mirroring the BFV twin.
func TestEncryptDecryptIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	old := par.Parallelism()
	par.SetParallelism(1) // serial fallback: no goroutine or closure overhead
	defer par.SetParallelism(old)
	kit := newTestKit(t, PresetTest())
	pt, err := kit.ecd.EncodeFloats(rampFloats(kit.ctx.Params.Slots()),
		kit.ctx.Params.MaxLevel(), kit.ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := kit.enc.Encrypt(pt)
	out := &Plaintext{Poly: kit.ctx.RingQ.NewPoly()}
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
	sym := NewSymmetricEncryptor(kit.ctx, kit.sk, [32]byte{72})
	sym.EncryptSeeded(pt)
	returned := testing.AllocsPerRun(16, func() { seededSink = &SeededCiphertext{C0: kit.ctx.RingQ.NewPoly()} })
	if a := testing.AllocsPerRun(16, func() { seededSink = sym.EncryptSeeded(pt) }); a > returned+1 {
		t.Errorf("EncryptSeeded allocates %.1f objects/op, the ciphertext it returns is %.1f", a, returned)
	}
}

// seededSink keeps the measured allocations from being optimized away.
var seededSink *SeededCiphertext
