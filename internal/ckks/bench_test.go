package ckks

import "testing"

func benchFloats(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%100)/25 - 2
	}
	return v
}

func BenchmarkEncryptPresetC(b *testing.B) {
	kit := newTestKit(b, PresetC())
	pt, _ := kit.ecd.EncodeFloats(benchFloats(kit.ctx.Params.Slots()),
		kit.ctx.Params.MaxLevel(), kit.ctx.Params.DefaultScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kit.enc.Encrypt(pt)
	}
}

func benchEncode(b *testing.B, params Parameters) {
	kit := newTestKit(b, params)
	vals := benchFloats(kit.ctx.Params.Slots())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kit.ecd.EncodeFloats(vals, kit.ctx.Params.MaxLevel(), kit.ctx.Params.DefaultScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecryptDecode(b *testing.B, params Parameters) {
	kit := newTestKit(b, params)
	ct, _ := kit.enc.EncryptFloats(benchFloats(kit.ctx.Params.Slots()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kit.dec.DecryptFloats(ct)
	}
}

func BenchmarkEncodePresetC(b *testing.B)               { benchEncode(b, PresetC()) }
func BenchmarkDecryptDecodePresetC(b *testing.B)        { benchDecryptDecode(b, PresetC()) }
func BenchmarkEncodePresetDistance(b *testing.B)        { benchEncode(b, presetDistance()) }
func BenchmarkDecryptDecodePresetDistance(b *testing.B) { benchDecryptDecode(b, presetDistance()) }

func BenchmarkMulRelinRescaleTest(b *testing.B) {
	kit := newTestKit(b, PresetTest())
	ct, _ := kit.enc.EncryptFloats(benchFloats(64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod, err := kit.ev.MulRelin(ct, ct)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kit.ev.Rescale(prod); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRotatePresetTest(b *testing.B) {
	kit := newTestKit(b, PresetTest(), 1)
	ct, _ := kit.enc.EncryptFloats(benchFloats(64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kit.ev.RotateLeft(ct, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func ckksBatchSteps() []int { return []int{1, 2, 3, 4, 5, 6, 7, 8} }

// BenchmarkRotateBatch8SerialPresetTest is the unhoisted baseline for
// the hoisting before/after comparison: each rotation pays its own RNS
// decomposition.
func BenchmarkRotateBatch8SerialPresetTest(b *testing.B) {
	kit := newTestKit(b, PresetTest(), ckksBatchSteps()...)
	ct, _ := kit.enc.EncryptFloats(benchFloats(kit.ctx.Params.Slots()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range ckksBatchSteps() {
			if _, err := kit.ev.RotateLeft(ct, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRotateBatch8HoistedPresetTest shares one decomposition
// across the batch.
func BenchmarkRotateBatch8HoistedPresetTest(b *testing.B) {
	kit := newTestKit(b, PresetTest(), ckksBatchSteps()...)
	ct, _ := kit.enc.EncryptFloats(benchFloats(kit.ctx.Params.Slots()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kit.ev.RotateLeftHoisted(ct, ckksBatchSteps()); err != nil {
			b.Fatal(err)
		}
	}
}
