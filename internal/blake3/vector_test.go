package blake3

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// withVector runs f twice, once with vector kernels forced off and once
// with whatever the host supports, restoring the prior state after.
// The bool passed to f reports whether the vector path is actually
// live, so tests can skip redundant comparisons on scalar-only hosts.
func withVector(t *testing.T, f func(t *testing.T, vec bool)) {
	t.Helper()
	prev := VectorKernelsEnabled()
	defer SetVectorKernels(prev)
	SetVectorKernels(false)
	f(t, false)
	if SetVectorKernels(true) {
		f(t, true)
	}
}

func xofPair() (*XOF, *XOF) {
	var key [32]byte
	for i := range key {
		key[i] = byte(i*7 + 3)
	}
	seed := []byte("vector equivalence seed material, longer than one block to cross a chunk boundary boundary boundary")
	return NewXOF(key, seed), NewXOF(key, seed)
}

// TestFillVectorScalarIdentical squeezes the same XOF through the
// scalar and vector Fill paths at sizes straddling every dispatch
// boundary (under one block, under the 8-block kernel threshold, exact
// kernel multiples, and ragged tails) and requires byte identity.
func TestFillVectorScalarIdentical(t *testing.T) {
	sizes := []int{1, 63, 64, 65, 511, 512, 513, 1024, 4096, 4097, 8192 + 37}
	for _, size := range sizes {
		ref, _ := xofPair()
		SetVectorKernels(false)
		want := make([]byte, size)
		ref.Fill(want)
		if on := SetVectorKernels(true); !on {
			t.Skip("no vector kernels on this host/build")
		}
		vec, _ := xofPair()
		got := make([]byte, size)
		vec.Fill(got)
		SetVectorKernels(false)
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("size %d: first divergence at byte %d: got %#x want %#x", size, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFillVectorUnalignedHead interposes a small read so the vector
// body starts with a drained staging buffer mid-stream, then checks
// the continuation still matches the scalar stream.
func TestFillVectorUnalignedHead(t *testing.T) {
	for _, head := range []int{1, 7, 63, 64, 100} {
		ref, _ := xofPair()
		SetVectorKernels(false)
		want := make([]byte, head+2048)
		ref.Fill(want)

		if on := SetVectorKernels(true); !on {
			t.Skip("no vector kernels on this host/build")
		}
		vec, _ := xofPair()
		got := make([]byte, head+2048)
		vec.Fill(got[:head])
		vec.Fill(got[head:])
		SetVectorKernels(false)
		if !bytes.Equal(got, want) {
			t.Fatalf("head %d: stream diverges after unaligned prefix", head)
		}
	}
}

// TestFillUint64VectorScalarIdentical checks the word-typed bulk path
// against the scalar stream, including non-multiple-of-64 word counts
// and a staged (odd-byte) head.
func TestFillUint64VectorScalarIdentical(t *testing.T) {
	for _, n := range []int{1, 8, 63, 64, 65, 512, 513} {
		ref, _ := xofPair()
		SetVectorKernels(false)
		want := make([]uint64, n)
		ref.FillUint64(want)

		if on := SetVectorKernels(true); !on {
			t.Skip("no vector kernels on this host/build")
		}
		vec, _ := xofPair()
		got := make([]uint64, n)
		vec.FillUint64(got)
		SetVectorKernels(false)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: word %d: got %#x want %#x", n, i, got[i], want[i])
			}
		}
	}

	// Odd byte head first, then bulk words: exercises the staged-head
	// drain before the kernel takes over.
	ref, _ := xofPair()
	SetVectorKernels(false)
	var head [5]byte
	ref.Fill(head[:])
	want := make([]uint64, 200)
	ref.FillUint64(want)

	if on := SetVectorKernels(true); !on {
		t.Skip("no vector kernels on this host/build")
	}
	vec, _ := xofPair()
	var head2 [5]byte
	vec.Fill(head2[:])
	got := make([]uint64, 200)
	vec.FillUint64(got)
	SetVectorKernels(false)
	if head != head2 {
		t.Fatalf("head bytes diverge: %x vs %x", head, head2)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("after odd head: word %d: got %#x want %#x", i, got[i], want[i])
		}
	}
}

// squeezeWidths lists the vector squeeze widths this host runs, widest
// first, each with the wide16 setting that selects it; it is empty on a
// scalar-only host or build.
func squeezeWidths() []struct {
	name   string
	wide16 bool
} {
	type width = struct {
		name   string
		wide16 bool
	}
	if !vectorAvailable() {
		return nil
	}
	ws := []width{{"8-wide AVX2", false}}
	if wide16 {
		ws = append([]width{{"16-wide AVX-512", true}}, ws...)
	}
	return ws
}

// atWidth runs f with the vector squeeze on at one width, restoring the
// switch and the width selector afterwards.
func atWidth(t *testing.T, wide bool, f func()) {
	t.Helper()
	prevOn, prevWide := VectorKernelsEnabled(), wide16
	defer func() { SetVectorKernels(prevOn); wide16 = prevWide }()
	SetVectorKernels(true)
	wide16 = wide
	f()
}

// TestSqueezeWidthsMatchScalar holds every squeeze width the host has
// to the scalar stream, through Fill and FillUint64, at lengths around
// each kernel's group (1 024 and 512 bytes) and after an odd head, and
// logs the widths it compared.
func TestSqueezeWidthsMatchScalar(t *testing.T) {
	widths := squeezeWidths()
	if len(widths) == 0 {
		t.Skip("no vector squeeze on this host/build")
	}
	sizes := []int{511, 512, 1023, 1024, 1025, 1536, 1600, 2048 + 512 + 64 + 3, 16384}
	for _, w := range widths {
		t.Logf("comparing the %s squeeze with the scalar stream", w.name)
		for _, head := range []int{0, 5, 64} {
			for _, size := range sizes {
				ref, _ := xofPair()
				prev := SetVectorKernels(false)
				want := make([]byte, head+size)
				ref.Fill(want[:head])
				ref.Fill(want[head:])
				SetVectorKernels(prev)

				got := make([]byte, head+size)
				atWidth(t, w.wide16, func() {
					vec, _ := xofPair()
					vec.Fill(got[:head])
					vec.Fill(got[head:])
				})
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: head %d size %d: Fill diverges from the scalar stream", w.name, head, size)
				}

				words := size / 8
				ref, _ = xofPair()
				prev = SetVectorKernels(false)
				wantW := make([]uint64, words)
				ref.Fill(make([]byte, head))
				ref.FillUint64(wantW)
				SetVectorKernels(prev)
				gotW := make([]uint64, words)
				atWidth(t, w.wide16, func() {
					vec, _ := xofPair()
					vec.Fill(make([]byte, head))
					vec.FillUint64(gotW)
				})
				for i := range gotW {
					if gotW[i] != wantW[i] {
						t.Fatalf("%s: head %d, %d words: word %d is %#x, scalar %#x", w.name, head, words, i, gotW[i], wantW[i])
					}
				}
			}
		}
	}
}

// TestSqueezeCounterCarry starts each width's groups a few blocks below
// 2^32, so one kernel call holds lanes on both sides of the carry from
// the counter's low word into its high word.
func TestSqueezeCounterCarry(t *testing.T) {
	widths := squeezeWidths()
	if len(widths) == 0 {
		t.Skip("no vector squeeze on this host/build")
	}
	for _, w := range widths {
		for _, start := range []uint64{1<<32 - 16, 1<<32 - 5, 1<<32 - 1, 1 << 32, 2<<32 - 9} {
			ref, _ := xofPair()
			ref.counter = start
			prev := SetVectorKernels(false)
			want := make([]uint64, 3*128)
			ref.FillUint64(want)
			SetVectorKernels(prev)

			got := make([]uint64, len(want))
			gotB := make([]byte, 8*len(want))
			atWidth(t, w.wide16, func() {
				vec, _ := xofPair()
				vec.counter = start
				vec.FillUint64(got)
				vec, _ = xofPair()
				vec.counter = start
				vec.Fill(gotB)
			})
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: counter from %#x: word %d is %#x, scalar %#x", w.name, start, i, got[i], want[i])
				}
				if b := binary.LittleEndian.Uint64(gotB[8*i:]); b != want[i] {
					t.Fatalf("%s: counter from %#x: Fill word %d is %#x, scalar %#x", w.name, start, i, b, want[i])
				}
			}
		}
	}
}

// TestSetVectorKernelsReporting pins the kill-switch contract: off is
// always honored, on is clamped to hardware support.
func TestSetVectorKernelsReporting(t *testing.T) {
	prev := VectorKernelsEnabled()
	defer SetVectorKernels(prev)
	if SetVectorKernels(false) {
		t.Fatal("SetVectorKernels(false) reported enabled")
	}
	if VectorKernelsEnabled() {
		t.Fatal("kill-switch did not stick")
	}
	got := SetVectorKernels(true)
	if got != vectorAvailable() {
		t.Fatalf("SetVectorKernels(true)=%v, want hardware availability %v", got, vectorAvailable())
	}
}

func FuzzXOFFillVector(f *testing.F) {
	f.Add([]byte("seed"), uint16(700), uint8(3))
	f.Add([]byte{}, uint16(4096), uint8(0))
	f.Fuzz(func(t *testing.T, seed []byte, size uint16, head uint8) {
		if !vectorAvailable() {
			t.Skip("scalar-only build")
		}
		prev := VectorKernelsEnabled()
		defer SetVectorKernels(prev)
		var key [32]byte
		key[0] = 0x42
		n := int(size)
		h := int(head) % 65

		SetVectorKernels(false)
		ref := NewXOF(key, seed)
		want := make([]byte, h+n)
		ref.Fill(want[:h])
		ref.Fill(want[h:])

		SetVectorKernels(true)
		vec := NewXOF(key, seed)
		got := make([]byte, h+n)
		vec.Fill(got[:h])
		vec.Fill(got[h:])
		SetVectorKernels(false)

		if !bytes.Equal(got, want) {
			t.Fatalf("vector Fill diverges from scalar (seed=%x size=%d head=%d)", seed, n, h)
		}
	})
}

// BenchmarkXOFFillUint64Widths is BenchmarkXOFFillUint64 at each
// squeeze width the host has, and scalar.
func BenchmarkXOFFillUint64Widths(b *testing.B) {
	run := func(b *testing.B) {
		var key [32]byte
		x := NewXOF(key, []byte("bench"))
		buf := make([]uint64, 512)
		b.SetBytes(8 * 512)
		for i := 0; i < b.N; i++ {
			x.FillUint64(buf)
		}
	}
	for _, w := range squeezeWidths() {
		b.Run(w.name, func(b *testing.B) {
			prevOn, prevWide := VectorKernelsEnabled(), wide16
			defer func() { SetVectorKernels(prevOn); wide16 = prevWide }()
			SetVectorKernels(true)
			wide16 = w.wide16
			run(b)
		})
	}
	b.Run("scalar", func(b *testing.B) {
		defer SetVectorKernels(VectorKernelsEnabled())
		SetVectorKernels(false)
		run(b)
	})
}
