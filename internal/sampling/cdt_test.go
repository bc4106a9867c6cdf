package sampling

import (
	"fmt"
	"slices"
	"testing"

	"choco/internal/blake3"
	"choco/internal/ring"
)

// cdtSigmas are the σ whose tables the tests hold the vector kernel to:
// DefaultSigma, the one every preset and parameter search uses, and the
// other tables TestCDTTable builds (4 to 48 thresholds).
var cdtSigmas = []float64{DefaultSigma, 0.5, 1, 3.19, 8}

// cdtEdgeWords lists the words at every decision edge of t: 0 and
// 2^64−1; for each threshold t_k, the words whose top 63 bits are t_k
// and t_k ± 1, with either sign bit (t_k + 1 and t_k themselves only
// where they stay below 2^63, so for a 2^63 padding entry its
// predecessor 2^63 − 1 is the edge); and the words 2^63 and 2^63 ± 1.
func cdtEdgeWords(t []uint64) []uint64 {
	words := []uint64{0, ^uint64(0), 1 << 63, 1<<63 - 1, 1<<63 + 1}
	for _, tk := range t {
		for _, v := range []uint64{tk - 1, tk, tk + 1} {
			if v < 1<<63 {
				words = append(words, v<<1, v<<1|1)
			}
		}
	}
	return words
}

// TestCDTVectorMatchesScalar holds the vector CDT kernel to cdtSample,
// word for word, on every edge word of each σ table, at every length
// 0–300 (each start offset into the edge words, so an edge word falls
// in each lane and in the scalar tail), and on a stream of random words.
func TestCDTVectorMatchesScalar(t *testing.T) {
	prev := blake3.VectorKernelsEnabled()
	defer blake3.SetVectorKernels(prev)
	if !blake3.SetVectorKernels(true) {
		t.Skip("no vector CDT kernel on this host/build")
	}
	t.Log("comparing the 4-lane AVX2 CDT kernel with cdtSample")
	for _, sigma := range cdtSigmas {
		tbl := cdtFor(sigma)
		edges := cdtEdgeWords(tbl)
		random := make([]uint64, 4096)
		src(fmt.Sprint("cdt-vector", sigma)).xof.FillUint64(random)
		for _, words := range [][]uint64{edges, random} {
			for n := 0; n <= 300; n++ {
				for off := 0; off < 4; off++ {
					in := make([]uint64, n)
					for i := range in {
						in[i] = words[(off+i)%len(words)]
					}
					got, want := make([]int64, n), make([]int64, n)
					cdtMap(got, in, tbl)
					cdtSample(want, in, tbl)
					if !slices.Equal(got, want) {
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("σ = %v, n = %d, offset %d: word %#x: vector %d, scalar %d", sigma, n, off, in[i], got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestCDTEdgeMagnitudes pins, through cdtMap, what
// each edge word of the σ = 3.2 table draws: the vector and scalar
// paths could agree on a wrong answer, this could not.
func TestCDTEdgeMagnitudes(t *testing.T) {
	tbl := cdtFor(DefaultSigma)
	for _, vec := range []bool{false, true} {
		prev := blake3.VectorKernelsEnabled()
		if blake3.SetVectorKernels(vec) != vec {
			blake3.SetVectorKernels(prev)
			continue
		}
		words := cdtEdgeWords(tbl)
		got := make([]int64, len(words))
		cdtMap(got, words, tbl)
		blake3.SetVectorKernels(prev)
		for i, w := range words {
			v := w >> 1
			mag := int64(0)
			for mag < 20 && v >= tbl[mag] {
				mag++
			}
			if w&1 == 1 {
				mag = -mag
			}
			if got[i] != mag {
				t.Errorf("vector %v: word %#x draws %d, want %d", vec, w, got[i], mag)
			}
		}
	}
}

// TestSetVectorKernelsDropsClientKernels holds the one switch to every
// kernel the client's randomness runs: ring.SetVectorKernels(false)
// turns off the XOF squeeze (both widths) and this package's CDT
// kernel, and the ring reports the scalar tier.
func TestSetVectorKernelsDropsClientKernels(t *testing.T) {
	prev := ring.VectorKernelsEnabled()
	defer ring.SetVectorKernels(prev)
	ring.SetVectorKernels(false)
	if blake3.VectorKernelsEnabled() {
		t.Error("ring.SetVectorKernels(false) leaves the vector XOF squeeze on")
	}
	words := make([]uint64, 16)
	if k := cdtSampleVector(make([]int64, 16), words, cdtFor(DefaultSigma)); k != 0 {
		t.Errorf("ring.SetVectorKernels(false) leaves the vector CDT kernel on (%d words)", k)
	}
	if tier := ring.KernelTier(); tier != "scalar" {
		t.Errorf("KernelTier() = %q with the kernels off", tier)
	}
	if ring.SetVectorKernels(true) {
		if !blake3.VectorKernelsEnabled() || cdtSampleVector(make([]int64, 16), words, cdtFor(DefaultSigma)) != 16 {
			t.Error("ring.SetVectorKernels(true) does not bring the squeeze and CDT kernels back")
		}
	}
}

// FuzzCDTVector holds the vector CDT kernel to cdtSample on any words
// at σ = 3.2: the fuzzer's bytes are the words, eight a word.
func FuzzCDTVector(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31})
	f.Add(make([]byte, 8*21))
	f.Fuzz(func(t *testing.T, raw []byte) {
		prev := blake3.VectorKernelsEnabled()
		defer blake3.SetVectorKernels(prev)
		if !blake3.SetVectorKernels(true) {
			t.Skip("no vector CDT kernel on this host/build")
		}
		words := make([]uint64, len(raw)/8)
		for i := range words {
			for j := range 8 {
				words[i] |= uint64(raw[8*i+j]) << (8 * j)
			}
		}
		tbl := cdtFor(DefaultSigma)
		got, want := make([]int64, len(words)), make([]int64, len(words))
		cdtMap(got, words, tbl)
		cdtSample(want, words, tbl)
		if !slices.Equal(got, want) {
			t.Fatalf("words %#x: vector %v, scalar %v", words, got, want)
		}
	})
}

// BenchmarkCDT times the CDT mapping alone, 4 096 words at σ = 3.2, on
// the vector kernel (where the host has it) and on cdtSample.
func BenchmarkCDT(b *testing.B) {
	words := make([]uint64, 4096)
	src("bench-cdt").xof.FillUint64(words)
	out := make([]int64, len(words))
	tbl := cdtFor(DefaultSigma)
	prev := blake3.VectorKernelsEnabled()
	defer blake3.SetVectorKernels(prev)
	if blake3.SetVectorKernels(true) {
		b.Run("vector", func(b *testing.B) {
			for b.Loop() {
				cdtMap(out, words, tbl)
			}
		})
	}
	b.Run("scalar", func(b *testing.B) {
		for b.Loop() {
			cdtSample(out, words, tbl)
		}
	})
}
