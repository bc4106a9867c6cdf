package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"choco/internal/blake3"
	"choco/internal/nt"
	"choco/internal/par"
	"choco/internal/ring"
)

// KernelBench is one machine-readable record of the SIMD kernel layer
// (BENCH_kernels.json): a single hot kernel measured at 1 CPU through
// the scalar oracle and through the vector dispatch, so the file
// carries its own before/after pair. On hosts without vector support
// only the scalar rows appear. The dyadic-mac-lazy rows are a pair of
// another kind, both scalar: one term of a multiply-accumulate chain
// reduced as it is added ("reduced") against one summed unreduced into
// 128 bits ("lazy").
type KernelBench struct {
	Kernel  string `json:"kernel"`
	Impl    string `json:"impl"` // "scalar" or "vector"; "reduced" or "lazy"
	N       int    `json:"n"`    // elements per op (ring degree or bytes filled)
	NsPerOp int64  `json:"ns_per_op"`
}

// kernelLogN is the ring degree the kernel micro-benchmarks run at:
// N=8192, the paper's Table 3 sets A and C.
const kernelLogN = 13

// kernelFillBytes is the BLAKE3 bulk-fill size: 64 KiB, comfortably in
// the XOF squeeze's steady state (128 8-wide passes).
const kernelFillBytes = 64 * 1024

// Kernels measures the row-level SIMD kernels — NTT forward/inverse
// row transforms, the fused dyadic multiplies, and the BLAKE3 bulk
// fill — scalar versus vector at a single CPU, and returns a text
// report plus the records for BENCH_kernels.json. The vector rows are
// the exact same code paths production dispatch selects; the scalar
// rows run with the kill-switch thrown.
func Kernels() (string, []KernelBench, error) {
	qs, err := nt.GenerateNTTPrimesVarBits([]int{60}, kernelLogN)
	if err != nil {
		return "", nil, err
	}
	r, err := ring.NewRing(kernelLogN, qs)
	if err != nil {
		return "", nil, err
	}
	row := make([]uint64, r.N)
	src := blake3.NewXOF([32]byte{51}, []byte("bench/kernels"))
	src.FillUint64(row)
	q := r.Moduli[0].Value
	for j := range row {
		row[j] %= q
	}

	a, b0 := r.NewPoly(), r.NewPoly()
	copy(a.Coeffs[0], row)
	src.FillUint64(b0.Coeffs[0])
	for j, v := range b0.Coeffs[0] {
		b0.Coeffs[0][j] = v % q
	}
	a.DeclareNTT()
	b0.DeclareNTT()
	s0 := r.ShoupPolyPrecomp(b0)
	out := r.NewPoly()
	out.DeclareNTT()
	fill := make([]byte, kernelFillBytes)

	type kernel struct {
		name string
		n    int
		run  func(b *testing.B)
	}
	kernels := []kernel{
		{"ntt-row-fwd", r.N, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NTTForwardRow(0, row)
			}
		}},
		{"ntt-row-inv", r.N, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NTTInverseRow(0, row)
			}
		}},
		{"dyadic-mul", r.N, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.MulCoeffs(a, b0, out)
			}
		}},
		{"dyadic-shoup-add", r.N, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.MulCoeffsShoupAdd(a, b0, s0, out)
			}
		}},
		{"blake3-fill-64k", kernelFillBytes, func(b *testing.B) {
			xof := blake3.NewXOF([32]byte{52}, []byte("bench/fill"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xof.Fill(fill)
			}
		}},
	}

	oldPar := par.Parallelism()
	par.SetParallelism(1)
	prevVec := ring.VectorKernelsEnabled()
	defer func() {
		par.SetParallelism(oldPar)
		ring.SetVectorKernels(prevVec)
	}()

	vectorHost := ring.SetVectorKernels(true)
	var recs []KernelBench
	for _, k := range kernels {
		ring.SetVectorKernels(false)
		recs = append(recs, KernelBench{
			Kernel: k.name, Impl: "scalar", N: k.n,
			NsPerOp: testing.Benchmark(k.run).NsPerOp(),
		})
		if vectorHost {
			ring.SetVectorKernels(true)
			recs = append(recs, KernelBench{
				Kernel: k.name, Impl: "vector", N: k.n,
				NsPerOp: testing.Benchmark(k.run).NsPerOp(),
			})
		}
	}

	// The inner sums' multiply-accumulate, per row and term, at both
	// paper degrees over a 36-bit prime (bfv-B's): the per-term-reduced
	// scalar loop against the unreduced 128-bit accumulator.
	ring.SetVectorKernels(false)
	for _, logN := range []int{12, 13} {
		impls, err := dyadicMACLazy(logN)
		if err != nil {
			return "", nil, err
		}
		recs = append(recs, impls...)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "SIMD kernels, scalar vs vector dispatch at 1 CPU (N=%d, 60-bit modulus; fill=%d bytes)\n",
		r.N, kernelFillBytes)
	if !vectorHost {
		fmt.Fprintf(&b, "(no vector kernels on this host/build — scalar rows only)\n")
	}
	fmt.Fprintf(&b, "%-18s %-8s %8s %14s\n", "kernel", "impl", "n", "ns/op")
	scalarNs := map[string]int64{}
	for _, rec := range recs {
		fmt.Fprintf(&b, "%-18s %-8s %8d %14d\n", rec.Kernel, rec.Impl, rec.N, rec.NsPerOp)
		if rec.Impl == "scalar" {
			scalarNs[rec.Kernel] = rec.NsPerOp
		}
	}
	for i := 1; i < len(recs); i++ {
		if red, lazy := recs[i-1], recs[i]; red.Impl == "reduced" && lazy.Impl == "lazy" && lazy.NsPerOp > 0 {
			fmt.Fprintf(&b, "%s N=%d speedup (reduced/lazy): %.2fx\n", lazy.Kernel, lazy.N, float64(red.NsPerOp)/float64(lazy.NsPerOp))
		}
	}
	for _, rec := range recs {
		if rec.Impl == "vector" && scalarNs[rec.Kernel] > 0 && rec.NsPerOp > 0 {
			fmt.Fprintf(&b, "%s speedup (scalar/vector): %.2fx\n",
				rec.Kernel, float64(scalarNs[rec.Kernel])/float64(rec.NsPerOp))
		}
	}
	return b.String(), recs, nil
}

// dyadicMACLazy measures one row-term of a dyadic multiply-accumulate
// chain at degree 2^logN both ways: MulCoeffsAdd's scalar loop (the vector
// kernels must be off) and MulCoeffsAddWide.
func dyadicMACLazy(logN int) ([]KernelBench, error) {
	qs, err := nt.GenerateNTTPrimesVarBits([]int{36}, logN)
	if err != nil {
		return nil, err
	}
	r, err := ring.NewRing(logN, qs)
	if err != nil {
		return nil, err
	}
	x, w, sum := r.NewPoly(), r.NewPoly(), r.NewPoly()
	src := blake3.NewXOF([32]byte{53}, []byte("bench/mac"))
	for _, p := range []*ring.Poly{x, w} {
		src.FillUint64(p.Coeffs[0])
		for j, v := range p.Coeffs[0] {
			p.Coeffs[0][j] = v % r.Moduli[0].Value
		}
		p.DeclareNTT()
	}
	sum.DeclareNTT()
	acc := r.GetWideAcc()
	defer r.PutWideAcc(acc)
	return []KernelBench{
		{Kernel: "dyadic-mac-lazy", Impl: "reduced", N: r.N, NsPerOp: testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.MulCoeffsAdd(x, w, sum)
			}
		}).NsPerOp()},
		{Kernel: "dyadic-mac-lazy", Impl: "lazy", N: r.N, NsPerOp: testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.MulCoeffsAddWide(x, w, acc)
			}
		}).NsPerOp()},
	}, nil
}

// KernelsJSON renders the records as the BENCH_kernels.json body.
func KernelsJSON(recs []KernelBench) ([]byte, error) {
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
