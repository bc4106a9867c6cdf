//go:build amd64 && !purego

package blake3

import "choco/internal/cpu"

// vectorAvailable reports hardware support for the 8-wide AVX2 squeeze
// kernel, decided once by CPUID at init.
func vectorAvailable() bool { return cpu.X86.HasAVX2 }

// blake3Fill8AVX2 compresses the eight XOF root blocks at counters
// ctrs[0..7] (split lo/hi) and writes their 512 serialized bytes to
// out. Implemented in compress_amd64.s.
//
//go:noescape
func blake3Fill8AVX2(out *byte, msched *uint32, cv *uint32, ctrs *uint32, blockLen uint32, flags uint32)

// blake3Fill8AVX2W is the same kernel writing through a []uint64
// backing array (amd64 is little-endian, so the byte stream decodes in
// place for FillUint64).
//
//go:noescape
func blake3Fill8AVX2W(out *uint64, msched *uint32, cv *uint32, ctrs *uint32, blockLen uint32, flags uint32)

// schedule returns (building lazily) the XOF's 7-round pre-permuted
// message schedule. The root squeeze reuses one immutable block for
// every output counter, so the per-round permutations are paid once
// per XOF instead of once per compress call, and the kernel broadcasts
// words straight from this table.
func (x *XOF) schedule() *[112]uint32 {
	if !x.schedOK {
		m := x.out.block
		for r := 0; r < 7; r++ {
			copy(x.sched[16*r:16*r+16], m[:])
			if r < 6 {
				permute(&m)
			}
		}
		x.schedOK = true
	}
	return &x.sched
}

// lanes8 packs the per-lane 64-bit counters counter..counter+7 into
// the split lo/hi layout the kernel loads as state words 12/13.
func lanes8(counter uint64) [16]uint32 {
	var ctrs [16]uint32
	for i := 0; i < 8; i++ {
		c := counter + uint64(i)
		ctrs[i] = uint32(c)
		ctrs[8+i] = uint32(c >> 32)
	}
	return ctrs
}

// fillBlocks8 squeezes as many aligned 8-block groups as fit into p,
// returning the bytes written (a multiple of 512, possibly 0). The
// caller has already drained the staging buffer, so x.counter is
// block-aligned with the logical stream position.
func (x *XOF) fillBlocks8(p []byte) int {
	if !vectorKernels || len(p) < 512 {
		return 0
	}
	sched := x.schedule()
	n := 0
	for len(p)-n >= 512 {
		ctrs := lanes8(x.counter)
		blake3Fill8AVX2(&p[n], &sched[0], &x.out.cv[0], &ctrs[0], x.out.blockLen, x.out.flags|flagRoot)
		x.counter += 8
		n += 512
	}
	return n
}

// fillWords8 is fillBlocks8 over a word buffer: groups of 64 uint64s
// (eight 64-byte blocks), decoded little-endian in place. Returns the
// number of words written.
func (x *XOF) fillWords8(out []uint64) int {
	if !vectorKernels || len(out) < 64 {
		return 0
	}
	sched := x.schedule()
	n := 0
	for len(out)-n >= 64 {
		ctrs := lanes8(x.counter)
		blake3Fill8AVX2W(&out[n], &sched[0], &x.out.cv[0], &ctrs[0], x.out.blockLen, x.out.flags|flagRoot)
		x.counter += 8
		n += 64
	}
	return n
}
