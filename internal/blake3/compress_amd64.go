//go:build amd64 && !purego

package blake3

import "choco/internal/cpu"

// vectorAvailable reports hardware support for the 8-wide AVX2 squeeze
// kernel, decided once by CPUID at init.
func vectorAvailable() bool { return cpu.X86.HasAVX2 }

// wide16 selects the 16-wide AVX-512 squeeze ahead of the 8-wide one
// while vectorKernels is on. It is the ring's IFMA tier test (AVX-512
// Foundation, which the kernel needs, is part of it), so one CPU
// decision names the tier of every vector kernel the process runs.
// Tests clear it to reach the 8-wide kernel on an AVX-512 host.
var wide16 = cpu.X86.HasAVX2 && cpu.X86.HasAVX512IFMA

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

// blake3Fill16AVX512 and blake3Fill16AVX512W are the 16-block twins of
// the two above (compress16_amd64.s): counters ctrs[0..15] lo, then
// ctrs[16..31] hi, and 1 024 bytes out.
//
//go:noescape
func blake3Fill16AVX512(out *byte, msched *uint32, cv *uint32, ctrs *uint32, blockLen uint32, flags uint32)

//go:noescape
func blake3Fill16AVX512W(out *uint64, msched *uint32, cv *uint32, ctrs *uint32, blockLen uint32, flags uint32)

// schedule returns (building lazily) the XOF's 7-round pre-permuted
// message schedule. The root squeeze reuses one immutable block for
// every output counter, so the per-round permutations are paid once
// per XOF instead of once per compress call, and the kernels broadcast
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

// lanes packs the per-lane 64-bit counters counter, counter+1, … into
// the split layout the kernels load as state words 12/13: the low
// halves in the first half of ctrs, the high halves in the second.
func lanes(ctrs []uint32, counter uint64) {
	w := len(ctrs) / 2
	for i := range w {
		c := counter + uint64(i)
		ctrs[i] = uint32(c)
		ctrs[w+i] = uint32(c >> 32)
	}
}

// fillBlocks squeezes as many aligned 16-block groups as fit into p
// (when wide16 is on), then 8-block groups, returning the bytes written
// (a multiple of 512, possibly 0). The caller has already drained the
// staging buffer, so x.counter is block-aligned with the logical stream
// position.
func (x *XOF) fillBlocks(p []byte) int {
	if !vectorKernels || len(p) < 512 {
		return 0
	}
	sched, flags := x.schedule(), x.out.flags|flagRoot
	n := 0
	var ctrs [32]uint32
	for wide16 && len(p)-n >= 1024 {
		lanes(ctrs[:], x.counter)
		blake3Fill16AVX512(&p[n], &sched[0], &x.out.cv[0], &ctrs[0], x.out.blockLen, flags)
		x.counter += 16
		n += 1024
	}
	for len(p)-n >= 512 {
		lanes(ctrs[:16], x.counter)
		blake3Fill8AVX2(&p[n], &sched[0], &x.out.cv[0], &ctrs[0], x.out.blockLen, flags)
		x.counter += 8
		n += 512
	}
	return n
}

// fillWords is fillBlocks over a word buffer: groups of 128 and then 64
// uint64s (sixteen and eight 64-byte blocks), decoded little-endian in
// place. Returns the number of words written.
func (x *XOF) fillWords(out []uint64) int {
	if !vectorKernels || len(out) < 64 {
		return 0
	}
	sched, flags := x.schedule(), x.out.flags|flagRoot
	n := 0
	var ctrs [32]uint32
	for wide16 && len(out)-n >= 128 {
		lanes(ctrs[:], x.counter)
		blake3Fill16AVX512W(&out[n], &sched[0], &x.out.cv[0], &ctrs[0], x.out.blockLen, flags)
		x.counter += 16
		n += 128
	}
	for len(out)-n >= 64 {
		lanes(ctrs[:16], x.counter)
		blake3Fill8AVX2W(&out[n], &sched[0], &x.out.cv[0], &ctrs[0], x.out.blockLen, flags)
		x.counter += 8
		n += 64
	}
	return n
}
