// Package blake3 implements the BLAKE3 cryptographic hash function in
// hash and extendable-output (XOF) modes. CHOCO-TACO's pseudo-random
// number generation module is specified as a BLAKE3 pipeline (the paper
// also retrofits SEAL's software to BLAKE3 for a fair baseline), so the
// sampling substrate draws all randomness from this implementation.
//
// The implementation follows the BLAKE3 specification (O'Connor, Neves,
// Aumasson, Wilcox-O'Hearn, 2019) and is validated against the official
// test vectors.
package blake3

import "math/bits"

const (
	blockSize = 64
	chunkSize = 1024

	flagChunkStart        = 1 << 0
	flagChunkEnd          = 1 << 1
	flagParent            = 1 << 2
	flagRoot              = 1 << 3
	flagKeyedHash         = 1 << 4
	flagDeriveKeyContext  = 1 << 5
	flagDeriveKeyMaterial = 1 << 6
)

// iv is the BLAKE3 initialization vector (same as BLAKE2s / SHA-256).
var iv = [8]uint32{
	0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
	0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
}

// msgPermutation is the fixed message word permutation applied between
// rounds of the compression function.
var msgPermutation = [16]int{2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8}

func g(state *[16]uint32, a, b, c, d int, mx, my uint32) {
	state[a] = state[a] + state[b] + mx
	state[d] = bits.RotateLeft32(state[d]^state[a], -16)
	state[c] = state[c] + state[d]
	state[b] = bits.RotateLeft32(state[b]^state[c], -12)
	state[a] = state[a] + state[b] + my
	state[d] = bits.RotateLeft32(state[d]^state[a], -8)
	state[c] = state[c] + state[d]
	state[b] = bits.RotateLeft32(state[b]^state[c], -7)
}

func round(state *[16]uint32, m *[16]uint32) {
	// Columns.
	g(state, 0, 4, 8, 12, m[0], m[1])
	g(state, 1, 5, 9, 13, m[2], m[3])
	g(state, 2, 6, 10, 14, m[4], m[5])
	g(state, 3, 7, 11, 15, m[6], m[7])
	// Diagonals.
	g(state, 0, 5, 10, 15, m[8], m[9])
	g(state, 1, 6, 11, 12, m[10], m[11])
	g(state, 2, 7, 8, 13, m[12], m[13])
	g(state, 3, 4, 9, 14, m[14], m[15])
}

func permute(m *[16]uint32) {
	var p [16]uint32
	for i := range p {
		p[i] = m[msgPermutation[i]]
	}
	*m = p
}

// compress runs the BLAKE3 compression function and returns the full
// 16-word output (the first 8 words are the chaining value; all 16 are
// used in XOF mode).
func compress(cv *[8]uint32, block *[16]uint32, counter uint64, blockLen uint32, flags uint32) [16]uint32 {
	state := [16]uint32{
		cv[0], cv[1], cv[2], cv[3],
		cv[4], cv[5], cv[6], cv[7],
		iv[0], iv[1], iv[2], iv[3],
		uint32(counter), uint32(counter >> 32), blockLen, flags,
	}
	m := *block
	for i := 0; i < 7; i++ {
		round(&state, &m)
		if i < 6 {
			permute(&m)
		}
	}
	for i := 0; i < 8; i++ {
		state[i] ^= state[i+8]
		state[i+8] ^= cv[i]
	}
	return state
}

func wordsFromBlock(b []byte) [16]uint32 {
	var m [16]uint32
	for i := 0; i < len(b)/4; i++ {
		m[i] = uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24
	}
	// Trailing partial word, zero-padded.
	if rem := len(b) % 4; rem != 0 {
		var w uint32
		base := len(b) - rem
		for j := 0; j < rem; j++ {
			w |= uint32(b[base+j]) << (8 * j)
		}
		m[len(b)/4] = w
	}
	return m
}

// output captures the final compression inputs so that arbitrarily many
// XOF bytes can be squeezed by incrementing the counter.
type output struct {
	cv       [8]uint32
	block    [16]uint32
	blockLen uint32
	counter  uint64
	flags    uint32
}

func (o *output) rootBytes(out []byte) {
	counter := uint64(0)
	for len(out) > 0 {
		words := compress(&o.cv, &o.block, counter, o.blockLen, o.flags|flagRoot)
		var buf [64]byte
		for i, w := range words {
			buf[4*i] = byte(w)
			buf[4*i+1] = byte(w >> 8)
			buf[4*i+2] = byte(w >> 16)
			buf[4*i+3] = byte(w >> 24)
		}
		n := copy(out, buf[:])
		out = out[n:]
		counter++
	}
}

// chunkState incrementally hashes one ≤1024-byte chunk.
type chunkState struct {
	cv             [8]uint32
	chunkCounter   uint64
	block          [blockSize]byte
	blockLen       int
	blocksCompress int
	flags          uint32
}

func newChunkState(key [8]uint32, chunkCounter uint64, flags uint32) chunkState {
	return chunkState{cv: key, chunkCounter: chunkCounter, flags: flags}
}

func (cs *chunkState) len() int {
	return blockSize*cs.blocksCompress + cs.blockLen
}

func (cs *chunkState) startFlag() uint32 {
	if cs.blocksCompress == 0 {
		return flagChunkStart
	}
	return 0
}

func (cs *chunkState) update(input []byte) {
	for len(input) > 0 {
		if cs.blockLen == blockSize {
			block := wordsFromBlock(cs.block[:])
			out := compress(&cs.cv, &block, cs.chunkCounter, blockSize, cs.flags|cs.startFlag())
			copy(cs.cv[:], out[:8])
			cs.blocksCompress++
			cs.blockLen = 0
		}
		n := copy(cs.block[cs.blockLen:], input)
		cs.blockLen += n
		input = input[n:]
	}
}

func (cs *chunkState) output() output {
	block := wordsFromBlock(cs.block[:cs.blockLen])
	return output{
		cv:       cs.cv,
		block:    block,
		blockLen: uint32(cs.blockLen),
		counter:  cs.chunkCounter,
		flags:    cs.flags | cs.startFlag() | flagChunkEnd,
	}
}

func parentOutput(left, right [8]uint32, key [8]uint32, flags uint32) output {
	var block [16]uint32
	copy(block[:8], left[:])
	copy(block[8:], right[:])
	return output{cv: key, block: block, blockLen: blockSize, counter: 0, flags: flags | flagParent}
}

func parentCV(left, right [8]uint32, key [8]uint32, flags uint32) [8]uint32 {
	o := parentOutput(left, right, key, flags)
	words := compress(&o.cv, &o.block, o.counter, o.blockLen, o.flags)
	var cv [8]uint32
	copy(cv[:], words[:8])
	return cv
}

// Hasher is an incremental BLAKE3 hasher. The zero value is not usable;
// construct with New or NewKeyed.
type Hasher struct {
	key        [8]uint32
	chunk      chunkState
	flags      uint32
	cvStack    [][8]uint32
	chunkCount uint64
}

// New returns an unkeyed BLAKE3 hasher.
func New() *Hasher {
	h := &Hasher{key: iv}
	h.chunk = newChunkState(h.key, 0, 0)
	return h
}

// NewKeyed returns a keyed BLAKE3 hasher with the given 32-byte key.
func NewKeyed(key [32]byte) *Hasher {
	var kw [8]uint32
	for i := range kw {
		kw[i] = uint32(key[4*i]) | uint32(key[4*i+1])<<8 | uint32(key[4*i+2])<<16 | uint32(key[4*i+3])<<24
	}
	h := &Hasher{key: kw, flags: flagKeyedHash}
	h.chunk = newChunkState(kw, 0, flagKeyedHash)
	return h
}

// Write absorbs input. It never returns an error.
func (h *Hasher) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if h.chunk.len() == chunkSize {
			o := h.chunk.output()
			words := compress(&o.cv, &o.block, o.counter, o.blockLen, o.flags)
			var cv [8]uint32
			copy(cv[:], words[:8])
			h.chunkCount++
			h.pushCV(cv, h.chunkCount)
			h.chunk = newChunkState(h.key, h.chunkCount, h.flags)
		}
		want := chunkSize - h.chunk.len()
		n := len(p)
		if n > want {
			n = want
		}
		h.chunk.update(p[:n])
		p = p[n:]
	}
	return total, nil
}

// pushCV merges completed subtree chaining values following the binary
// counter structure of the BLAKE3 tree.
func (h *Hasher) pushCV(cv [8]uint32, totalChunks uint64) {
	for totalChunks&1 == 0 {
		top := h.cvStack[len(h.cvStack)-1]
		h.cvStack = h.cvStack[:len(h.cvStack)-1]
		cv = parentCV(top, cv, h.key, h.flags)
		totalChunks >>= 1
	}
	h.cvStack = append(h.cvStack, cv)
}

// Sum returns the hash, appending outLen bytes to dst. Sum may be called
// multiple times with different lengths; the hasher state is unchanged.
func (h *Hasher) Sum(dst []byte, outLen int) []byte {
	o := h.chunk.output()
	for i := len(h.cvStack) - 1; i >= 0; i-- {
		words := compress(&o.cv, &o.block, o.counter, o.blockLen, o.flags)
		var right [8]uint32
		copy(right[:], words[:8])
		o = parentOutput(h.cvStack[i], right, h.key, h.flags)
	}
	out := make([]byte, outLen)
	o.rootBytes(out)
	return append(dst, out...)
}

// Sum256 is a convenience for the common 32-byte digest of data.
func Sum256(data []byte) [32]byte {
	h := New()
	h.Write(data)
	var out [32]byte
	copy(out[:], h.Sum(nil, 32))
	return out
}

// XOF is a deterministic extendable-output reader seeded by key material.
// It squeezes the BLAKE3 root output indefinitely and implements
// io.Reader; reads never fail.
type XOF struct {
	out     output
	buf     [64]byte
	bufUsed int // bytes of buf already consumed (64 = empty)
	counter uint64
	// sched caches the pre-permuted 7-round message schedule for the
	// vector squeeze kernels (8- and 16-wide); built lazily on first bulk fill (the root
	// block never changes until the next Reset). Unused on scalar-only
	// builds.
	sched   [112]uint32
	schedOK bool
}

// NewXOF creates an XOF from a keyed hash over seed material. Identical
// (key, seed) pairs yield identical streams.
func NewXOF(key [32]byte, seed []byte) *XOF {
	x := new(XOF)
	x.Reset(key, seed)
	return x
}

// Reset re-keys x in place: afterwards it yields the stream
// NewXOF(key, seed) would, in x's own storage. A client that derives one
// stream per ciphertext re-keys a single XOF instead of allocating each.
func (x *XOF) Reset(key [32]byte, seed []byte) {
	h := NewKeyed(key)
	h.Write(seed)
	o := h.chunk.output()
	for i := len(h.cvStack) - 1; i >= 0; i-- {
		words := compress(&o.cv, &o.block, o.counter, o.blockLen, o.flags)
		var right [8]uint32
		copy(right[:], words[:8])
		o = parentOutput(h.cvStack[i], right, h.key, h.flags)
	}
	*x = XOF{out: o, bufUsed: 64}
}

// Read fills p with the next bytes of the output stream.
func (x *XOF) Read(p []byte) (int, error) {
	x.Fill(p)
	return len(p), nil
}

// Fill writes the next len(p) bytes of the output stream into p. It is
// the bulk squeeze path: whole 64-byte output blocks are serialized
// straight into p, touching the internal staging buffer only for the
// stream's unaligned head and tail. The bytes produced are identical to
// repeated Read calls — Fill only changes how many times the block
// buffer is copied, never the stream itself.
func (x *XOF) Fill(p []byte) {
	// Drain whatever the staging buffer still holds.
	if x.bufUsed < 64 {
		n := copy(p, x.buf[x.bufUsed:])
		x.bufUsed += n
		p = p[n:]
	}
	// Vectorized body: sixteen counters squeezed per AVX-512 kernel call,
	// then eight per AVX2 one. The kernels write the identical byte
	// stream (the same compression at counters c, c+1, …, serialized
	// little-endian), so falling through to the narrower kernel and then
	// the scalar loop for the remainder is seamless.
	p = p[x.fillBlocks(p):]
	// Whole blocks: compress directly into the caller's buffer.
	for len(p) >= 64 {
		words := compress(&x.out.cv, &x.out.block, x.counter, x.out.blockLen, x.out.flags|flagRoot)
		x.counter++
		for i, w := range words {
			p[4*i] = byte(w)
			p[4*i+1] = byte(w >> 8)
			p[4*i+2] = byte(w >> 16)
			p[4*i+3] = byte(w >> 24)
		}
		p = p[64:]
	}
	// Tail: refill the staging buffer and copy the remainder.
	if len(p) > 0 {
		x.refill()
		x.bufUsed = copy(p, x.buf[:])
	}
}

// refill squeezes the next 64-byte block into the staging buffer.
func (x *XOF) refill() {
	words := compress(&x.out.cv, &x.out.block, x.counter, x.out.blockLen, x.out.flags|flagRoot)
	for i, w := range words {
		x.buf[4*i] = byte(w)
		x.buf[4*i+1] = byte(w >> 8)
		x.buf[4*i+2] = byte(w >> 16)
		x.buf[4*i+3] = byte(w >> 24)
	}
	x.counter++
	x.bufUsed = 0
}

// FillUint64 fills out with the next len(out)*8 stream bytes decoded as
// little-endian uint64s — exactly the sequence repeated Uint64 calls
// would return, but decoded 8 words per compress call with no staging
// copy on the aligned fast path. This is the samplers' bulk entry
// point: one compress yields a full 64-byte block, i.e. 8 words.
func (x *XOF) FillUint64(out []uint64) {
	// Unaligned head: consume staged bytes through the scalar path.
	for x.bufUsed < 64 && len(out) > 0 {
		out[0] = x.Uint64()
		out = out[1:]
	}
	// Vectorized body: 128 words (sixteen blocks) per AVX-512 kernel
	// call, then 64 (eight) per AVX2 one, byte stream decoded in place
	// on little-endian hardware.
	out = out[x.fillWords(out):]
	// Aligned body: decode whole blocks directly from compress output.
	for len(out) >= 8 {
		words := compress(&x.out.cv, &x.out.block, x.counter, x.out.blockLen, x.out.flags|flagRoot)
		x.counter++
		for i := 0; i < 8; i++ {
			out[i] = uint64(words[2*i]) | uint64(words[2*i+1])<<32
		}
		out = out[8:]
	}
	// Tail: fewer than 8 words; squeeze one block into the staging
	// buffer and decode from there so leftover bytes stay available.
	for len(out) > 0 {
		out[0] = x.Uint64()
		out = out[1:]
	}
}

// Uint64 returns the next 8 output bytes as a little-endian uint64.
func (x *XOF) Uint64() uint64 {
	var b [8]byte
	x.Read(b[:])
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
