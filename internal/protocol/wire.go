// Package protocol serializes ciphertexts and key bundles and frames
// them over transports. What it writes is what the client's radio pays
// for, so residues travel at their bit width: a ciphertext frame is a
// fixed 24-byte header, the 32-byte seed of a seeded frame, then each
// polynomial's residue rows packed by internal/ring (row i takes
// N·⌈log₂ qᵢ⌉ bits, whole words, no padding). FrameBytes is the one size
// function; the pipe's byte counters, nn.ExecutableRequestCost and the
// radio-energy rows of Figs 12/14 follow from it. The paper's model —
// Parameters.CiphertextBytes, nn.CommPlan, Tables 3/5, Figs 10/15 —
// counts SEAL's in-memory 8-byte words instead and says so where it
// does; a frame here is smaller than that.
package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

const (
	headerBytes = 24
	seedBytes   = 32
	// lengthPrefixBytes is what a transport adds to every message, and
	// SentBytes counts.
	lengthPrefixBytes = 4
)

// Frame tags: the wire version in the high half, the family in the low
// one. A tag without the version is what a version-1 peer sent, residues
// in 8-byte words, and is refused by that name (checkTag).
const (
	SchemeBFV  = HelloVersion<<16 | uint32(1)
	SchemeCKKS = HelloVersion<<16 | uint32(2)
	// SchemeBFVSeeded and SchemeCKKSSeeded tag seed-compressed symmetric
	// ciphertexts: header, 32-byte seed, then the single c0 polynomial —
	// about half the bytes of a regular frame.
	SchemeBFVSeeded  = HelloVersion<<16 | uint32(3)
	SchemeCKKSSeeded = HelloVersion<<16 | uint32(4)
)

// frameShape says what a frame family carries besides its residues: a
// seed in place of c1, and a CKKS scale in the header's spare field
// (a BFV frame leaves that field zero).
func frameShape(tag uint32) (seeded, scaled bool) {
	return tag == SchemeBFVSeeded || tag == SchemeCKKSSeeded, tag == SchemeCKKS || tag == SchemeCKKSSeeded
}

// FrameBytes returns what one ciphertext frame costs on the wire, the
// transport's length prefix included: polys polynomials of polyBytes
// packed bytes each (ring.PackedBytes) behind the header, and the seed
// when there is one.
func FrameBytes(polyBytes, polys int, seeded bool) int {
	n := lengthPrefixBytes + headerBytes + polys*polyBytes
	if seeded {
		n += seedBytes
	}
	return n
}

// marshalFrame writes every ciphertext frame: the 24-byte header (tag,
// component count, N, residue count k, scale), the seed of a seeded
// frame, then the polynomials' packed rows. The level travels as k.
func marshalFrame(tag uint32, scale float64, seed *[seedBytes]byte, polys ...*ring.Poly) []byte {
	n, k := len(polys[0].Coeffs[0]), len(polys[0].Coeffs)
	buf := make([]byte, headerBytes, FrameBytes(polys[0].PackedBytes(), len(polys), seed != nil)-lengthPrefixBytes)
	binary.LittleEndian.PutUint32(buf[0:], tag)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(polys)))
	binary.LittleEndian.PutUint32(buf[8:], uint32(n))
	binary.LittleEndian.PutUint32(buf[12:], uint32(k))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(scale))
	if seed != nil {
		buf = append(buf, seed[:]...)
	}
	for _, p := range polys {
		buf = p.AppendPacked(buf)
	}
	return buf
}

// hasTag reports whether data opens with tag.
func hasTag(data []byte, tag uint32) bool {
	return len(data) >= 4 && binary.LittleEndian.Uint32(data) == tag
}

// checkTag is hasTag with the reason: it tells a ciphertext frame of
// another wire version from a frame of another kind.
func checkTag(data []byte, tag uint32) error {
	switch {
	case hasTag(data, tag):
		return nil
	case len(data) < 4:
		return fmt.Errorf("protocol: truncated ciphertext")
	}
	got := binary.LittleEndian.Uint32(data)
	if family := got & 0xffff; got>>16 != HelloVersion && family >= SchemeBFV&0xffff && family <= SchemeCKKSSeeded&0xffff {
		// Version 1 wrote the bare family, before tags carried a version.
		return fmt.Errorf("protocol: ciphertext frame is wire version %d, this peer speaks version %d (packed residue rows)",
			max(got>>16, 1), HelloVersion)
	}
	return fmt.Errorf("protocol: frame tag %#x is not the expected ciphertext tag %#x", got, tag)
}

// unmarshalFrame reads every ciphertext frame of the family tag under
// ctx, validating all of it before arithmetic can see it: the tag and its
// wire version, the shape against the context (the level is k−1), a
// component count the evaluators accept — 2 for fresh and relinearized
// ciphertexts, 3 for an unrelinearized product, exactly 1 beside a seed —
// a CKKS scale some encoder could have produced (every rescale and
// decode divides by it) and a zero in its place otherwise, the exact
// length, and each residue through ring.Poly.Unpack. Every check is an
// equality or the packing's own, so an accepted frame is the one
// encoding of its ciphertext.
func unmarshalFrame(ctx *rlwe.Context, tag uint32, data []byte) (value []*ring.Poly, scale float64, seed [seedBytes]byte, err error) {
	if err := checkTag(data, tag); err != nil {
		return nil, 0, seed, err
	}
	seeded, scaled := frameShape(tag)
	off := headerBytes
	if seeded {
		off += seedBytes
	}
	if len(data) < off {
		return nil, 0, seed, fmt.Errorf("protocol: truncated ciphertext")
	}
	deg := int(binary.LittleEndian.Uint32(data[4:]))
	n := int(binary.LittleEndian.Uint32(data[8:]))
	k := int(binary.LittleEndian.Uint32(data[12:]))
	scaleBits := binary.LittleEndian.Uint64(data[16:])
	scale = math.Float64frombits(scaleBits)
	if full := len(ctx.RingQ.Moduli); n != ctx.RingQ.N || k < 1 || k > full || seeded && deg != 1 {
		return nil, 0, seed, fmt.Errorf("protocol: ciphertext shape (N=%d,k=%d, %d components) does not match context (N=%d,k≤%d)",
			n, k, deg, ctx.RingQ.N, full)
	}
	if !seeded && deg != 2 && deg != 3 {
		return nil, 0, seed, fmt.Errorf("protocol: ciphertext has %d components, want 2 or 3", deg)
	}
	if scaled && (!(scale > 0) || math.IsInf(scale, 1)) || !scaled && scaleBits != 0 {
		return nil, 0, seed, fmt.Errorf("protocol: ciphertext scale %v is not a positive finite number (zero bits where the scheme has no scale)", scale)
	}
	r := ctx.RingAtLevel(k - 1)
	polyBytes := r.PackedBytes()
	if want := FrameBytes(polyBytes, deg, seeded) - lengthPrefixBytes; len(data) != want {
		return nil, 0, seed, fmt.Errorf("protocol: ciphertext length %d, want %d", len(data), want)
	}
	copy(seed[:], data[headerBytes:off])
	value = make([]*ring.Poly, deg)
	for i := range value {
		value[i] = r.NewPoly()
		if err := value[i].Unpack(data[off : off+polyBytes]); err != nil {
			return nil, 0, seed, fmt.Errorf("protocol: ciphertext component %d: %w", i, err)
		}
		off += polyBytes
	}
	return value, scale, seed, nil
}

// MarshalBFV serializes a BFV ciphertext.
func MarshalBFV(ct *bfv.Ciphertext) []byte {
	return marshalFrame(SchemeBFV, 0, nil, ct.Value...)
}

// UnmarshalBFV reconstructs a BFV ciphertext serialized by MarshalBFV.
func UnmarshalBFV(ctx *bfv.Context, data []byte) (*bfv.Ciphertext, error) {
	value, _, _, err := unmarshalFrame(ctx.Context, SchemeBFV, data)
	if err != nil {
		return nil, err
	}
	return &bfv.Ciphertext{Value: value, Drop: len(ctx.RingQ.Moduli) - len(value[0].Coeffs)}, nil
}

// MarshalSeededBFV serializes a seed-compressed ciphertext.
func MarshalSeededBFV(sct *bfv.SeededCiphertext) []byte {
	return marshalFrame(SchemeBFVSeeded, 0, &sct.Seed, sct.C0)
}

// UnmarshalSeededBFV reconstructs and expands a seed-compressed
// ciphertext into a regular two-component one (the server-side step).
// BFV encrypts at full modulus only.
func UnmarshalSeededBFV(ctx *bfv.Context, data []byte) (*bfv.Ciphertext, error) {
	value, _, seed, err := unmarshalFrame(ctx.Context, SchemeBFVSeeded, data)
	if err != nil {
		return nil, err
	}
	if len(value[0].Coeffs) != len(ctx.RingQ.Moduli) {
		return nil, fmt.Errorf("protocol: seeded ciphertext shape mismatch")
	}
	return (&bfv.SeededCiphertext{C0: value[0], Seed: seed}).Expand(ctx), nil
}

// UnmarshalAnyBFV dispatches on the scheme tag, accepting both regular
// and seed-compressed BFV ciphertexts (servers sniff incoming frames
// with this).
func UnmarshalAnyBFV(ctx *bfv.Context, data []byte) (*bfv.Ciphertext, error) {
	if hasTag(data, SchemeBFVSeeded) {
		return UnmarshalSeededBFV(ctx, data)
	}
	return UnmarshalBFV(ctx, data)
}

// MarshalCKKS serializes a CKKS ciphertext (the scale travels in the
// header's spare field, the level as the residue count).
func MarshalCKKS(ct *ckks.Ciphertext) []byte {
	return marshalFrame(SchemeCKKS, ct.Scale, nil, ct.Value...)
}

// UnmarshalCKKS reconstructs a CKKS ciphertext.
func UnmarshalCKKS(ctx *ckks.Context, data []byte) (*ckks.Ciphertext, error) {
	value, scale, _, err := unmarshalFrame(ctx.Context, SchemeCKKS, data)
	if err != nil {
		return nil, err
	}
	return &ckks.Ciphertext{Value: value, Level: len(value[0].Coeffs) - 1, Scale: scale}, nil
}

// MarshalSeededCKKS serializes a seed-compressed CKKS ciphertext.
func MarshalSeededCKKS(sct *ckks.SeededCiphertext) []byte {
	return marshalFrame(SchemeCKKSSeeded, sct.Scale, &sct.Seed, sct.C0)
}

// UnmarshalSeededCKKS reconstructs and expands a seed-compressed CKKS
// ciphertext into a regular two-component one (the server-side step).
func UnmarshalSeededCKKS(ctx *ckks.Context, data []byte) (*ckks.Ciphertext, error) {
	value, scale, seed, err := unmarshalFrame(ctx.Context, SchemeCKKSSeeded, data)
	if err != nil {
		return nil, err
	}
	sct := &ckks.SeededCiphertext{C0: value[0], Seed: seed, Level: len(value[0].Coeffs) - 1, Scale: scale}
	return sct.Expand(ctx), nil
}

// UnmarshalAnyCKKS dispatches on the scheme tag, accepting both
// regular and seed-compressed CKKS ciphertexts.
func UnmarshalAnyCKKS(ctx *ckks.Context, data []byte) (*ckks.Ciphertext, error) {
	if hasTag(data, SchemeCKKSSeeded) {
		return UnmarshalSeededCKKS(ctx, data)
	}
	return UnmarshalCKKS(ctx, data)
}

// Transport moves framed messages between the client and the offload
// server and accounts for every byte, which is the quantity CHOCO
// optimizes.
type Transport interface {
	Send(msg []byte) error
	Recv() ([]byte, error)
	// SentBytes and ReceivedBytes report cumulative traffic from this
	// endpoint's perspective (payload plus 4-byte frame length).
	SentBytes() int64
	ReceivedBytes() int64
}

// Pipe is an in-memory duplex transport pair for same-process
// client/server experiments.
type Pipe struct {
	out       chan []byte
	in        chan []byte
	mu        sync.Mutex
	sent      int64
	received  int64
	closeOnce sync.Once
	closed    chan struct{}
}

// NewPipe returns two connected endpoints.
func NewPipe() (*Pipe, *Pipe) {
	ab := make(chan []byte, 1024)
	ba := make(chan []byte, 1024)
	closed := make(chan struct{})
	a := &Pipe{out: ab, in: ba, closed: closed}
	b := &Pipe{out: ba, in: ab, closed: closed}
	return a, b
}

// Send delivers one message.
func (p *Pipe) Send(msg []byte) error {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	select {
	case p.out <- cp:
	case <-p.closed:
		return fmt.Errorf("protocol: pipe closed")
	}
	p.mu.Lock()
	p.sent += int64(len(msg)) + 4
	p.mu.Unlock()
	return nil
}

// Recv blocks for the next message.
func (p *Pipe) Recv() ([]byte, error) {
	select {
	case msg := <-p.in:
		p.mu.Lock()
		p.received += int64(len(msg)) + 4
		p.mu.Unlock()
		return msg, nil
	case <-p.closed:
		return nil, io.EOF
	}
}

// Close shuts both endpoints down.
func (p *Pipe) Close() {
	p.closeOnce.Do(func() { close(p.closed) })
}

// SentBytes reports bytes sent from this endpoint.
func (p *Pipe) SentBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// ReceivedBytes reports bytes received at this endpoint.
func (p *Pipe) ReceivedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.received
}

// Conn is a length-prefix framed transport over a net.Conn (the real
// client/server deployment in cmd/chocoserver and cmd/chococlient).
// Optional per-frame timeouts bound how long a Send or Recv may take
// end to end, so a stalled peer (for example one that wrote only half
// a frame) errors out instead of hanging a server worker forever.
type Conn struct {
	c        net.Conn
	mu       sync.Mutex
	sent     int64
	received int64

	readTimeout  time.Duration
	writeTimeout time.Duration
	interrupted  bool
}

// NewConn wraps a network connection.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// SetReadTimeout bounds each subsequent Recv: the entire frame (length
// prefix and payload) must arrive within d of the Recv call. Zero
// disables the bound. Safe to adjust between frames.
func (t *Conn) SetReadTimeout(d time.Duration) {
	t.mu.Lock()
	t.readTimeout = d
	t.mu.Unlock()
	if d <= 0 {
		t.c.SetReadDeadline(time.Time{})
	}
}

// SetWriteTimeout bounds each subsequent Send the same way.
func (t *Conn) SetWriteTimeout(d time.Duration) {
	t.mu.Lock()
	t.writeTimeout = d
	t.mu.Unlock()
	if d <= 0 {
		t.c.SetWriteDeadline(time.Time{})
	}
}

// Interrupt unblocks any Send or Recv in flight and fails all future
// ones. Used to tear idle connections down during server shutdown.
func (t *Conn) Interrupt() {
	t.mu.Lock()
	t.interrupted = true
	t.mu.Unlock()
	t.c.SetDeadline(time.Now())
}

// armRead applies the read deadline for one Recv; reports false when
// the connection has been interrupted.
func (t *Conn) armRead() bool {
	t.mu.Lock()
	d, stop := t.readTimeout, t.interrupted
	t.mu.Unlock()
	if stop {
		return false
	}
	if d > 0 {
		t.c.SetReadDeadline(time.Now().Add(d))
	}
	return true
}

func (t *Conn) armWrite() bool {
	t.mu.Lock()
	d, stop := t.writeTimeout, t.interrupted
	t.mu.Unlock()
	if stop {
		return false
	}
	if d > 0 {
		t.c.SetWriteDeadline(time.Now().Add(d))
	}
	return true
}

// ErrInterrupted reports a transport torn down via Interrupt.
var ErrInterrupted = fmt.Errorf("protocol: connection interrupted")

// Send writes a 4-byte length prefix followed by the message.
func (t *Conn) Send(msg []byte) error {
	if !t.armWrite() {
		return ErrInterrupted
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(msg)))
	if _, err := t.c.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := t.c.Write(msg); err != nil {
		return err
	}
	t.mu.Lock()
	t.sent += int64(len(msg)) + 4
	t.mu.Unlock()
	return nil
}

// MaxFrameBytes bounds a single framed message (1 GiB — comfortably
// above the largest evaluation-key bundle at the paper's parameters).
const MaxFrameBytes = 1 << 30

// recvChunkBytes is the growth step for large frame bodies: memory is
// committed only as the peer's bytes actually arrive, so an
// unauthenticated client cannot force a huge allocation with a 4-byte
// length prefix alone.
const recvChunkBytes = 1 << 20

// Recv reads one framed message.
func (t *Conn) Recv() ([]byte, error) {
	if !t.armRead() {
		return nil, ErrInterrupted
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(t.c, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("protocol: frame too large (%d)", n)
	}
	first := int(n)
	if first > recvChunkBytes {
		first = recvChunkBytes
	}
	msg := make([]byte, first)
	if _, err := io.ReadFull(t.c, msg); err != nil {
		return nil, err
	}
	for len(msg) < int(n) {
		chunk := int(n) - len(msg)
		if chunk > recvChunkBytes {
			chunk = recvChunkBytes
		}
		start := len(msg)
		msg = append(msg, make([]byte, chunk)...)
		if _, err := io.ReadFull(t.c, msg[start:]); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	t.received += int64(n) + 4
	t.mu.Unlock()
	return msg, nil
}

// SentBytes reports cumulative sent bytes.
func (t *Conn) SentBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent
}

// ReceivedBytes reports cumulative received bytes.
func (t *Conn) ReceivedBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.received
}

// Close closes the underlying connection.
func (t *Conn) Close() error { return t.c.Close() }
