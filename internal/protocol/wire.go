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
	"slices"
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
	// SchemeBFVRounded tags a product layer's upload: c0 rounded to d bits
	// a coefficient and no seed (AppendRoundedUpload). SchemeBFVRoundedRead
	// tags its reply: the switched c0 rounded to d′ bits at the
	// coefficients the layer reads (AppendRoundedRead); the client rebuilds
	// c1. Tags 5 and 6 were full-width read replies and are refused by
	// name (tagNames).
	SchemeBFVRounded     = HelloVersion<<16 | uint32(7)
	SchemeBFVRoundedRead = HelloVersion<<16 | uint32(8)
)

// tagNames names every ciphertext tag a peer of this version may meet,
// the retired ones included, for the error that refuses one where another
// is due.
var tagNames = map[uint32]string{
	SchemeBFV:                    "full BFV ciphertext",
	SchemeCKKS:                   "full CKKS ciphertext",
	SchemeBFVSeeded:              "seeded BFV ciphertext",
	SchemeCKKSSeeded:             "seeded CKKS ciphertext",
	HelloVersion<<16 | uint32(5): "retired read reply carrying c1 whole",
	HelloVersion<<16 | uint32(6): "retired full-width c0 read reply",
	SchemeBFVRounded:             "rounded product upload",
	SchemeBFVRoundedRead:         "rounded product read reply",
}

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
	return appendFrame(nil, tag, scale, seed, polys...)
}

// appendFrame is marshalFrame appending to dst.
func appendFrame(dst []byte, tag uint32, scale float64, seed *[seedBytes]byte, polys ...*ring.Poly) []byte {
	n, k := len(polys[0].Coeffs[0]), len(polys[0].Coeffs)
	buf := appendHeader(dst, FrameBytes(polys[0].PackedBytes(), len(polys), seed != nil)-lengthPrefixBytes,
		tag, len(polys), n, k, math.Float64bits(scale))
	if seed != nil {
		buf = append(buf, seed[:]...)
	}
	for _, p := range polys {
		buf = p.AppendPacked(buf)
	}
	return buf
}

// appendHeader appends a 24-byte frame header to dst, growing it to hold
// a frame of size bytes, and returns it.
func appendHeader(dst []byte, size int, tag uint32, components, n, k int, spare uint64) []byte {
	off := len(dst)
	buf := slices.Grow(dst, size)[:off+headerBytes]
	h := buf[off:]
	binary.LittleEndian.PutUint32(h[0:], tag)
	binary.LittleEndian.PutUint32(h[4:], uint32(components))
	binary.LittleEndian.PutUint32(h[8:], uint32(n))
	binary.LittleEndian.PutUint32(h[12:], uint32(k))
	binary.LittleEndian.PutUint64(h[16:], spare)
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
	if family := got & 0xffff; got>>16 != HelloVersion && family >= SchemeBFV&0xffff && family <= SchemeBFVRoundedRead&0xffff {
		// Version 1 wrote the bare family, before tags carried a version.
		return fmt.Errorf("protocol: ciphertext frame is wire version %d, this peer speaks version %d (packed residue rows)",
			max(got>>16, 1), HelloVersion)
	}
	name := tagNames[got]
	if name == "" {
		name = "unknown"
	}
	return fmt.Errorf("protocol: frame tag %#x (%s) is not the expected ciphertext tag %#x (%s)", got, name, tag, tagNames[tag])
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
		value[i] = r.GetPoly()
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

// Rounded frames: a product layer's upload and reply carry c0 as d-bit
// fields r = round(c0·2^d/Q) mod 2^d (bfv.Context.AppendRounded, one pass
// that rounds and packs), in ring.AppendFields' layout behind the 24-byte
// header: tag, 1 component, N, the residue count k of the level c0 was
// rounded from, and the width d in the spare field's high half — the low
// half holds a reply's read count, and 0 in an upload, which carries every
// coefficient. Both ends derive d from the parameter set and the layer
// (bfv.Parameters.UploadBits, ReplyBits); a frame whose width is not the
// rule's is refused. An upload carries no seed: the server computes c0
// alone, and the client rebuilds the reply's c1 from its own a.

// RoundedFrameBytes returns what a rounded frame of fields d-bit fields
// costs on the wire, the transport's length prefix included: an upload
// carries N fields, a read reply one per read coefficient.
func RoundedFrameBytes(fields, d int) int {
	return lengthPrefixBytes + headerBytes + ring.PackedFieldsBytes(fields, d)
}

// AppendRoundedUpload appends to dst the upload of a product layer: c0, a
// fresh encryption's at the full data modulus, rounded to d bits at every
// coefficient. A client that uploads layer after layer reuses one buffer.
func AppendRoundedUpload(dst []byte, ctx *bfv.Context, c0 *ring.Poly, d int) []byte {
	n := len(c0.Coeffs[0])
	buf := appendHeader(dst, headerBytes+ring.PackedFieldsBytes(n, d), SchemeBFVRounded, 1, n, len(c0.Coeffs), uint64(d)<<32)
	return ctx.AppendRounded(buf, c0, d, nil)
}

// UnmarshalRoundedUpload reads the upload AppendRoundedUpload wrote at
// width d, strictly: the tag (a seeded upload, which carries a seed no
// server reads, is refused by name), N, 1 component, every data residue,
// the width against d, the exact length, and zero padding bits; a d-bit
// field is below 2^d by its width. It returns c0 lifted back to every
// residue (bfv.Context.LiftRounded) as a one-component ciphertext, the
// server half of a product layer.
func UnmarshalRoundedUpload(ctx *bfv.Context, data []byte, d int) (*bfv.Ciphertext, error) {
	c0, err := unmarshalRounded(ctx, data, SchemeBFVRounded, d, nil)
	if err != nil {
		return nil, err
	}
	return &bfv.Ciphertext{Value: []*ring.Poly{c0}}, nil
}

// AppendRoundedRead appends to dst the reply of a product layer whose
// client reads only the coefficients idx of its decryption: coefficient k
// of the decryption is c0[k] + (c1·s)[k], and the client holds c1 and s,
// so the frame carries c0 — the switched output's, at its level — rounded
// to d bits at idx and nothing else. The indices do not travel: both ends
// derive them from the layer (core.Conv2D.ReadIndices,
// core.FC.ReadIndices). A server that sends reply after reply reuses one
// buffer.
func AppendRoundedRead(dst []byte, ctx *bfv.Context, c0 *ring.Poly, idx []int, d int) []byte {
	buf := appendHeader(dst, headerBytes+ring.PackedFieldsBytes(len(idx), d),
		SchemeBFVRoundedRead, 1, len(c0.Coeffs[0]), len(c0.Coeffs), uint64(d)<<32|uint64(len(idx)))
	return ctx.AppendRounded(buf, c0, d, idx)
}

// UnmarshalRoundedRead reads a frame AppendRoundedRead wrote for the reads
// idx of a layer at width d, strictly: the tag (the retired full-width
// replies are refused by name), N, 1 component, a residue count the
// context has, the width against d and the read count against len(idx),
// the exact length, and zero padding bits. It returns the reply's c0
// lifted back at its level (bfv.Context.LiftRounded) as a one-component
// ciphertext, zero at every coefficient the layer does not read; the
// client appends the c1 it rebuilds before it decrypts, and the
// decryption is exact at the read coefficients and meaningless elsewhere.
func UnmarshalRoundedRead(ctx *bfv.Context, data []byte, idx []int, d int) (*bfv.Ciphertext, error) {
	c0, err := unmarshalRounded(ctx, data, SchemeBFVRoundedRead, d, idx)
	if err != nil {
		return nil, err
	}
	return &bfv.Ciphertext{Value: []*ring.Poly{c0}, Drop: len(ctx.RingQ.Moduli) - len(c0.Coeffs)}, nil
}

// unmarshalRounded checks a rounded frame of the family tag — an upload
// when idx is nil, a read reply of len(idx) fields otherwise — and lifts
// its fields into a polynomial of its level.
func unmarshalRounded(ctx *bfv.Context, data []byte, tag uint32, d int, idx []int) (*ring.Poly, error) {
	kind := "rounded upload"
	if idx != nil {
		kind = "read reply"
	}
	if err := checkTag(data, tag); err != nil {
		return nil, err
	}
	if len(data) < headerBytes {
		return nil, fmt.Errorf("protocol: truncated ciphertext")
	}
	deg := int(binary.LittleEndian.Uint32(data[4:]))
	n := int(binary.LittleEndian.Uint32(data[8:]))
	k := int(binary.LittleEndian.Uint32(data[12:]))
	spare := binary.LittleEndian.Uint64(data[16:])
	if full := len(ctx.RingQ.Moduli); n != ctx.RingQ.N || k < 1 || k > full || deg != 1 {
		return nil, fmt.Errorf("protocol: %s shape (N=%d,k=%d, %d components) does not match context (N=%d,k≤%d, 1 component)",
			kind, n, k, deg, ctx.RingQ.N, full)
	} else if idx == nil && k != full {
		return nil, fmt.Errorf("protocol: rounded upload from %d residues, an upload is rounded from all %d", k, full)
	}
	if width := spare >> 32; width != uint64(d) {
		return nil, fmt.Errorf("protocol: %s rounded to %d bits, the layer's width is %d", kind, width, d)
	}
	fields := n
	if idx != nil {
		fields = len(idx)
		if reads := spare & (1<<32 - 1); reads != uint64(len(idx)) {
			return nil, fmt.Errorf("protocol: read reply carries %d coefficients, the layer reads %d", reads, len(idx))
		}
	} else if spare&(1<<32-1) != 0 {
		return nil, fmt.Errorf("protocol: rounded upload names %d reads, an upload carries every coefficient", spare&(1<<32-1))
	}
	if want := headerBytes + ring.PackedFieldsBytes(fields, d); len(data) != want {
		return nil, fmt.Errorf("protocol: %s length %d, want %d", kind, len(data), want)
	}
	r := ctx.RingAtDrop(len(ctx.RingQ.Moduli) - k)
	c0 := r.GetPoly()
	row := c0.Coeffs[0]
	var err error
	if idx == nil {
		err = ring.UnpackFieldRun(data[headerBytes:], row, uint(d))
	} else {
		err = ring.UnpackFields(data[headerBytes:], len(idx), uint(d), math.MaxUint64, func(k int, v uint64) { row[idx[k]] = v })
	}
	if err != nil {
		r.PutPoly(c0)
		return nil, fmt.Errorf("protocol: %s c0: %w", kind, err)
	}
	ctx.LiftRounded(c0, d, idx)
	return c0, nil
}

// MarshalSeededBFV serializes a seed-compressed ciphertext.
func MarshalSeededBFV(sct *bfv.SeededCiphertext) []byte {
	return AppendSeededBFV(nil, sct)
}

// AppendSeededBFV is MarshalSeededBFV appending to dst: a client that
// uploads layer after layer reuses one buffer.
func AppendSeededBFV(dst []byte, sct *bfv.SeededCiphertext) []byte {
	return appendFrame(dst, SchemeBFVSeeded, 0, &sct.Seed, sct.C0)
}

// UnmarshalSeededBFV reconstructs and expands a seed-compressed
// ciphertext into a regular two-component one (the server-side step).
// BFV encrypts at full modulus only.
func UnmarshalSeededBFV(ctx *bfv.Context, data []byte) (*bfv.Ciphertext, error) {
	c0, seed, err := unmarshalSeededBFV(ctx, data)
	if err != nil {
		return nil, err
	}
	return (&bfv.SeededCiphertext{C0: c0, Seed: seed}).Expand(ctx), nil
}

// unmarshalSeededBFV reads a seeded BFV frame's c0 and seed.
func unmarshalSeededBFV(ctx *bfv.Context, data []byte) (*ring.Poly, [seedBytes]byte, error) {
	value, _, seed, err := unmarshalFrame(ctx.Context, SchemeBFVSeeded, data)
	if err != nil {
		return nil, seed, err
	}
	if len(value[0].Coeffs) != len(ctx.RingQ.Moduli) {
		return nil, seed, fmt.Errorf("protocol: seeded ciphertext shape mismatch")
	}
	return value[0], seed, nil
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
	// Send delivers msg and keeps no reference to it: a sender may
	// reuse the buffer once Send returns (Pipe copies it, Conn writes
	// it).
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
	closeOnce *sync.Once // shared by both ends, as closed is
	closed    chan struct{}
}

// NewPipe returns two connected endpoints.
func NewPipe() (*Pipe, *Pipe) {
	ab := make(chan []byte, 1024)
	ba := make(chan []byte, 1024)
	once, closed := new(sync.Once), make(chan struct{})
	a := &Pipe{out: ab, in: ba, closeOnce: once, closed: closed}
	b := &Pipe{out: ba, in: ab, closeOnce: once, closed: closed}
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

// Recv blocks for the next message. After Close it still delivers what
// the peer sent before, as a socket does, and then reports io.EOF: a
// server that sends a session-error frame and hangs up is heard.
func (p *Pipe) Recv() ([]byte, error) {
	var msg []byte
	select {
	case msg = <-p.in:
	case <-p.closed:
		select {
		case msg = <-p.in:
		default:
			return nil, io.EOF
		}
	}
	p.mu.Lock()
	p.received += int64(len(msg)) + 4
	p.mu.Unlock()
	return msg, nil
}

// Close shuts both endpoints down; either end may call it, and more than
// once.
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
	defer t.mu.Unlock()
	t.readTimeout = d
	if d <= 0 && !t.interrupted {
		t.c.SetReadDeadline(time.Time{})
	}
}

// SetWriteTimeout bounds each subsequent Send the same way.
func (t *Conn) SetWriteTimeout(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writeTimeout = d
	if d <= 0 && !t.interrupted {
		t.c.SetWriteDeadline(time.Time{})
	}
}

// Interrupt unblocks any Send or Recv in flight and fails all future
// ones. Used to tear idle connections down during server shutdown.
// Deadlines are set under t.mu, here and where a Send or Recv arms
// one, so an arming that raced the interrupt cannot push the past
// deadline back out.
func (t *Conn) Interrupt() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.interrupted = true
	t.c.SetDeadline(time.Now())
}

// armRead applies the read deadline for one Recv; reports false when
// the connection has been interrupted.
func (t *Conn) armRead() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.interrupted {
		return false
	}
	if t.readTimeout > 0 {
		t.c.SetReadDeadline(time.Now().Add(t.readTimeout))
	}
	return true
}

func (t *Conn) armWrite() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.interrupted {
		return false
	}
	if t.writeTimeout > 0 {
		t.c.SetWriteDeadline(time.Now().Add(t.writeTimeout))
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
