package protocol

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"choco/internal/ring"
)

// The fabric router parses frames from unauthenticated TCP clients
// before any session exists, so the wire decoders must be total: any
// byte string either decodes cleanly or returns an error — never a
// panic, never an out-of-bounds read, never an allocation larger than
// the bytes the peer actually delivered.

// byteConn is a read-only net.Conn over a fixed byte string, for
// driving the framed reader from fuzz inputs.
type byteConn struct {
	r *bytes.Reader
}

func (c *byteConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *byteConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *byteConn) Close() error                { return nil }

func (c *byteConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *byteConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *byteConn) SetDeadline(t time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(t time.Time) error { return nil }

// frame length-prefixes a payload the way Conn.Send does.
func frame(payload []byte) []byte {
	buf := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	return buf
}

// FuzzReadFrame feeds arbitrary bytes to the framed Conn reader. Every
// successfully received frame must be bounded by the input that backed
// it, and a stream must terminate (error) once the bytes run out.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: empty stream, a well-formed small frame, two frames
	// back to back, a truncated body, an oversized length prefix, and a
	// length prefix with no body at all.
	f.Add([]byte{})
	f.Add(frame([]byte("hello")))
	f.Add(append(frame([]byte{1, 2, 3}), frame(nil)...))
	f.Add(frame([]byte("truncated"))[:6])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0x10, 0x00, 0x00, 0x00})
	if hello, err := MarshalHelloTenant("fuzz-session", ""); err == nil {
		f.Add(frame(hello))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(&byteConn{r: bytes.NewReader(data)})
		var consumed int64
		for i := 0; i < 16; i++ {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			consumed += int64(len(msg)) + 4
			if consumed > int64(len(data)) {
				t.Fatalf("received %d framed bytes from a %d-byte stream", consumed, len(data))
			}
			if c.ReceivedBytes() != consumed {
				t.Fatalf("accounting: ReceivedBytes=%d, want %d", c.ReceivedBytes(), consumed)
			}
		}
	})
}

// FuzzHelloFrame throws arbitrary bytes at every session/fabric frame
// decoder and checks the invariants of whatever decodes successfully.
func FuzzHelloFrame(f *testing.F) {
	// Seed corpus: one valid instance of each frame family plus
	// truncations, a wrong-magic frame, and the retired shard-to-shard
	// frames an older router or shard would still send, which no decoder
	// here may take for its own.
	if b, err := MarshalHelloTenant("seed-session", ""); err == nil {
		f.Add(b)
		f.Add(b[:12])
	}
	if b, err := MarshalHelloTenant("seed-session", "tenant-a"); err == nil {
		f.Add(b)
		f.Add(b[:len(b)-3]) // truncated tenant section
	}
	f.Add(MarshalHelloAck(AckKeysCached))
	f.Add(MarshalHelloAckRetry(AckBusy, 250*time.Millisecond))
	f.Add(retiredShardHello("seed-session", "127.0.0.1:7501", ""))
	f.Add(retiredShardHello("seed-session", "", ""))
	f.Add(retiredShardHello("seed-session", "127.0.0.1:7501", "tenant-a"))
	f.Add(append(appendUint32(appendUint32(nil, 0x51464b43), 12), "seed-session"...))                       // "CKFQ": key fetch
	f.Add(append(appendUint32(appendUint32(appendUint32(nil, 0x52464b43), 1), 17), "not-a-real-bundle"...)) // "CKFR": found
	f.Add(appendUint32(appendUint32(appendUint32(nil, 0x52464b43), 0), 0))                                  // "CKFR": missed
	f.Add(MarshalPeerPing())
	f.Add(MarshalPeerPong(PeerHealth{Draining: true, ActiveSessions: 3, MaxSessions: 8}))
	f.Add(MarshalStatsFetch())
	f.Add(MarshalStatsResp([]byte(`{"SessionsTotal":1}`)))
	f.Add(MarshalSessionError("internal error during inference 2"))
	f.Add([]byte("CHK2notreallyakeybundle"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := ParseHello(data); err == nil {
			if h.SessionID == "" || len(h.SessionID) > MaxSessionIDLen || len(h.Tenant) > MaxTenantLen {
				t.Fatalf("hello decoded out-of-bounds fields (%q, %q)", h.SessionID, h.Tenant)
			}
			re, err := MarshalHelloTenant(h.SessionID, h.Tenant)
			if err != nil {
				t.Fatalf("decoded hello %+v does not re-marshal: %v", h, err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("hello round trip mismatch")
			}
		}
		if st, retry, err := ParseHelloAck(data); err == nil {
			if st > AckBusy {
				t.Fatalf("hello ack decoded unknown status %d", st)
			}
			if retry < 0 {
				t.Fatalf("hello ack decoded negative retry-after %v", retry)
			}
		}
		if _, err := UnmarshalPeerPong(data); err == nil && len(data) != 16 {
			t.Fatalf("peer pong accepted %d-byte frame", len(data))
		}
		if body, err := UnmarshalStatsResp(data); err == nil && len(body) > len(data) {
			t.Fatalf("stats body longer than frame")
		}
		if msg, ok := ParseSessionError(data); ok && (len(msg) > MaxSessionErrorLen || !bytes.Equal(MarshalSessionError(msg), data)) {
			t.Fatalf("session error round trip mismatch (%d B message)", len(msg))
		}
	})
}

// The peer frames cross the fleet's internal boundary: the router's
// PeerPing and StatsFetch and the shards' answers. A shard that has been
// taken over, or a peer port reachable from outside, makes each of them
// outside input. The two targets below hold every decoder to the same
// rule: an error, or a value that marshals back to exactly the bytes it
// came from.

// FuzzPeerPing covers the router's health probe and the shard's answer.
func FuzzPeerPing(f *testing.F) {
	f.Add(MarshalPeerPing())
	f.Add(append(MarshalPeerPing(), 1))
	f.Add(mutated(MarshalPeerPing(), setU32(4, 1)))
	pong := MarshalPeerPong(PeerHealth{Draining: true, ActiveSessions: 3, MaxSessions: 8})
	f.Add(pong)
	f.Add(pong[:12])
	f.Add(mutated(pong, setU32(4, 3)))     // an unknown flag
	f.Add(mutated(pong, setU32(8, 1<<31))) // a negative session count
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if IsPeerPing(data) && !bytes.Equal(MarshalPeerPing(), data) {
			t.Fatal("a frame that is not MarshalPeerPing's passes for a ping")
		}
		if h, err := UnmarshalPeerPong(data); err == nil {
			if h.ActiveSessions < 0 || h.MaxSessions < 0 || !bytes.Equal(MarshalPeerPong(h), data) {
				t.Fatalf("peer pong %+v does not marshal back to its frame", h)
			}
		}
	})
}

// FuzzStatsFetch covers the router's stats request and the shard's answer.
func FuzzStatsFetch(f *testing.F) {
	f.Add(MarshalStatsFetch())
	f.Add(append(MarshalStatsFetch(), 0))
	resp := MarshalStatsResp([]byte(`{"SessionsTotal":1}`))
	f.Add(resp)
	f.Add(resp[:len(resp)-1])
	f.Add(mutated(resp, setU32(4, 1<<31)))
	f.Add(MarshalStatsResp(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if IsStatsFetch(data) && !bytes.Equal(MarshalStatsFetch(), data) {
			t.Fatal("a frame that is not MarshalStatsFetch's passes for a stats request")
		}
		if body, err := UnmarshalStatsResp(data); err == nil {
			if !bytes.Equal(MarshalStatsResp(body), data) {
				t.Fatalf("stats response (%d B body) does not marshal back to its frame", len(body))
			}
		}
	})
}

// FuzzUnmarshalBFVRead throws arbitrary bytes, seeded from a rounded
// read reply and its near misses, at the decoder a client runs on every
// product-packed reply (UnmarshalRoundedRead): the outcome is an error, or
// c0 alone whose residues are all reduced, which is zero off the read
// set, and which rounds back to exactly the bytes it came from.
func FuzzUnmarshalBFVRead(f *testing.F) {
	w := newWireFrames(f)
	frame := w.bfvRead
	f.Add(frame)
	f.Add(frame[:len(frame)/2])
	f.Add(frame[:headerBytes])
	f.Add(mutated(frame, setU64(len(frame)-8, math.MaxUint64)))
	f.Add(mutated(frame, setU64(16, uint64(w.readWidth)<<32|uint64(len(w.readIdx)-1))))
	f.Add(mutated(frame, setU32(12, 2)))
	f.Add(mutated(frame, setU32(0, HelloVersion<<16|6)))
	f.Add(w.bfvDropped)
	f.Add([]byte{})
	reads := map[int]bool{}
	for _, k := range w.readIdx {
		reads[k] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := UnmarshalRoundedRead(w.bctx, data, w.readIdx, w.readWidth)
		if err != nil {
			return
		}
		if len(ct.Value) != 1 {
			t.Fatalf("decoded %d components, want c0 alone", len(ct.Value))
		}
		checkFuzzedC0(t, w.bctx.RingAtDrop(ct.Drop), ct.Value[0], reads)
		if !bytes.Equal(AppendRoundedRead(nil, w.bctx, ct.Value[0], w.readIdx, w.readWidth), data) {
			t.Fatal("an accepted read reply rounds back to different bytes")
		}
	})
}

// FuzzUnmarshalRoundedUpload throws arbitrary bytes, seeded from a
// rounded upload and its near misses, at the decoder a server runs on
// every product layer's upload (UnmarshalRoundedUpload): the outcome is
// an error, or c0 alone at the full data modulus whose residues are all
// reduced, and which rounds back to exactly the bytes it came from.
func FuzzUnmarshalRoundedUpload(f *testing.F) {
	w := newWireFrames(f)
	frame := w.bfvUpload
	f.Add(frame)
	f.Add(frame[:len(frame)/2])
	f.Add(frame[:headerBytes])
	f.Add(mutated(frame, setU64(len(frame)-8, math.MaxUint64)))
	f.Add(mutated(frame, setU64(16, uint64(w.uploadWidth-1)<<32)))
	f.Add(mutated(frame, setU32(12, 1)))
	f.Add(w.bfvSeeded)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := UnmarshalRoundedUpload(w.bctx, data, w.uploadWidth)
		if err != nil {
			return
		}
		if len(ct.Value) != 1 || ct.Drop != 0 {
			t.Fatalf("decoded %d components at drop %d, want c0 alone at drop 0", len(ct.Value), ct.Drop)
		}
		checkFuzzedC0(t, w.bctx.RingQ, ct.Value[0], nil)
		if !bytes.Equal(AppendRoundedUpload(nil, w.bctx, ct.Value[0], w.uploadWidth), data) {
			t.Fatal("an accepted upload rounds back to different bytes")
		}
	})
}

// checkFuzzedC0 fails t unless c0 is a polynomial of r whose residues are
// reduced and, when reads is not nil, zero off the read set.
func checkFuzzedC0(t *testing.T, r *ring.Ring, c0 *ring.Poly, reads map[int]bool) {
	t.Helper()
	if len(c0.Coeffs) != len(r.Moduli) {
		t.Fatalf("c0 has %d residue rows, the ring %d", len(c0.Coeffs), len(r.Moduli))
	}
	for i, row := range c0.Coeffs {
		if len(row) != r.N {
			t.Fatalf("c0 row %d has %d coefficients, want %d", i, len(row), r.N)
		}
		for j, v := range row {
			if v >= r.Moduli[i].Value {
				t.Fatalf("c0 residue [%d][%d] = %d is not reduced", i, j, v)
			}
			if v != 0 && reads != nil && !reads[j] {
				t.Fatalf("c0 row %d holds %d at %d, off the read set", i, v, j)
			}
		}
	}
}

// FuzzUnmarshalModel throws arbitrary bytes, seeded from a model frame and
// its near misses, at the decoder a client runs on the one model frame it
// fetches: the outcome is an error, or the client's own layers' weights,
// each within its width's range, which marshal back to exactly the bytes
// they came from.
func FuzzUnmarshalModel(f *testing.F) {
	layers, weights := testModel()
	frame, err := MarshalModel(layers, weights, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[:len(frame)-1])
	f.Add(frame[:modelHeaderBytes])
	f.Add(mutated(frame, setU32(8, 8)))
	f.Add(mutated(frame, setU32(12, 1)))
	f.Add(mutated(frame, setU32(modelHeaderBytes+4, 5)))
	f.Add(mutated(frame, setU64(len(frame)-8, math.MaxUint64)))
	f.Add(MarshalModelRequest())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		bits, got, err := UnmarshalModel(data, layers)
		if err != nil {
			return
		}
		lim := int64(1)<<(bits-1) - 1
		for i, l := range layers {
			if len(got[i]) != l.Out*l.In*l.Taps {
				t.Fatalf("layer %d decoded %d weights, its shape takes %d", i, len(got[i]), l.Out*l.In*l.Taps)
			}
			for _, w := range got[i] {
				if w < -lim || w > lim {
					t.Fatalf("layer %d weight %d outside ±%d at %d bits", i, w, lim, bits)
				}
			}
		}
		back, err := MarshalModel(layers, got, bits)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("an accepted model frame marshals back to different bytes (%v)", err)
		}
	})
}
