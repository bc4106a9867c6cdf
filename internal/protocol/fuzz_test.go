package protocol

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"
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
	if hello, err := MarshalHello("fuzz-session"); err == nil {
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
	// truncations and a wrong-magic frame.
	if b, err := MarshalHello("seed-session"); err == nil {
		f.Add(b)
		f.Add(b[:12])
	}
	if b, err := MarshalHelloTenant("seed-session", "tenant-a"); err == nil {
		f.Add(b)
		f.Add(b[:len(b)-3]) // truncated tenant section
	}
	f.Add(MarshalHelloAck(AckKeysCached))
	f.Add(MarshalHelloAckRetry(AckBusy, 250*time.Millisecond))
	if b, err := MarshalShardHello("seed-session", "127.0.0.1:7501"); err == nil {
		f.Add(b)
	}
	if b, err := MarshalShardHello("seed-session", ""); err == nil {
		f.Add(b)
	}
	if b, err := MarshalShardHelloTenant("seed-session", "127.0.0.1:7501", "tenant-a"); err == nil {
		f.Add(b)
	}
	if b, err := MarshalKeyFetch("seed-session"); err == nil {
		f.Add(b)
	}
	f.Add(MarshalKeyFetchResp(true, []byte("not-a-real-bundle")))
	f.Add(MarshalKeyFetchResp(false, nil))
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
		if h, err := ParseShardHello(data); err == nil {
			if h.SessionID == "" || len(h.SessionID) > MaxSessionIDLen ||
				len(h.PrevOwnerPeer) > MaxPeerAddrLen || len(h.Tenant) > MaxTenantLen {
				t.Fatalf("shard hello decoded out-of-bounds fields %+v", h)
			}
			re, err := MarshalShardHelloTenant(h.SessionID, h.PrevOwnerPeer, h.Tenant)
			if err != nil {
				t.Fatalf("decoded shard hello does not re-marshal: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("shard hello round trip mismatch")
			}
		}
		if id, err := UnmarshalKeyFetch(data); err == nil {
			if id == "" || len(id) > MaxSessionIDLen {
				t.Fatalf("key fetch decoded out-of-bounds session ID %q", id)
			}
		}
		if found, bundle, err := UnmarshalKeyFetchResp(data); err == nil {
			if !found && bundle != nil {
				t.Fatalf("key-miss response carried a bundle")
			}
			if len(bundle) > len(data) {
				t.Fatalf("bundle longer than frame")
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

// The shard and peer frames cross the fleet's internal boundary: a router
// authors ShardHello, shards answer one another's KeyFetch — a response
// that carries a whole packed key bundle — and the router's PeerPing and
// StatsFetch. A shard that has been taken over, or a peer port reachable
// from outside, makes each of them outside input. The four targets below
// hold every decoder to the same rule: an error, or a value that marshals
// back to exactly the bytes it came from.

// FuzzShardHello covers the router→shard opener, tenant trailer included.
func FuzzShardHello(f *testing.F) {
	for _, args := range [][3]string{
		{"seed-session", "", ""},
		{"seed-session", "127.0.0.1:7501", ""},
		{"seed-session", "127.0.0.1:7501", "tenant-a"},
		{"s", "", "t"},
	} {
		b, err := MarshalShardHelloTenant(args[0], args[1], args[2])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(b, 0))
		f.Add(mutated(b, setU32(4, 1))) // a version-1 router
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseShardHello(data)
		if id, peer, err2 := UnmarshalShardHello(data); (err == nil) != (err2 == nil) || id != h.SessionID || peer != h.PrevOwnerPeer {
			t.Fatalf("UnmarshalShardHello and ParseShardHello disagree: %v / %v", err, err2)
		}
		if err != nil {
			return
		}
		if !IsShardHello(data) {
			t.Fatal("decoded a frame IsShardHello does not recognize")
		}
		re, err := MarshalShardHelloTenant(h.SessionID, h.PrevOwnerPeer, h.Tenant)
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("shard hello %+v does not marshal back to its frame (%v)", h, err)
		}
	})
}

// FuzzKeyFetch covers the shard→shard key request and its response.
func FuzzKeyFetch(f *testing.F) {
	if b, err := MarshalKeyFetch("seed-session"); err == nil {
		f.Add(b)
		f.Add(b[:6])
		f.Add(append(b, 'x'))
	}
	for _, fx := range newBundleFixtures(f) {
		f.Add(MarshalKeyFetchResp(true, fx.frame[:4096]))
	}
	f.Add(MarshalKeyFetchResp(true, nil))
	f.Add(MarshalKeyFetchResp(false, nil))
	f.Add(mutated(MarshalKeyFetchResp(true, []byte("bundle")), setU32(4, 0))) // a miss with a body
	f.Add(mutated(MarshalKeyFetchResp(false, nil), setU32(8, 1<<31)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if id, err := UnmarshalKeyFetch(data); err == nil {
			if re, err := MarshalKeyFetch(id); err != nil || !bytes.Equal(re, data) || !IsKeyFetch(data) {
				t.Fatalf("key fetch for %q does not marshal back to its frame (%v)", id, err)
			}
		}
		if found, bundle, err := UnmarshalKeyFetchResp(data); err == nil {
			if !bytes.Equal(MarshalKeyFetchResp(found, bundle), data) {
				t.Fatalf("key fetch response (found %v, %d B) does not marshal back to its frame", found, len(bundle))
			}
		}
	})
}

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
