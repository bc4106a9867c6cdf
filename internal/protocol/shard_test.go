package protocol

import (
	"bytes"
	"strings"
	"testing"
)

func TestShardHelloRoundTrip(t *testing.T) {
	cases := []struct{ id, hint string }{
		{"sess-1", ""},
		{"sess-1", "127.0.0.1:7501"},
		{strings.Repeat("x", MaxSessionIDLen), strings.Repeat("p", MaxPeerAddrLen)},
	}
	for _, c := range cases {
		raw, err := MarshalShardHello(c.id, c.hint)
		if err != nil {
			t.Fatalf("marshal (%q,%q): %v", c.id, c.hint, err)
		}
		if !IsShardHello(raw) {
			t.Fatalf("IsShardHello false for marshaled frame")
		}
		if IsHello(raw) || IsKeyFetch(raw) {
			t.Fatalf("shard hello misidentified as another frame family")
		}
		id, hint, err := UnmarshalShardHello(raw)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if id != c.id || hint != c.hint {
			t.Fatalf("round trip (%q,%q) != (%q,%q)", id, hint, c.id, c.hint)
		}
	}
	if _, err := MarshalShardHello("", ""); err == nil {
		t.Error("empty session ID accepted")
	}
	if _, err := MarshalShardHello("x", strings.Repeat("p", MaxPeerAddrLen+1)); err == nil {
		t.Error("oversized hint accepted")
	}
	if _, _, err := UnmarshalShardHello([]byte("short")); err == nil {
		t.Error("truncated shard hello accepted")
	}
}

func TestKeyFetchRoundTrip(t *testing.T) {
	raw, err := MarshalKeyFetch("fetch-me")
	if err != nil {
		t.Fatal(err)
	}
	if !IsKeyFetch(raw) {
		t.Fatal("IsKeyFetch false for marshaled frame")
	}
	id, err := UnmarshalKeyFetch(raw)
	if err != nil || id != "fetch-me" {
		t.Fatalf("round trip: %q, %v", id, err)
	}

	bundle := []byte("pretend-key-bundle-bytes")
	found, got, err := UnmarshalKeyFetchResp(MarshalKeyFetchResp(true, bundle))
	if err != nil || !found || !bytes.Equal(got, bundle) {
		t.Fatalf("found resp round trip: %v %q %v", found, got, err)
	}
	found, got, err = UnmarshalKeyFetchResp(MarshalKeyFetchResp(false, bundle))
	if err != nil || found || got != nil {
		t.Fatalf("miss resp must drop the bundle: %v %q %v", found, got, err)
	}
}

func TestPeerPingPongRoundTrip(t *testing.T) {
	if !IsPeerPing(MarshalPeerPing()) {
		t.Fatal("IsPeerPing false for marshaled frame")
	}
	h := PeerHealth{Draining: true, ActiveSessions: 5, MaxSessions: 8}
	got, err := UnmarshalPeerPong(MarshalPeerPong(h))
	if err != nil || got != h {
		t.Fatalf("pong round trip: %+v, %v", got, err)
	}
	if _, err := UnmarshalPeerPong([]byte("short")); err == nil {
		t.Error("truncated pong accepted")
	}
}

func TestStatsFetchRoundTrip(t *testing.T) {
	if !IsStatsFetch(MarshalStatsFetch()) {
		t.Fatal("IsStatsFetch false for marshaled frame")
	}
	body := []byte(`{"SessionsTotal":3}`)
	got, err := UnmarshalStatsResp(MarshalStatsResp(body))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("stats resp round trip: %q, %v", got, err)
	}
}

func TestShardHelloTenantRoundTrip(t *testing.T) {
	frame, err := MarshalShardHelloTenant("sess-1", "127.0.0.1:7501", "tenant-b")
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseShardHello(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.SessionID != "sess-1" || h.PrevOwnerPeer != "127.0.0.1:7501" || h.Tenant != "tenant-b" {
		t.Fatalf("parsed %+v", h)
	}
	// Legacy decoder tolerates the trailer.
	id, hint, err := UnmarshalShardHello(frame)
	if err != nil || id != "sess-1" || hint != "127.0.0.1:7501" {
		t.Fatalf("legacy decode: (%q, %q, %v)", id, hint, err)
	}
	// Tenantless encodings are byte-identical to the original layout.
	a, _ := MarshalShardHello("sess-1", "peer")
	b, _ := MarshalShardHelloTenant("sess-1", "peer", "")
	if string(a) != string(b) {
		t.Fatal("tenantless MarshalShardHelloTenant differs from MarshalShardHello")
	}
	if _, err := ParseShardHello(frame[:len(frame)-1]); err == nil {
		t.Error("truncated tenant trailer accepted")
	}
	if _, err := ParseShardHello(append(frame, 'x')); err == nil {
		t.Error("trailing bytes after tenant accepted")
	}
}
