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
		raw, err := MarshalShardHelloTenant(c.id, c.hint, "")
		if err != nil {
			t.Fatalf("marshal (%q,%q): %v", c.id, c.hint, err)
		}
		if !IsShardHello(raw) {
			t.Fatalf("IsShardHello false for marshaled frame")
		}
		if IsHello(raw) || IsKeyFetch(raw) {
			t.Fatalf("shard hello misidentified as another frame family")
		}
		h, err := ParseShardHello(raw)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if h.SessionID != c.id || h.PrevOwnerPeer != c.hint || h.Tenant != "" {
			t.Fatalf("round trip %+v != (%q,%q)", h, c.id, c.hint)
		}
	}
	if _, err := MarshalShardHelloTenant("", "", ""); err == nil {
		t.Error("empty session ID accepted")
	}
	if _, err := MarshalShardHelloTenant("x", strings.Repeat("p", MaxPeerAddrLen+1), ""); err == nil {
		t.Error("oversized hint accepted")
	}
	if _, err := ParseShardHello([]byte("short")); err == nil {
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
	// A tenantless encoding has no trailer.
	if a, _ := MarshalShardHelloTenant("sess-1", "peer", ""); len(a) != 16+len("sess-1")+len("peer") {
		t.Fatalf("tenantless shard hello is %d B, want %d", len(a), 16+len("sess-1")+len("peer"))
	}
	if _, err := ParseShardHello(frame[:len(frame)-1]); err == nil {
		t.Error("truncated tenant trailer accepted")
	}
	if _, err := ParseShardHello(append(frame, 'x')); err == nil {
		t.Error("trailing bytes after tenant accepted")
	}
}
