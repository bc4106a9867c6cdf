package protocol

import (
	"bytes"
	"testing"
)

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
