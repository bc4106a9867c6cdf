package protocol

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"choco/internal/bfv"
)

func TestHelloRoundTrip(t *testing.T) {
	frame, err := MarshalHelloTenant("client-42", "")
	if err != nil {
		t.Fatal(err)
	}
	if !IsHello(frame) {
		t.Fatal("IsHello rejected a hello frame")
	}
	h, err := ParseHello(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.SessionID != "client-42" {
		t.Fatalf("session ID %q", h.SessionID)
	}
}

func TestHelloValidation(t *testing.T) {
	if _, err := MarshalHelloTenant("", ""); err == nil {
		t.Error("empty session ID accepted")
	}
	if _, err := MarshalHelloTenant(strings.Repeat("x", MaxSessionIDLen+1), ""); err == nil {
		t.Error("oversized session ID accepted")
	}
	frame, _ := MarshalHelloTenant("ok", "")
	if _, err := ParseHello(frame[:10]); err == nil {
		t.Error("truncated hello accepted")
	}
	if _, err := ParseHello(append(frame, 'x')); err == nil {
		t.Error("trailing bytes accepted")
	}
	bad := make([]byte, len(frame))
	copy(bad, frame)
	bad[0] ^= 0xFF
	if _, err := ParseHello(bad); err == nil {
		t.Error("wrong magic accepted")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, st := range []HelloAckStatus{AckNeedKeys, AckKeysCached, AckBusy} {
		back, retry, err := ParseHelloAck(MarshalHelloAck(st))
		if err != nil {
			t.Fatal(err)
		}
		if back != st || retry != 0 {
			t.Fatalf("status %d round-tripped to (%d, %v)", st, back, retry)
		}
	}
	if _, _, err := ParseHelloAck([]byte{1, 2, 3}); err == nil {
		t.Error("short ack accepted")
	}
	if _, _, err := ParseHelloAck(MarshalHelloAck(HelloAckStatus(9))); err == nil {
		t.Error("unknown status accepted")
	}
}

// retiredShardHello builds the session-open frame older fleets' routers
// sent a shard in place of the client's hello: the "CSHL" magic, the
// hello version, the session ID and peer-address lengths, both strings,
// and an optional [1-byte length][tenant] trailer. The peer address
// named the shard that last held the session's keys.
func retiredShardHello(id, peer, tenant string) []byte {
	b := appendUint32(nil, 0x4c485343)
	b = appendUint32(b, HelloVersion)
	b = appendUint32(b, uint32(len(id)))
	b = appendUint32(b, uint32(len(peer)))
	b = append(append(b, id...), peer...)
	if tenant != "" {
		b = append(append(b, byte(len(tenant))), tenant...)
	}
	return b
}

// TestFirstFrameSniffing pins down the dispatch a server does on the
// opening frame: only a hello opens a session. A key bundle, an ack and
// the retired shard hello are not hellos, and ParseHello refuses each
// of them.
func TestFirstFrameSniffing(t *testing.T) {
	hello, _ := MarshalHelloTenant("s", "")
	if !IsHello(hello) {
		t.Error("hello frame misclassified")
	}
	if _, err := ParseHello(hello); err != nil {
		t.Errorf("hello frame refused: %v", err)
	}
	for name, frame := range map[string][]byte{
		"key bundle header":   appendUint32(nil, keyBundleMagic),
		"ack":                 MarshalHelloAck(AckBusy),
		"retired shard hello": retiredShardHello("s", "127.0.0.1:7501", "t"),
	} {
		if IsHello(frame) {
			t.Errorf("%s misclassified as a hello", name)
		}
		if _, err := ParseHello(frame); err == nil {
			t.Errorf("%s parsed as a hello", name)
		}
	}
}

func TestHelloTenantRoundTrip(t *testing.T) {
	frame, err := MarshalHelloTenant("client-42", "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHello(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.SessionID != "client-42" || h.Tenant != "tenant-a" {
		t.Fatalf("parsed %+v", h)
	}
}

func TestHelloTenantlessBytesUnchanged(t *testing.T) {
	// A tenantless hello has no flags and no tenant section: the frame
	// ends at the session ID.
	a, err := MarshalHelloTenant("client-42", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 16+len("client-42") || binary.LittleEndian.Uint32(a[8:]) != 0 {
		t.Fatalf("tenantless hello is %d B with flags %#x, want %d B and none", len(a), binary.LittleEndian.Uint32(a[8:]), 16+len("client-42"))
	}
	h, err := ParseHello(a)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tenant != "" {
		t.Fatalf("tenantless frame parsed with tenant %q", h.Tenant)
	}
}

func TestHelloTenantValidation(t *testing.T) {
	if _, err := MarshalHelloTenant("ok", strings.Repeat("t", MaxTenantLen+1)); err == nil {
		t.Error("oversized tenant accepted")
	}
	frame, _ := MarshalHelloTenant("ok", "tenant-a")
	if _, err := ParseHello(frame[:len(frame)-1]); err == nil {
		t.Error("truncated tenant section accepted")
	}
	if _, err := ParseHello(append(frame, 'x')); err == nil {
		t.Error("trailing bytes after tenant accepted")
	}
	// A tenant flag with a zero-length tenant is implausible.
	bad := make([]byte, len(frame))
	copy(bad, frame)
	bad[16+2] = 0
	if _, err := ParseHello(bad[:16+2+1]); err == nil {
		t.Error("zero-length tenant accepted")
	}
}

func TestHelloAckRetryAfter(t *testing.T) {
	frame := MarshalHelloAckRetry(AckBusy, 250*time.Millisecond)
	if len(frame) != 12 {
		t.Fatalf("retry ack frame length %d, want 12", len(frame))
	}
	st, retry, err := ParseHelloAck(frame)
	if err != nil {
		t.Fatal(err)
	}
	if st != AckBusy || retry != 250*time.Millisecond {
		t.Fatalf("parsed (%d, %v)", st, retry)
	}
	// A zero hint falls back to the compact 8-byte form.
	if got := MarshalHelloAckRetry(AckBusy, 0); len(got) != 8 {
		t.Fatalf("zero-hint retry ack length %d, want 8", len(got))
	}
	// Sub-millisecond hints round up rather than vanishing.
	if _, retry, _ := ParseHelloAck(MarshalHelloAckRetry(AckBusy, time.Microsecond)); retry != time.Millisecond {
		t.Fatalf("sub-ms hint decoded as %v", retry)
	}
	if _, _, err := ParseHelloAck(frame[:10]); err == nil {
		t.Error("10-byte ack accepted")
	}
}

func TestSessionErrorFrame(t *testing.T) {
	frame := MarshalSessionError("internal error during inference 2")
	if msg, ok := ParseSessionError(frame); !ok || msg != "internal error during inference 2" {
		t.Errorf("round trip: %q, %v", msg, ok)
	}
	long := MarshalSessionError(strings.Repeat("x", 2*MaxSessionErrorLen))
	if msg, ok := ParseSessionError(long); !ok || len(msg) != MaxSessionErrorLen {
		t.Errorf("an over-long message came back %d B, ok=%v; want it truncated to %d", len(msg), ok, MaxSessionErrorLen)
	}
	// No other frame a client waits for parses as one, and an error
	// frame is no ciphertext.
	for _, other := range [][]byte{nil, {1, 2, 3}, MarshalHelloAck(AckBusy), append(MarshalSessionError(""), make([]byte, MaxSessionErrorLen+1)...)} {
		if _, ok := ParseSessionError(other); ok {
			t.Errorf("a %d-byte non-error frame parsed as a session error", len(other))
		}
	}
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBFV(ctx, frame); err == nil {
		t.Error("a session-error frame decoded as a ciphertext")
	}
}
