package protocol

import (
	"strings"
	"testing"
	"time"

	"choco/internal/bfv"
)

func TestHelloRoundTrip(t *testing.T) {
	frame, err := MarshalHello("client-42")
	if err != nil {
		t.Fatal(err)
	}
	if !IsHello(frame) {
		t.Fatal("IsHello rejected a hello frame")
	}
	id, err := UnmarshalHello(frame)
	if err != nil {
		t.Fatal(err)
	}
	if id != "client-42" {
		t.Fatalf("session ID %q", id)
	}
}

func TestHelloValidation(t *testing.T) {
	if _, err := MarshalHello(""); err == nil {
		t.Error("empty session ID accepted")
	}
	if _, err := MarshalHello(strings.Repeat("x", MaxSessionIDLen+1)); err == nil {
		t.Error("oversized session ID accepted")
	}
	frame, _ := MarshalHello("ok")
	if _, err := UnmarshalHello(frame[:10]); err == nil {
		t.Error("truncated hello accepted")
	}
	if _, err := UnmarshalHello(append(frame, 'x')); err == nil {
		t.Error("trailing bytes accepted")
	}
	bad := make([]byte, len(frame))
	copy(bad, frame)
	bad[0] ^= 0xFF
	if _, err := UnmarshalHello(bad); err == nil {
		t.Error("wrong magic accepted")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, st := range []HelloAckStatus{AckNeedKeys, AckKeysCached, AckBusy} {
		back, err := UnmarshalHelloAck(MarshalHelloAck(st))
		if err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Fatalf("status %d round-tripped to %d", st, back)
		}
	}
	if _, err := UnmarshalHelloAck([]byte{1, 2, 3}); err == nil {
		t.Error("short ack accepted")
	}
	if _, err := UnmarshalHelloAck(MarshalHelloAck(HelloAckStatus(9))); err == nil {
		t.Error("unknown status accepted")
	}
}

// TestFirstFrameSniffing pins down the dispatch a server does on the
// opening frame: hello, key bundle, and ciphertext tags are mutually
// exclusive.
func TestFirstFrameSniffing(t *testing.T) {
	hello, _ := MarshalHello("s")
	if !IsHello(hello) {
		t.Error("hello frame misclassified")
	}
	bundleHeader := appendUint32(nil, keyBundleMagic)
	if IsHello(bundleHeader) || IsShardHello(bundleHeader) {
		t.Error("key bundle header misclassified")
	}
	ack := MarshalHelloAck(AckBusy)
	if IsHello(ack) || IsShardHello(ack) {
		t.Error("ack frame misclassified")
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
	// The legacy decoder still accepts the tagged frame (it only wants
	// the session ID).
	id, err := UnmarshalHello(frame)
	if err != nil {
		t.Fatal(err)
	}
	if id != "client-42" {
		t.Fatalf("legacy decode of tagged hello: %q", id)
	}
}

func TestHelloTenantlessBytesUnchanged(t *testing.T) {
	// Backward compatibility hinges on tenantless frames staying
	// byte-identical to version-1 encodings.
	a, err := MarshalHello("client-42")
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalHelloTenant("client-42", "")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("tenantless MarshalHelloTenant differs from MarshalHello")
	}
	h, err := ParseHello(a)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tenant != "" {
		t.Fatalf("v1 frame parsed with tenant %q", h.Tenant)
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
	// The status-only decoder accepts the extended frame too.
	if st, err := UnmarshalHelloAck(frame); err != nil || st != AckBusy {
		t.Fatalf("legacy decode of retry ack: (%d, %v)", st, err)
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
