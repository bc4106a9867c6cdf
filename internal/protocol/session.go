package protocol

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Session handshake frames. A client opens a session by sending a
// Hello frame carrying a client-chosen session ID before any key
// material. The server answers with a HelloAck telling the client
// whether its evaluation keys are already installed (a reconnect hit
// in the server's key registry) or must be uploaded — the one-time
// setup cost of §3.3/Table 3 that the registry amortizes across
// reconnects. Legacy clients may still open with a raw key bundle;
// servers sniff the first frame's magic to tell the two apart.

const (
	helloMagic    = uint32(0x4f4c4843) // "CHLO" on the wire (little-endian)
	helloAckMagic = uint32(0x4b434148) // "HACK" on the wire (little-endian)
)

// HelloVersion is the version of the session handshake and of everything
// behind it: ciphertext frame tags and key-bundle magics carry it too.
// Version 2 packs residue rows to their moduli's bit widths; version 1
// sent them as 8-byte words and is refused by number, not decoded.
const HelloVersion = 2

// MaxSessionIDLen bounds client-chosen session identifiers.
const MaxSessionIDLen = 128

// MaxTenantLen bounds the optional tenant identifier a Hello may carry.
const MaxTenantLen = 64

// helloFlagTenant marks a Hello frame that carries a trailing tenant
// section ([1-byte length][tenant]) after the session ID. A frame
// without the flag is byte-identical to a version-1 frame, so tenantless
// clients interoperate with servers on either side of the change.
const helloFlagTenant = uint32(1)

// HelloAckStatus is the server's admission decision for a session.
type HelloAckStatus uint32

const (
	// AckNeedKeys: session admitted; the server has no cached keys for
	// this ID, so the client must send its key bundle next.
	AckNeedKeys HelloAckStatus = 0
	// AckKeysCached: session admitted; evaluation keys are already
	// installed, skip the upload and stream inference requests.
	AckKeysCached HelloAckStatus = 1
	// AckBusy: the server is saturated and rejected the session.
	AckBusy HelloAckStatus = 2
)

// MarshalHello builds a session-open frame for the given session ID.
func MarshalHello(sessionID string) ([]byte, error) {
	return MarshalHelloTenant(sessionID, "")
}

// MarshalHelloTenant builds a session-open frame carrying an optional
// tenant identifier for per-tenant quota admission. An empty tenant
// yields a frame byte-identical to MarshalHello's.
func MarshalHelloTenant(sessionID, tenant string) ([]byte, error) {
	if sessionID == "" {
		return nil, fmt.Errorf("protocol: empty session ID")
	}
	if len(sessionID) > MaxSessionIDLen {
		return nil, fmt.Errorf("protocol: session ID length %d exceeds %d", len(sessionID), MaxSessionIDLen)
	}
	if len(tenant) > MaxTenantLen {
		return nil, fmt.Errorf("protocol: tenant length %d exceeds %d", len(tenant), MaxTenantLen)
	}
	size := 16 + len(sessionID)
	var flags uint32
	if tenant != "" {
		flags |= helloFlagTenant
		size += 1 + len(tenant)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf[0:], helloMagic)
	binary.LittleEndian.PutUint32(buf[4:], HelloVersion)
	binary.LittleEndian.PutUint32(buf[8:], flags)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(sessionID)))
	copy(buf[16:], sessionID)
	if tenant != "" {
		buf[16+len(sessionID)] = byte(len(tenant))
		copy(buf[17+len(sessionID):], tenant)
	}
	return buf, nil
}

// IsHello reports whether a frame is a session-open Hello.
func IsHello(data []byte) bool {
	return len(data) >= 4 && binary.LittleEndian.Uint32(data) == helloMagic
}

// UnmarshalHello decodes a Hello frame and returns the session ID,
// accepting both tenantless and tenant-tagged frames.
func UnmarshalHello(data []byte) (string, error) {
	h, err := ParseHello(data)
	return h.SessionID, err
}

// HelloInfo is the decoded content of a session-open Hello frame.
type HelloInfo struct {
	SessionID string
	// Tenant is the client's self-declared tenant identifier for quota
	// admission; empty on version-1 frames.
	Tenant string
}

// ParseHello decodes a Hello frame including its optional tenant
// section.
func ParseHello(data []byte) (HelloInfo, error) {
	if len(data) < 16 {
		return HelloInfo{}, fmt.Errorf("protocol: truncated hello frame (%d B)", len(data))
	}
	if !IsHello(data) {
		return HelloInfo{}, fmt.Errorf("protocol: not a hello frame")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != HelloVersion {
		return HelloInfo{}, fmt.Errorf("protocol: unsupported hello version %d", v)
	}
	flags := binary.LittleEndian.Uint32(data[8:])
	if flags&^helloFlagTenant != 0 {
		return HelloInfo{}, fmt.Errorf("protocol: unknown hello flags %#x", flags)
	}
	n := int(binary.LittleEndian.Uint32(data[12:]))
	if n == 0 || n > MaxSessionIDLen {
		return HelloInfo{}, fmt.Errorf("protocol: implausible session ID length %d", n)
	}
	if flags&helloFlagTenant == 0 {
		if len(data) != 16+n {
			return HelloInfo{}, fmt.Errorf("protocol: hello frame length %d, want %d", len(data), 16+n)
		}
		return HelloInfo{SessionID: string(data[16 : 16+n])}, nil
	}
	if len(data) < 16+n+1 {
		return HelloInfo{}, fmt.Errorf("protocol: hello frame length %d too short for tenant section", len(data))
	}
	tn := int(data[16+n])
	if tn == 0 || tn > MaxTenantLen {
		return HelloInfo{}, fmt.Errorf("protocol: implausible tenant length %d", tn)
	}
	if len(data) != 17+n+tn {
		return HelloInfo{}, fmt.Errorf("protocol: hello frame length %d, want %d", len(data), 17+n+tn)
	}
	return HelloInfo{
		SessionID: string(data[16 : 16+n]),
		Tenant:    string(data[17+n : 17+n+tn]),
	}, nil
}

// MarshalHelloAck builds the server's handshake response (the compact
// 8-byte form with no retry-after hint).
func MarshalHelloAck(st HelloAckStatus) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], helloAckMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(st))
	return buf
}

// MarshalHelloAckRetry builds the extended 12-byte handshake response
// carrying a retry-after hint (rounded to milliseconds, capped at
// ~49 days). Servers send it with AckBusy when quota admission — not
// permanent saturation — rejected the session, so a well-behaved client
// backs off for the hinted duration instead of hammering. A zero hint
// marshals the compact 8-byte form, which legacy decoders also accept.
func MarshalHelloAckRetry(st HelloAckStatus, retryAfter time.Duration) []byte {
	if retryAfter <= 0 {
		return MarshalHelloAck(st)
	}
	ms := retryAfter.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	if ms > int64(^uint32(0)) {
		ms = int64(^uint32(0))
	}
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint32(buf[0:], helloAckMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(st))
	binary.LittleEndian.PutUint32(buf[8:], uint32(ms))
	return buf
}

// UnmarshalHelloAck decodes the server's handshake response, accepting
// both the compact and the retry-after forms.
func UnmarshalHelloAck(data []byte) (HelloAckStatus, error) {
	st, _, err := ParseHelloAck(data)
	return st, err
}

// ParseHelloAck decodes the server's handshake response including the
// optional retry-after hint (zero on compact frames).
func ParseHelloAck(data []byte) (HelloAckStatus, time.Duration, error) {
	if len(data) != 8 && len(data) != 12 {
		return 0, 0, fmt.Errorf("protocol: hello ack frame length %d, want 8 or 12", len(data))
	}
	if binary.LittleEndian.Uint32(data) != helloAckMagic {
		return 0, 0, fmt.Errorf("protocol: not a hello ack frame")
	}
	st := HelloAckStatus(binary.LittleEndian.Uint32(data[4:]))
	if st > AckBusy {
		return 0, 0, fmt.Errorf("protocol: unknown hello ack status %d", st)
	}
	var retryAfter time.Duration
	if len(data) == 12 {
		retryAfter = time.Duration(binary.LittleEndian.Uint32(data[8:])) * time.Millisecond
	}
	return st, retryAfter, nil
}

// sessionErrorMagic tags the frame a server sends in place of a reply it
// cannot produce ("CERR" on the wire, little-endian).
const sessionErrorMagic = uint32(0x52524543)

// MaxSessionErrorLen bounds the message a session-error frame carries.
const MaxSessionErrorLen = 256

// MarshalSessionError builds a session-error frame: the server's last
// word, best effort, when it has to fail a session mid-request, so the
// client reads a reason instead of waiting out a reply that will not
// come. The message is truncated to MaxSessionErrorLen.
func MarshalSessionError(msg string) []byte {
	if len(msg) > MaxSessionErrorLen {
		msg = msg[:MaxSessionErrorLen]
	}
	buf := make([]byte, 4+len(msg))
	binary.LittleEndian.PutUint32(buf, sessionErrorMagic)
	copy(buf[4:], msg)
	return buf
}

// ParseSessionError reports whether data is a session-error frame and,
// if so, the message it carries.
func ParseSessionError(data []byte) (string, bool) {
	if len(data) < 4 || len(data) > 4+MaxSessionErrorLen || binary.LittleEndian.Uint32(data) != sessionErrorMagic {
		return "", false
	}
	return string(data[4:]), true
}
