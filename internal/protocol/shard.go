package protocol

import (
	"encoding/binary"
	"fmt"
)

// Fabric frames. The internal/fabric router terminates client
// connections, so the first frame a shard sees is no longer the
// client's raw Hello but a router-authored ShardHello: the same
// session ID plus an optional replication hint naming the peer address
// of the shard that last owned the session. A shard that misses its
// local key registry follows the hint over the shard-to-shard peer
// protocol (KeyFetch/KeyFetchResp below) and installs the cached
// bundle instead of asking the client to re-upload the multi-MB keys —
// the §3.3 setup cost stays amortized even when the consistent-hash
// ring re-flows a session onto a machine that never saw it.
//
// The peer protocol is deliberately tiny: one framed request, one
// framed response, over a dedicated peer listener per shard. Besides
// key fetches it carries the router's health probes (PeerPing/PeerPong
// reporting drain state and slot occupancy) and fleet stats collection
// (StatsFetch/StatsResp with a JSON serve.Stats payload).

const (
	shardHelloMagic   = uint32(0x4c485343) // "CSHL" on the wire (little-endian)
	keyFetchMagic     = uint32(0x51464b43) // "CKFQ"
	keyFetchRespMagic = uint32(0x52464b43) // "CKFR"
	peerPingMagic     = uint32(0x474e5043) // "CPNG"
	peerPongMagic     = uint32(0x4b4f5043) // "CPOK"
	statsFetchMagic   = uint32(0x51545343) // "CSTQ"
	statsRespMagic    = uint32(0x52545343) // "CSTR"
)

// MaxPeerAddrLen bounds the replication-hint peer address carried in a
// ShardHello.
const MaxPeerAddrLen = 256

// MarshalShardHelloTenant builds the router→shard session-open frame:
// the client's session ID, an optional peer address of the shard that
// last held this session's evaluation keys (empty = no hint), and the
// client's tenant identifier (from a tenant-tagged Hello) as a trailing
// section ([1-byte length][tenant]). An empty tenant yields no trailer:
// the frame ends at the hint.
func MarshalShardHelloTenant(sessionID, prevOwnerPeer, tenant string) ([]byte, error) {
	if sessionID == "" {
		return nil, fmt.Errorf("protocol: empty session ID")
	}
	if len(sessionID) > MaxSessionIDLen {
		return nil, fmt.Errorf("protocol: session ID length %d exceeds %d", len(sessionID), MaxSessionIDLen)
	}
	if len(prevOwnerPeer) > MaxPeerAddrLen {
		return nil, fmt.Errorf("protocol: peer address length %d exceeds %d", len(prevOwnerPeer), MaxPeerAddrLen)
	}
	if len(tenant) > MaxTenantLen {
		return nil, fmt.Errorf("protocol: tenant length %d exceeds %d", len(tenant), MaxTenantLen)
	}
	size := 16 + len(sessionID) + len(prevOwnerPeer)
	if tenant != "" {
		size += 1 + len(tenant)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf[0:], shardHelloMagic)
	binary.LittleEndian.PutUint32(buf[4:], HelloVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(sessionID)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(prevOwnerPeer)))
	copy(buf[16:], sessionID)
	copy(buf[16+len(sessionID):], prevOwnerPeer)
	if tenant != "" {
		off := 16 + len(sessionID) + len(prevOwnerPeer)
		buf[off] = byte(len(tenant))
		copy(buf[off+1:], tenant)
	}
	return buf, nil
}

// IsShardHello reports whether a frame is a router-authored ShardHello.
func IsShardHello(data []byte) bool {
	return len(data) >= 4 && binary.LittleEndian.Uint32(data) == shardHelloMagic
}

// ShardHelloInfo is the decoded content of a router-authored
// session-open frame.
type ShardHelloInfo struct {
	SessionID     string
	PrevOwnerPeer string
	Tenant        string
}

// ParseShardHello decodes a ShardHello including its optional tenant
// trailer.
func ParseShardHello(data []byte) (ShardHelloInfo, error) {
	if len(data) < 16 {
		return ShardHelloInfo{}, fmt.Errorf("protocol: truncated shard hello frame (%d B)", len(data))
	}
	if !IsShardHello(data) {
		return ShardHelloInfo{}, fmt.Errorf("protocol: not a shard hello frame")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != HelloVersion {
		return ShardHelloInfo{}, fmt.Errorf("protocol: unsupported shard hello version %d", v)
	}
	idLen := int(binary.LittleEndian.Uint32(data[8:]))
	hintLen := int(binary.LittleEndian.Uint32(data[12:]))
	if idLen == 0 || idLen > MaxSessionIDLen {
		return ShardHelloInfo{}, fmt.Errorf("protocol: implausible session ID length %d", idLen)
	}
	if hintLen > MaxPeerAddrLen {
		return ShardHelloInfo{}, fmt.Errorf("protocol: implausible peer address length %d", hintLen)
	}
	base := 16 + idLen + hintLen
	if len(data) < base {
		return ShardHelloInfo{}, fmt.Errorf("protocol: shard hello frame length %d, want at least %d", len(data), base)
	}
	h := ShardHelloInfo{
		SessionID:     string(data[16 : 16+idLen]),
		PrevOwnerPeer: string(data[16+idLen : base]),
	}
	if len(data) == base {
		return h, nil
	}
	tn := int(data[base])
	if tn == 0 || tn > MaxTenantLen {
		return ShardHelloInfo{}, fmt.Errorf("protocol: implausible tenant length %d", tn)
	}
	if len(data) != base+1+tn {
		return ShardHelloInfo{}, fmt.Errorf("protocol: shard hello frame length %d, want %d", len(data), base+1+tn)
	}
	h.Tenant = string(data[base+1 : base+1+tn])
	return h, nil
}

// MarshalKeyFetch builds a shard→shard request for a cached evaluation
// key bundle.
func MarshalKeyFetch(sessionID string) ([]byte, error) {
	if sessionID == "" {
		return nil, fmt.Errorf("protocol: empty session ID")
	}
	if len(sessionID) > MaxSessionIDLen {
		return nil, fmt.Errorf("protocol: session ID length %d exceeds %d", len(sessionID), MaxSessionIDLen)
	}
	buf := make([]byte, 8+len(sessionID))
	binary.LittleEndian.PutUint32(buf[0:], keyFetchMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(sessionID)))
	copy(buf[8:], sessionID)
	return buf, nil
}

// IsKeyFetch reports whether a frame is a key-fetch request.
func IsKeyFetch(data []byte) bool {
	return len(data) >= 4 && binary.LittleEndian.Uint32(data) == keyFetchMagic
}

// UnmarshalKeyFetch decodes a key-fetch request.
func UnmarshalKeyFetch(data []byte) (string, error) {
	if len(data) < 8 {
		return "", fmt.Errorf("protocol: truncated key fetch frame (%d B)", len(data))
	}
	if !IsKeyFetch(data) {
		return "", fmt.Errorf("protocol: not a key fetch frame")
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if n == 0 || n > MaxSessionIDLen {
		return "", fmt.Errorf("protocol: implausible session ID length %d", n)
	}
	if len(data) != 8+n {
		return "", fmt.Errorf("protocol: key fetch frame length %d, want %d", len(data), 8+n)
	}
	return string(data[8 : 8+n]), nil
}

// MarshalKeyFetchResp builds the owning shard's answer: found=false
// carries no bundle (the session aged out of the peer's registry too),
// found=true carries the raw serialized key bundle exactly as the
// client originally uploaded it.
func MarshalKeyFetchResp(found bool, bundle []byte) []byte {
	status := uint32(0)
	if found {
		status = 1
	} else {
		bundle = nil
	}
	buf := make([]byte, 12+len(bundle))
	binary.LittleEndian.PutUint32(buf[0:], keyFetchRespMagic)
	binary.LittleEndian.PutUint32(buf[4:], status)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(bundle)))
	copy(buf[12:], bundle)
	return buf
}

// UnmarshalKeyFetchResp decodes a key-fetch response.
func UnmarshalKeyFetchResp(data []byte) (found bool, bundle []byte, err error) {
	if len(data) < 12 {
		return false, nil, fmt.Errorf("protocol: truncated key fetch response (%d B)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != keyFetchRespMagic {
		return false, nil, fmt.Errorf("protocol: not a key fetch response")
	}
	status := binary.LittleEndian.Uint32(data[4:])
	if status > 1 {
		return false, nil, fmt.Errorf("protocol: unknown key fetch status %d", status)
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	if len(data) != 12+n {
		return false, nil, fmt.Errorf("protocol: key fetch response length %d, want %d", len(data), 12+n)
	}
	if status == 0 {
		if n != 0 {
			return false, nil, fmt.Errorf("protocol: key fetch miss carries %d bundle bytes", n)
		}
		return false, nil, nil
	}
	return true, data[12 : 12+n], nil
}

// MarshalPeerPing builds the router's health probe.
func MarshalPeerPing() []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], peerPingMagic)
	return buf
}

// IsPeerPing reports whether a frame is a health probe: exactly the
// frame MarshalPeerPing builds, nothing riding behind the magic.
func IsPeerPing(data []byte) bool {
	return len(data) == 8 && binary.LittleEndian.Uint64(data) == uint64(peerPingMagic)
}

// PeerHealth is a shard's readiness as reported in a PeerPong: whether
// it is draining (shutting down: finish in-flight work, send no new
// sessions) plus worker-slot occupancy for load-aware routing.
type PeerHealth struct {
	Draining       bool
	ActiveSessions int32
	MaxSessions    int32
}

// MarshalPeerPong builds the shard's health-probe answer.
func MarshalPeerPong(h PeerHealth) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint32(buf[0:], peerPongMagic)
	var flags uint32
	if h.Draining {
		flags |= 1
	}
	binary.LittleEndian.PutUint32(buf[4:], flags)
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.ActiveSessions))
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.MaxSessions))
	return buf
}

// UnmarshalPeerPong decodes a health-probe answer.
func UnmarshalPeerPong(data []byte) (PeerHealth, error) {
	if len(data) != 16 {
		return PeerHealth{}, fmt.Errorf("protocol: peer pong frame length %d, want 16", len(data))
	}
	if binary.LittleEndian.Uint32(data) != peerPongMagic {
		return PeerHealth{}, fmt.Errorf("protocol: not a peer pong frame")
	}
	flags := binary.LittleEndian.Uint32(data[4:])
	h := PeerHealth{
		Draining:       flags&1 != 0,
		ActiveSessions: int32(binary.LittleEndian.Uint32(data[8:])),
		MaxSessions:    int32(binary.LittleEndian.Uint32(data[12:])),
	}
	if flags&^1 != 0 || h.ActiveSessions < 0 || h.MaxSessions < 0 {
		return PeerHealth{}, fmt.Errorf("protocol: peer pong with flags %#x and %d of %d sessions", flags, h.ActiveSessions, h.MaxSessions)
	}
	return h, nil
}

// MarshalStatsFetch builds the router's per-shard stats request.
func MarshalStatsFetch() []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], statsFetchMagic)
	return buf
}

// IsStatsFetch reports whether a frame is a stats request: exactly the
// frame MarshalStatsFetch builds.
func IsStatsFetch(data []byte) bool {
	return len(data) == 8 && binary.LittleEndian.Uint64(data) == uint64(statsFetchMagic)
}

// MarshalStatsResp wraps a JSON-encoded serve.Stats snapshot.
func MarshalStatsResp(jsonBody []byte) []byte {
	buf := make([]byte, 8+len(jsonBody))
	binary.LittleEndian.PutUint32(buf[0:], statsRespMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(jsonBody)))
	copy(buf[8:], jsonBody)
	return buf
}

// UnmarshalStatsResp unwraps the JSON stats payload.
func UnmarshalStatsResp(data []byte) ([]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("protocol: truncated stats response (%d B)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != statsRespMagic {
		return nil, fmt.Errorf("protocol: not a stats response")
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if len(data) != 8+n {
		return nil, fmt.Errorf("protocol: stats response length %d, want %d", len(data), 8+n)
	}
	return data[8 : 8+n], nil
}
