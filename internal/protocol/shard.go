package protocol

import (
	"encoding/binary"
	"fmt"
)

// Fabric frames. The internal/fabric router forwards the client's own
// Hello to the shard it picks, so a shard's client port speaks exactly
// the session protocol; the frames below belong to the peer listener
// each shard runs beside it. That protocol is deliberately tiny: one
// framed request, one framed response. It carries the router's health
// probes (PeerPing/PeerPong reporting drain state and slot occupancy)
// and fleet stats collection (StatsFetch/StatsResp with a JSON
// serve.Stats payload).

const (
	peerPingMagic   = uint32(0x474e5043) // "CPNG" on the wire (little-endian)
	peerPongMagic   = uint32(0x4b4f5043) // "CPOK"
	statsFetchMagic = uint32(0x51545343) // "CSTQ"
	statsRespMagic  = uint32(0x52545343) // "CSTR"
)

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
