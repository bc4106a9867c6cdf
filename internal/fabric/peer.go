package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"choco/internal/protocol"
	"choco/internal/serve"
)

// The router-to-shard peer protocol: each shard runs a tiny framed
// request/response listener next to its client port. It carries two
// request kinds, both answered with a single frame:
//
//   - PeerPing: the router's health probe, answered with drain state
//     and worker-slot occupancy;
//   - StatsFetch: the router's fleet-stats collection, answered with a
//     JSON serve.Stats snapshot.
//
// Shards never talk to one another, and no key material crosses this
// listener. It should still bind an internal interface in real
// deployments, like any stats or debug port.

// peerIOTimeout bounds every frame a peer server reads or writes. A
// stats answer is a few KB, so this is loose; it only has to stop a
// wedged router connection from parking a peer goroutine forever.
const peerIOTimeout = 30 * time.Second

// peerDialTimeout bounds only the TCP dial of a peer request,
// independently of the frame budget the caller passes. A probe of a
// dead or unreachable shard then fails within a second and counts
// toward its ejection, instead of holding the probe round for the
// router's whole DialTimeout.
const peerDialTimeout = time.Second

// peerServer answers peer-protocol requests against one shard's Server.
type peerServer struct {
	srv  *serve.Server
	logf func(format string, args ...any)
}

// serve accepts peer connections until ctx is cancelled or the
// listener fails. Each connection may carry many requests in sequence.
func (p *peerServer) serve(ctx context.Context, ln net.Listener) error {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			_ = ln.Close() // shutting down; Accept surfaces the close below
		case <-stop:
		}
	}()

	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			p.serveConn(protocol.NewConn(conn))
		}()
	}
	close(stop)
	wg.Wait()
	return acceptErr
}

func (p *peerServer) serveConn(c *protocol.Conn) {
	c.SetReadTimeout(peerIOTimeout)
	c.SetWriteTimeout(peerIOTimeout)
	for {
		raw, err := c.Recv()
		if err != nil {
			return // EOF, timeout, or interrupt: peer conns are cheap, just drop
		}
		var resp []byte
		switch {
		case protocol.IsPeerPing(raw):
			h := p.srv.Health()
			resp = protocol.MarshalPeerPong(protocol.PeerHealth{
				Draining:       h.Draining,
				ActiveSessions: int32(h.ActiveSessions),
				MaxSessions:    int32(h.MaxSessions),
			})
		case protocol.IsStatsFetch(raw):
			body, err := json.Marshal(p.srv.Stats())
			if err != nil {
				p.logf("fabric: peer: encoding stats: %v", err)
				return
			}
			resp = protocol.MarshalStatsResp(body)
		default:
			p.logf("fabric: peer: unrecognized request frame (%d B)", len(raw))
			return
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// peerRequest dials addr, sends one request frame, and returns the
// single response frame.
func peerRequest(addr string, req []byte, timeout time.Duration) ([]byte, error) {
	dialTimeout := timeout
	if peerDialTimeout < dialTimeout {
		dialTimeout = peerDialTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("fabric: dial peer %s: %w", addr, err)
	}
	defer conn.Close()
	c := protocol.NewConn(conn)
	c.SetReadTimeout(timeout)
	c.SetWriteTimeout(timeout)
	if err := c.Send(req); err != nil {
		return nil, fmt.Errorf("fabric: peer %s: send: %w", addr, err)
	}
	resp, err := c.Recv()
	if err != nil {
		return nil, fmt.Errorf("fabric: peer %s: recv: %w", addr, err)
	}
	return resp, nil
}

// pingPeer probes a shard's peer listener and returns its health.
func pingPeer(addr string, timeout time.Duration) (protocol.PeerHealth, error) {
	resp, err := peerRequest(addr, protocol.MarshalPeerPing(), timeout)
	if err != nil {
		return protocol.PeerHealth{}, err
	}
	return protocol.UnmarshalPeerPong(resp)
}

// fetchPeerStats pulls a shard's serve.Stats snapshot.
func fetchPeerStats(addr string, timeout time.Duration) (serve.Stats, error) {
	var st serve.Stats
	resp, err := peerRequest(addr, protocol.MarshalStatsFetch(), timeout)
	if err != nil {
		return st, err
	}
	body, err := protocol.UnmarshalStatsResp(resp)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("fabric: decoding peer stats: %w", err)
	}
	return st, nil
}
