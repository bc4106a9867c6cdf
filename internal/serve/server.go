// Package serve is the concurrent multi-session offload server: the
// deployment model of §1/Fig 1 — one untrusted server holding the
// model weights, many resource-constrained clients streaming
// client-aided inference sessions at it. It layers on the split
// client/server API of internal/nn and adds what a real deployment
// needs on top of a single blocking accept loop:
//
//   - a bounded worker pool with admission control: at most
//     MaxSessions sessions run concurrently; excess connections wait
//     up to QueueTimeout for a slot and are then rejected with a
//     busy ack instead of silently queueing forever;
//   - an evaluation-key registry: clients open sessions under a
//     client-chosen ID (protocol.MarshalHelloTenant), and a reconnecting
//     client whose keys are still cached skips the multi-megabyte
//     key upload — the §3.3 one-time setup cost — entirely;
//   - per-session and server-wide accounting: sessions, inferences,
//     traffic, homomorphic op counts, and per-phase latency
//     histograms, exposed as a Stats snapshot and a JSON handler;
//   - lifecycle hygiene: per-frame read/write deadlines, an idle
//     timeout between requests, and graceful shutdown that drains
//     in-flight inferences while interrupting idle connections.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"choco/internal/nn"
	"choco/internal/protocol"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// MaxSessions caps concurrently running sessions (the worker
	// pool size). Default 8.
	MaxSessions int
	// QueueTimeout is how long an accepted connection waits for a
	// free worker slot before being rejected with a busy ack.
	// Default 0: reject immediately when saturated.
	QueueTimeout time.Duration
	// IdleTimeout bounds the gap between a client's requests within a
	// session (and the wait for the opening hello). Default 2m.
	IdleTimeout time.Duration
	// IOTimeout bounds every other frame send/receive once an
	// exchange is underway. Default 30s.
	IOTimeout time.Duration
	// KeyCacheCap bounds the evaluation-key registry (sessions whose
	// keys stay installed for reconnects); least-recently-used
	// entries are evicted beyond it. Default 64.
	KeyCacheCap int
	// KeyCacheBytes bounds the total serialized key-bundle bytes the
	// registry retains (eval keys are multi-MB each, so the entry cap
	// alone is not a memory bound). LRU entries are evicted beyond it;
	// the newest entry is always kept. Default 1 GiB.
	KeyCacheBytes int64
	// TenantMaxSessions caps concurrently running sessions per declared
	// tenant; a tenant at its cap gets a busy ack with a retry-after
	// hint instead of consuming worker slots. Default 0: no per-tenant
	// quota. Tenantless sessions are never quota-checked.
	TenantMaxSessions int
	// RetryAfter is the back-off hint attached to quota busy acks.
	// Default 250ms.
	RetryAfter time.Duration
	// FetchKeys, when set, is consulted on a key-cache miss for a
	// session opened with a replication hint (a fabric ShardHello
	// naming the peer that last owned the session): it returns the raw
	// serialized key bundle fetched from that peer, letting the shard
	// install keys without the client re-uploading them. Errors fall
	// back to asking the client for the bundle.
	FetchKeys func(sessionID, peerAddr string) ([]byte, error)
	// Logf receives server diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.KeyCacheCap <= 0 {
		c.KeyCacheCap = 64
	}
	if c.KeyCacheBytes <= 0 {
		c.KeyCacheBytes = 1 << 30
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ErrSaturated reports a session rejected because every worker slot
// stayed busy for the whole QueueTimeout.
var ErrSaturated = errors.New("serve: max concurrent sessions reached")

// Server runs concurrent client-aided inference sessions against one
// shared compiled model. All methods are safe for concurrent use.
type Server struct {
	backend *nn.InferenceServer
	cfg     Config
	reg     *registry
	acct    accounting
	slots   chan struct{}
	exec    *executor
	tenants tenantTable

	draining atomic.Bool

	mu    sync.Mutex
	conns map[*TimedTransport]struct{}
}

// New builds a server around a compiled inference backend.
func New(backend *nn.InferenceServer, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		backend: backend,
		cfg:     cfg,
		reg:     newRegistry(cfg.KeyCacheCap, cfg.KeyCacheBytes),
		slots:   make(chan struct{}, cfg.MaxSessions),
		exec:    newExecutor(backend),
		conns:   map[*TimedTransport]struct{}{},
	}
}

// MaxSessions reports the effective worker-pool size, after Config
// defaults have been applied.
func (s *Server) MaxSessions() int { return cap(s.slots) }

// Draining reports whether the server has begun graceful shutdown:
// in-flight inferences finish, but no new sessions should be routed
// here. The fabric router reads this (via /healthz or a peer ping) to
// steer its ring away from shards being rotated out.
func (s *Server) Draining() bool { return s.draining.Load() }

// LookupKeyFrame returns the cached serialized evaluation-key bundle
// for a session ID — the fabric replication read path: the owning
// shard serves its cached bundle to a peer instead of the client
// re-uploading it.
func (s *Server) LookupKeyFrame(id string) ([]byte, bool) { return s.reg.lookupFrame(id) }

// Serve accepts connections on ln until ctx is cancelled, then stops
// accepting, interrupts idle connections, and drains sessions that are
// mid-inference before returning.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.draining.Store(true)
			_ = ln.Close() // shutting down; Accept surfaces the close below
			s.interruptIdle()
		case <-stop:
		}
	}()

	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				break
			}
			acceptErr = err
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(ctx, conn)
		}()
	}
	close(stop)
	wg.Wait()
	return acceptErr
}

// serveConn runs one TCP connection: frames it, arms deadlines, and
// hands it to the generic session loop.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	st := NewTimedTransport(protocol.NewConn(conn), s.cfg.IdleTimeout, s.cfg.IOTimeout)

	s.mu.Lock()
	s.conns[st] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, st)
		s.mu.Unlock()
	}()

	remote := conn.RemoteAddr()
	if err := s.ServeTransport(ctx, st); err != nil && !errors.Is(err, ErrSaturated) && !errors.Is(err, ErrTenantOverQuota) {
		s.cfg.Logf("serve: client %s: %v", remote, err)
	}
}

// interruptIdle tears down connections that are parked between
// requests; connections mid-inference finish their current request and
// then observe the cancelled context.
func (s *Server) interruptIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for st := range s.conns {
		if st.Idle() {
			st.Conn.Interrupt()
		}
	}
}

// ServeTransport runs one complete session over any transport — the
// in-memory protocol.Pipe in tests, a framed TCP connection in
// production. It performs admission control, the session handshake
// (hello + key install or cache hit), then
// serves inference requests until the client disconnects, the idle
// timeout fires, or ctx is cancelled (draining the in-flight request
// first).
func (s *Server) ServeTransport(ctx context.Context, t protocol.Transport) error {
	if !s.acquireSlot(ctx) {
		s.acct.sessionsRejected.Add(1)
		// Best effort: tell a handshake-aware client why it is being
		// dropped before closing.
		_ = t.Send(protocol.MarshalHelloAck(protocol.AckBusy))
		return ErrSaturated
	}
	defer func() { <-s.slots }()

	s.acct.sessionsTotal.Add(1)
	s.acct.sessionsActive.Add(1)
	start := time.Now()
	var inferences int64
	var id, tenant string // set by the handshake, read by the close line
	defer func() {
		s.acct.sessionsActive.Add(-1)
		s.acct.bytesUp.Add(t.ReceivedBytes())
		s.acct.bytesDown.Add(t.SentBytes())
		s.cfg.Logf("serve: session %q (tenant %q): closed after %v: %d inference(s), %d B up / %d B down",
			id, tenant, time.Since(start).Round(time.Millisecond), inferences, t.ReceivedBytes(), t.SentBytes())
	}()

	sess, id, tenant, err := s.handshake(t)
	if err != nil {
		return err
	}
	if tenant != "" {
		defer func() { s.tenants.release(tenant, t.ReceivedBytes(), t.SentBytes()) }()
	}
	sess = sess.WithExecutor(s.exec)
	s.acct.setupLat.observe(time.Since(start))

	for {
		if m, ok := t.(requestMarker); ok {
			m.markAwaitingRequest()
		}
		if ctx.Err() != nil {
			return nil // graceful drain: stop between requests
		}
		reqStart, n := time.Now(), inferences+1
		// The request is accounted before its last reply frame leaves:
		// a client that has its answer, or a /fleet poll it triggers,
		// never finds counters that lack it. (The latency sample
		// therefore ends at the hand-off to the final write.)
		err := serveOne(sess, t, func(ops nn.ServerOps) {
			inferences++
			s.acct.inferences.Add(1)
			if tenant != "" {
				s.tenants.addInference(tenant)
			}
			s.acct.addOps(ops)
			s.acct.inferLat.observe(time.Since(reqStart))
		})
		if err != nil {
			if s.sessionOver(t, err, id, tenant) {
				return nil
			}
			var pe *panicError
			if errors.As(err, &pe) {
				// One session's panic ends that session only: it returns
				// through the deferred releases above like any failed
				// inference. The client is told, best effort, and the
				// operator gets the stack.
				s.acct.sessionPanics.Add(1)
				s.cfg.Logf("serve: session %q: panic during inference %d: %v\n%s", id, n, pe.value, pe.stack)
				_ = t.Send(protocol.MarshalSessionError(fmt.Sprintf("internal error during inference %d", n)))
			}
			return fmt.Errorf("inference %d failed: %w", n, err)
		}
	}
}

// serveOne serves one request, turning a panic on the session's own
// goroutine (frame decode, the kernels, reply encode) into that
// session's error.
func serveOne(sess *nn.ServerSession, t protocol.Transport, account func(nn.ServerOps)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &panicError{value: v, stack: debug.Stack()}
		}
	}()
	_, err = sess.ServeOneAccounted(t, account)
	return err
}

// handshake admits the session: the hello exchange (with the eval-key
// registry short-circuiting re-uploads), a router-authored shard hello
// (same exchange, plus a replication hint consulted before asking the
// client for keys). Nothing else opens a session: a raw key bundle as
// first frame would skip tenant quota, the registry and the session ID,
// and is refused like any other unrecognized frame.
// Sessions declaring a tenant pass quota admission before any key
// exchange: an over-quota tenant gets a busy ack with a retry-after
// hint, so its sessions back off instead of consuming worker slots
// other tenants could use. On success with a non-empty tenant, the
// caller owns releasing the tenant's session slot. The session ID and
// tenant come back for the caller's diagnostics, also when a parsed
// hello is refused.
func (s *Server) handshake(t protocol.Transport) (sess *nn.ServerSession, id, tenant string, err error) {
	raw, err := t.Recv()
	if err != nil {
		return nil, "", "", fmt.Errorf("session open: recv first frame: %w", err)
	}
	var hint string
	switch {
	case protocol.IsHello(raw):
		h, err := protocol.ParseHello(raw)
		if err != nil {
			return nil, "", "", fmt.Errorf("session open: %w", err)
		}
		id, tenant = h.SessionID, h.Tenant
	case protocol.IsShardHello(raw):
		h, err := protocol.ParseShardHello(raw)
		if err != nil {
			return nil, "", "", fmt.Errorf("session open: %w", err)
		}
		id, hint, tenant = h.SessionID, h.PrevOwnerPeer, h.Tenant
	default:
		return nil, "", "", fmt.Errorf("session open: unrecognized first frame (%d B)", len(raw))
	}
	if tenant != "" && !s.tenants.admit(tenant, s.cfg.TenantMaxSessions) {
		s.acct.sessionsRejected.Add(1)
		_ = t.Send(protocol.MarshalHelloAckRetry(protocol.AckBusy, s.cfg.RetryAfter))
		return nil, id, tenant, fmt.Errorf("session %q: tenant %q: %w", id, tenant, ErrTenantOverQuota)
	}
	if sess, err = s.admit(t, id, hint); err != nil {
		if tenant != "" {
			s.tenants.release(tenant, 0, 0)
		}
		return nil, id, tenant, err
	}
	return sess, id, tenant, nil
}

// admit completes the hello exchange for session id. Key resolution
// order: local registry hit, then peer replication when a hint names
// the shard that last owned the session, then upload from the client.
func (s *Server) admit(t protocol.Transport, id, hint string) (*nn.ServerSession, error) {
	if sess := s.reg.lookup(id); sess != nil {
		s.acct.keyCacheHits.Add(1)
		if err := t.Send(protocol.MarshalHelloAck(protocol.AckKeysCached)); err != nil {
			return nil, fmt.Errorf("session %q: send cached ack: %w", id, err)
		}
		s.cfg.Logf("serve: session %q: evaluation keys cached, upload skipped", id)
		return sess, nil
	}
	if hint != "" && s.cfg.FetchKeys != nil {
		if sess, ok := s.replicate(id, hint); ok {
			if err := t.Send(protocol.MarshalHelloAck(protocol.AckKeysCached)); err != nil {
				return nil, fmt.Errorf("session %q: send cached ack: %w", id, err)
			}
			return sess, nil
		}
	}
	s.acct.keyCacheMisses.Add(1)
	if err := t.Send(protocol.MarshalHelloAck(protocol.AckNeedKeys)); err != nil {
		return nil, fmt.Errorf("session %q: send need-keys ack: %w", id, err)
	}
	kraw, err := t.Recv()
	if err != nil {
		return nil, fmt.Errorf("session %q: recv key bundle frame: %w", id, err)
	}
	sess, err := s.backend.NewSessionFromFrame(kraw)
	if err != nil {
		// The client has no ack to wait for after its upload: its next
		// request reads why the session ended.
		_ = t.Send(protocol.MarshalSessionError(err.Error()))
		return nil, fmt.Errorf("session %q: %w", id, err)
	}
	s.reg.store(id, sess, kraw)
	s.cfg.Logf("serve: session %q: evaluation keys installed (%d B)", id, len(kraw))
	return sess, nil
}

// replicate tries to pull session id's key bundle from the peer shard
// named by hint and install it locally. Any failure is logged and
// reported as a miss: the handshake then falls back to a client
// upload, so replication can only save bytes, never lose a session.
func (s *Server) replicate(id, hint string) (*nn.ServerSession, bool) {
	kraw, err := s.cfg.FetchKeys(id, hint)
	if err != nil {
		s.cfg.Logf("serve: session %q: key replication from %s failed: %v", id, hint, err)
		return nil, false
	}
	sess, err := s.backend.NewSessionFromFrame(kraw)
	if err != nil {
		s.cfg.Logf("serve: session %q: replicated key bundle from %s invalid: %v", id, hint, err)
		return nil, false
	}
	s.reg.store(id, sess, kraw)
	s.acct.keyCacheHits.Add(1)
	s.acct.keyReplications.Add(1)
	s.cfg.Logf("serve: session %q: evaluation keys replicated from peer %s (%d B), client upload skipped", id, hint, len(kraw))
	return sess, true
}

// sessionOver classifies a ServeOne error as a normal end of session:
// the client disconnected, or the idle timeout expired while waiting
// for the next request's first frame. id and tenant name the session in
// the log.
func (s *Server) sessionOver(t protocol.Transport, err error, id, tenant string) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, protocol.ErrInterrupted) {
		return true
	}
	m, ok := t.(requestMarker)
	if !ok {
		return false
	}
	var nerr net.Error
	if m.isAwaitingRequest() && errors.As(err, &nerr) && nerr.Timeout() {
		s.cfg.Logf("serve: session %q (tenant %q): idle timeout, closing session", id, tenant)
		return true
	}
	return false
}

// acquireSlot claims a worker slot, waiting up to QueueTimeout.
func (s *Server) acquireSlot(ctx context.Context) bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	if s.cfg.QueueTimeout <= 0 {
		return false
	}
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return true
	case <-timer.C:
		return false
	case <-ctx.Done():
		return false
	}
}
