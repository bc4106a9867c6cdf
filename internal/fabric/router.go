package fabric

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"choco/internal/protocol"
	"choco/internal/serve"
)

// Member describes one backend shard from the router's point of view:
// where clients' frames are spliced to (Addr) and where the peer
// protocol answers health-probe and stats requests (PeerAddr).
type Member struct {
	ID       string
	Addr     string
	PeerAddr string
}

// RouterConfig tunes the fabric router. Zero values select the
// documented defaults.
type RouterConfig struct {
	// Members is the initial shard set; AddMember extends it at
	// runtime.
	Members []Member
	// VirtualNodes per shard on the consistent-hash ring. Default 64.
	VirtualNodes int
	// LoadFactor is the bounded-load limit: a shard is skipped (the
	// ring walk continues to its successor) while its active splice
	// count exceeds ceil(LoadFactor · fleet-average). Default 1.25.
	LoadFactor float64
	// HealthInterval is the probe period; every interval each member's
	// peer listener is pinged for liveness and drain state. Default 2s;
	// negative disables the probe loop (dial failures still eject).
	HealthInterval time.Duration
	// HealthFailures is how many consecutive probe or dial failures
	// eject a member from routing. Default 2.
	HealthFailures int
	// DialTimeout bounds shard dials and health probes. Default 5s.
	DialTimeout time.Duration
	// IdleTimeout bounds the gap between a client's requests and a
	// shard's compute time between frames. Default 2m.
	IdleTimeout time.Duration
	// IOTimeout bounds client-side frame exchange once a request is
	// underway. Default 30s.
	IOTimeout time.Duration
	// Logf receives router diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.LoadFactor <= 1 {
		c.LoadFactor = 1.25
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthFailures <= 0 {
		c.HealthFailures = 2
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

type memberState struct {
	m        Member
	alive    bool
	draining bool
	failures int
	active   atomic.Int64 // live spliced connections
}

// Router terminates client connections, peeks the session-ID hello
// frame, consistent-hashes it onto a backend shard (bounded-load ring
// walk over healthy, non-draining members), forwards the hello to that
// shard unchanged and splices frames bidirectionally. Ring placement
// keeps a reconnect on the shard whose registry holds the session's
// keys; a session the ring re-flows onto another shard uploads its
// keys there once.
type Router struct {
	cfg RouterConfig

	mu      sync.Mutex
	ring    *Ring
	members map[string]*memberState
	tenants map[string]int64 // tenant → routed sessions
	conns   map[*serve.TimedTransport]struct{}

	// dial opens a connection to a shard's client port: net.DialTimeout
	// over TCP, or a test's stand-in.
	dial func(addr string, timeout time.Duration) (net.Conn, error)

	acct routerAcct
}

type routerAcct struct {
	connections    atomic.Int64
	routedSessions atomic.Int64
	routeFailures  atomic.Int64
	ejections      atomic.Int64
	bytesUp        atomic.Int64
	bytesDown      atomic.Int64
}

// NewRouter builds a router over the configured members (all initially
// presumed healthy; the probe loop corrects that within an interval).
func NewRouter(cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.VirtualNodes),
		members: map[string]*memberState{},
		tenants: map[string]int64{},
		conns:   map[*serve.TimedTransport]struct{}{},
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
	}
	for _, m := range cfg.Members {
		r.AddMember(m)
	}
	return r
}

// AddMember inserts a shard into the ring. Only sessions that hash
// between an existing owner and the new shard's virtual nodes move;
// each uploads its key bundle to the new shard on its first reconnect
// there, and is served from that shard's registry after.
func (r *Router) AddMember(m Member) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[m.ID]; ok {
		return
	}
	r.members[m.ID] = &memberState{m: m, alive: true}
	r.ring.Add(m.ID)
}

// OwnerOf reports which member currently owns a session ID on the
// ring, ignoring health and load (operational introspection; the live
// routing decision may fall through to a successor).
func (r *Router) OwnerOf(sessionID string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Owner(sessionID)
}

// MemberHealthy reports whether a member is currently routable.
func (r *Router) MemberHealthy(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms, ok := r.members[id]
	return ok && ms.alive && !ms.draining
}

// Serve accepts client connections on ln until ctx is cancelled, then
// stops accepting, interrupts idle splices, and drains active ones at
// their next request boundary.
func (r *Router) Serve(ctx context.Context, ln net.Listener) error {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			_ = ln.Close() // shutting down; Accept surfaces the close below
			r.interruptIdle()
		case <-stop:
		}
	}()
	// The probes stop with the accept loop, whichever way it ends: a
	// listener that fails under a live context must not leave Serve
	// waiting on them.
	probeCtx, stopProbes := context.WithCancel(ctx)
	defer stopProbes()
	if r.cfg.HealthInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.healthLoop(probeCtx)
		}()
	}

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
			r.handleConn(ctx, conn)
		}()
	}
	close(stop)
	stopProbes()
	wg.Wait()
	return acceptErr
}

// interruptIdle tears down client connections parked between requests;
// splices mid-exchange finish delivering the current response first.
func (r *Router) interruptIdle() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for ct := range r.conns {
		if ct.Idle() {
			ct.Conn.Interrupt()
		}
	}
}

// handleConn runs one client connection end to end: peek the opening
// frame, pick a shard, splice until either side closes.
func (r *Router) handleConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	r.acct.connections.Add(1)
	ct := serve.NewTimedTransport(protocol.NewConn(conn), r.cfg.IdleTimeout, r.cfg.IOTimeout)

	r.mu.Lock()
	r.conns[ct] = struct{}{}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.conns, ct)
		r.mu.Unlock()
		r.acct.bytesUp.Add(ct.ReceivedBytes())
		r.acct.bytesDown.Add(ct.SentBytes())
	}()

	first, err := ct.Recv()
	if err != nil {
		return // never sent a frame; nothing to route
	}
	// Only a hello opens a session: it carries the ID the ring places
	// and the tenant the shard meters, and the shard gets it verbatim.
	// Anything else — a raw key bundle included — is refused here,
	// before a shard is dialled.
	h, err := protocol.ParseHello(first)
	if err != nil {
		r.cfg.Logf("fabric: router: %s: session open: unrecognized first frame (%d B): %v", conn.RemoteAddr(), len(first), err)
		return
	}
	sessionID, tenant := h.SessionID, h.Tenant

	// Best effort: a handshake-aware client learns the tier is
	// unavailable instead of seeing a bare hangup.
	refuse := func() {
		r.acct.routeFailures.Add(1)
		_ = ct.Send(protocol.MarshalHelloAck(protocol.AckBusy))
	}
	target, sconn := r.connectShard(sessionID)
	if sconn == nil {
		refuse()
		return
	}
	defer sconn.Close()

	// The shard side gets the generous idle budget in both states: gaps
	// between its frames are legitimate HE compute time.
	st := serve.NewTimedTransport(protocol.NewConn(sconn), r.cfg.IdleTimeout, r.cfg.IdleTimeout)
	if err := st.Send(first); err != nil {
		r.cfg.Logf("fabric: router: forwarding opening frame to %s: %v", target.m.ID, err)
		refuse()
		return
	}
	r.acct.routedSessions.Add(1)
	if tenant != "" {
		r.mu.Lock()
		r.tenants[tenant]++
		r.mu.Unlock()
	}

	target.active.Add(1)
	defer target.active.Add(-1)
	r.splice(ctx, ct, st)
}

// splice relays frames in both directions until either leg fails or a
// drain lands on a request boundary.
func (r *Router) splice(ctx context.Context, client, shard *serve.TimedTransport) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if ctx.Err() != nil && client.Idle() {
				break // graceful drain: stop between requests
			}
			msg, err := client.Recv()
			if err != nil {
				break
			}
			if err := shard.Send(msg); err != nil {
				break
			}
		}
		client.Conn.Interrupt()
		shard.Conn.Interrupt()
	}()

	for {
		msg, err := shard.Recv()
		if err != nil {
			break
		}
		if err := client.Send(msg); err != nil {
			break
		}
		// A shard frame means a response is flowing; after it the client
		// may park before its next request (idle budget + drainable).
		client.MarkRequest()
	}
	client.Conn.Interrupt()
	shard.Conn.Interrupt()
	wg.Wait()
}

// connectShard picks the session's shard by bounded-load ring walk and
// dials it, failing over along the ring (and ejecting members that
// stack up dial failures). Returns a nil conn when no member is
// reachable.
func (r *Router) connectShard(sessionID string) (*memberState, net.Conn) {
	for attempt := 0; attempt < 2; attempt++ {
		for _, ms := range r.candidates(sessionID) {
			conn, err := r.dial(ms.m.Addr, r.cfg.DialTimeout)
			if err == nil {
				return ms, conn
			}
			r.noteProbe(ms, protocol.PeerHealth{}, err)
		}
		// Every candidate failed; one more pass picks up members the
		// failure notes just reordered or revived state for.
	}
	return nil, nil
}

// candidates orders the routable members for a session: the ring walk
// from its hash point, under-bound members first (bounded-load), then
// overloaded ones as a last resort.
func (r *Router) candidates(sessionID string) []*memberState {
	r.mu.Lock()
	defer r.mu.Unlock()

	walk := r.ring.Sequence(sessionID)
	alive := make([]*memberState, 0, len(walk))
	var totalActive int64
	for _, id := range walk {
		ms, ok := r.members[id]
		if !ok || !ms.alive || ms.draining {
			continue
		}
		alive = append(alive, ms)
		totalActive += ms.active.Load()
	}
	if len(alive) == 0 {
		return nil
	}
	bound := int64(math.Ceil(r.cfg.LoadFactor * float64(totalActive+1) / float64(len(alive))))
	under := make([]*memberState, 0, len(alive))
	over := make([]*memberState, 0)
	for _, ms := range alive {
		if ms.active.Load() < bound {
			under = append(under, ms)
		} else {
			over = append(over, ms)
		}
	}
	return append(under, over...)
}

// noteProbe records one probe or dial result for ms. A failure counts
// toward ejection: the HealthFailures-th in a row takes the member out
// of routing. A probe's answer revives the member and adopts the drain
// state it reports.
func (r *Router) noteProbe(ms *memberState, h protocol.PeerHealth, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		ms.failures++
		if ms.alive && ms.failures >= r.cfg.HealthFailures {
			ms.alive = false
			r.acct.ejections.Add(1)
			r.cfg.Logf("fabric: router: ejecting shard %s after %d failure(s): %v", ms.m.ID, ms.failures, err)
		}
		return
	}
	if !ms.alive {
		r.cfg.Logf("fabric: router: shard %s recovered", ms.m.ID)
	}
	ms.alive = true
	ms.failures = 0
	if h.Draining != ms.draining {
		r.cfg.Logf("fabric: router: shard %s draining=%v", ms.m.ID, h.Draining)
	}
	ms.draining = h.Draining
}

// healthLoop runs a probe round each interval until ctx ends.
func (r *Router) healthLoop(ctx context.Context) {
	tick := time.NewTicker(r.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			r.CheckNow()
		}
	}
}

// CheckNow runs one synchronous health-probe round: every member with
// a peer listener is pinged at once, and each answer or failure is
// recorded before CheckNow returns. Members without a peer address are
// ejected by dial failures alone.
func (r *Router) CheckNow() {
	r.mu.Lock()
	snapshot := make([]*memberState, 0, len(r.members))
	for _, ms := range r.members {
		snapshot = append(snapshot, ms)
	}
	r.mu.Unlock()

	var wg sync.WaitGroup
	for _, ms := range snapshot {
		if ms.m.PeerAddr == "" {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := pingPeer(ms.m.PeerAddr, r.cfg.DialTimeout)
			r.noteProbe(ms, h, err)
		}()
	}
	wg.Wait()
}
