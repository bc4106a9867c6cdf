package fabric

import (
	"container/list"
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
// protocol answers key-fetch/health/stats requests (PeerAddr).
type Member struct {
	ID       string
	Addr     string
	PeerAddr string
}

// RouterConfig tunes the fabric router. Zero values select the
// documented defaults.
type RouterConfig struct {
	// Members is the initial shard set; AddMember/RemoveMember adjust
	// it at runtime.
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

// ownersCap bounds the session→owner map the replication hints come
// from. Beyond it, the least-recently-adopted entries are dropped: a
// lost hint only costs a key re-upload, never correctness — but LRU
// order matters, because the hint most likely to be consulted next
// belongs to a recently-routed session, not to one idle since the map
// started filling.
const ownersCap = 1 << 16

// ownerEntry is one session's routing record in the owners LRU.
type ownerEntry struct {
	sessionID string
	owner     string
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
// walk over healthy, non-draining members), and splices frames
// bidirectionally. It remembers which shard last owned each session
// and passes that as a replication hint, so a session the ring re-flows
// onto a new shard migrates its cached evaluation keys shard-to-shard
// instead of repaying the client upload.
type Router struct {
	cfg RouterConfig

	mu       sync.Mutex
	ring     *Ring
	members  map[string]*memberState
	owners   map[string]*list.Element // sessionID → *ownerEntry element
	ownerLRU *list.List               // front = most recently adopted
	tenants  map[string]int64         // tenant → routed sessions
	conns    map[*serve.TimedTransport]struct{}

	acct routerAcct
}

type routerAcct struct {
	connections      atomic.Int64
	routedSessions   atomic.Int64
	replicationHints atomic.Int64
	routeFailures    atomic.Int64
	ejections        atomic.Int64
	bytesUp          atomic.Int64
	bytesDown        atomic.Int64
}

// NewRouter builds a router over the configured members (all initially
// presumed healthy; the probe loop corrects that within an interval).
func NewRouter(cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:      cfg,
		ring:     NewRing(cfg.VirtualNodes),
		members:  map[string]*memberState{},
		owners:   map[string]*list.Element{},
		ownerLRU: list.New(),
		tenants:  map[string]int64{},
		conns:    map[*serve.TimedTransport]struct{}{},
	}
	for _, m := range cfg.Members {
		r.AddMember(m)
	}
	return r
}

// AddMember inserts a shard into the ring. Only sessions that hash
// between an existing owner and the new shard's virtual nodes move;
// their first reconnect carries a replication hint back to the old
// owner, so even the moved sessions skip the client key re-upload.
func (r *Router) AddMember(m Member) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[m.ID]; ok {
		return
	}
	r.members[m.ID] = &memberState{m: m, alive: true}
	r.ring.Add(m.ID)
}

// RemoveMember drops a shard from the ring; its segments flow to ring
// successors on their next session.
func (r *Router) RemoveMember(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.members, id)
	r.ring.Remove(id)
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
	if r.cfg.HealthInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.healthLoop(ctx)
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
	// and the tenant the shard meters. Anything else — a raw key bundle
	// included — is refused here, before a shard is dialled.
	h, err := protocol.ParseHello(first)
	if err != nil {
		r.cfg.Logf("fabric: router: %s: session open: unrecognized first frame (%d B): %v", conn.RemoteAddr(), len(first), err)
		return
	}
	sessionID, tenant := h.SessionID, h.Tenant

	target, sconn := r.connectShard(sessionID)
	if sconn == nil {
		r.acct.routeFailures.Add(1)
		// Best effort: a handshake-aware client learns the tier is
		// unavailable instead of seeing a bare hangup.
		_ = ct.Send(protocol.MarshalHelloAck(protocol.AckBusy))
		return
	}
	defer sconn.Close()

	// The shard-side opening frame is the hello rewritten to a ShardHello
	// carrying the replication hint.
	hint := r.adoptSession(sessionID, target)
	opening, err := protocol.MarshalShardHelloTenant(sessionID, hint, tenant)
	if err != nil {
		r.cfg.Logf("fabric: router: session %q: %v", sessionID, err)
		return
	}
	if hint != "" {
		r.acct.replicationHints.Add(1)
		r.cfg.Logf("fabric: router: session %q moved to %s (keys replicate from %s)", sessionID, target.m.ID, hint)
	}
	r.acct.routedSessions.Add(1)
	if tenant != "" {
		r.mu.Lock()
		r.tenants[tenant]++
		r.mu.Unlock()
	}

	// The shard side gets the generous idle budget in both states: gaps
	// between its frames are legitimate HE compute time.
	st := serve.NewTimedTransport(protocol.NewConn(sconn), r.cfg.IdleTimeout, r.cfg.IdleTimeout)
	if err := st.Send(opening); err != nil {
		r.cfg.Logf("fabric: router: forwarding opening frame to %s: %v", target.m.ID, err)
		return
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
			conn, err := net.DialTimeout("tcp", ms.m.Addr, r.cfg.DialTimeout)
			if err == nil {
				return ms, conn
			}
			r.noteFailure(ms, err)
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

// adoptSession records target as the session's owner and returns the
// replication hint: the previous owner's peer address when the session
// moved between live members. The owners table is LRU-bounded: every
// adoption refreshes the session's recency, and cap pressure evicts the
// session that has gone longest without routing — never a hot one.
func (r *Router) adoptSession(sessionID string, target *memberState) (hint string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.owners[sessionID]; ok {
		e := el.Value.(*ownerEntry)
		if e.owner != target.m.ID {
			if pms, live := r.members[e.owner]; live && pms.alive && pms.m.PeerAddr != "" {
				hint = pms.m.PeerAddr
			}
		}
		e.owner = target.m.ID
		r.ownerLRU.MoveToFront(el)
		return hint
	}
	for len(r.owners) >= ownersCap {
		back := r.ownerLRU.Back()
		if back == nil {
			break
		}
		delete(r.owners, back.Value.(*ownerEntry).sessionID)
		r.ownerLRU.Remove(back)
	}
	r.owners[sessionID] = r.ownerLRU.PushFront(&ownerEntry{sessionID: sessionID, owner: target.m.ID})
	return hint
}

// noteFailure records a dial/probe failure and ejects the member once
// the consecutive-failure threshold is reached.
func (r *Router) noteFailure(ms *memberState, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms.failures++
	if ms.alive && ms.failures >= r.cfg.HealthFailures {
		ms.alive = false
		r.acct.ejections.Add(1)
		r.cfg.Logf("fabric: router: ejecting shard %s after %d failure(s): %v", ms.m.ID, ms.failures, err)
	}
}

// healthLoop probes every member's peer listener each interval,
// reviving recovered members, adopting reported drain state, and
// ejecting the unresponsive.
func (r *Router) healthLoop(ctx context.Context) {
	tick := time.NewTicker(r.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		r.mu.Lock()
		snapshot := make([]*memberState, 0, len(r.members))
		for _, ms := range r.members {
			snapshot = append(snapshot, ms)
		}
		r.mu.Unlock()

		var wg sync.WaitGroup
		for _, ms := range snapshot {
			if ms.m.PeerAddr == "" {
				continue // no probe surface; dial failures still eject
			}
			wg.Add(1)
			go func(ms *memberState) {
				defer wg.Done()
				h, err := pingPeer(ms.m.PeerAddr, r.cfg.DialTimeout)
				r.mu.Lock()
				defer r.mu.Unlock()
				if err != nil {
					ms.failures++
					if ms.alive && ms.failures >= r.cfg.HealthFailures {
						ms.alive = false
						r.acct.ejections.Add(1)
						r.cfg.Logf("fabric: router: ejecting shard %s after %d failed probe(s): %v", ms.m.ID, ms.failures, err)
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
			}(ms)
		}
		wg.Wait()
	}
}

// CheckNow runs one synchronous health probe round (tests and
// operational tooling; the background loop does this each interval).
func (r *Router) CheckNow() {
	r.mu.Lock()
	snapshot := make([]*memberState, 0, len(r.members))
	for _, ms := range r.members {
		snapshot = append(snapshot, ms)
	}
	r.mu.Unlock()
	for _, ms := range snapshot {
		if ms.m.PeerAddr == "" {
			continue
		}
		h, err := pingPeer(ms.m.PeerAddr, r.cfg.DialTimeout)
		r.mu.Lock()
		if err != nil {
			ms.failures++
			if ms.alive && ms.failures >= r.cfg.HealthFailures {
				ms.alive = false
				r.acct.ejections.Add(1)
				r.cfg.Logf("fabric: router: ejecting shard %s after %d failed probe(s): %v", ms.m.ID, ms.failures, err)
			}
		} else {
			ms.alive = true
			ms.failures = 0
			ms.draining = h.Draining
		}
		r.mu.Unlock()
	}
}
