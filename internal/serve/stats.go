package serve

import (
	"encoding/json"
	"math/bits"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"choco/internal/core"
	"choco/internal/par"
	"choco/internal/ring"
)

// accounting is the server-wide counter set. Everything is atomic so
// session workers never contend on a lock for bookkeeping.
type accounting struct {
	sessionsTotal    atomic.Int64
	sessionsActive   atomic.Int64
	sessionsRejected atomic.Int64
	sessionPanics    atomic.Int64
	inferences       atomic.Int64

	keyCacheHits    atomic.Int64
	keyCacheMisses  atomic.Int64
	keyReplications atomic.Int64

	bytesUp   atomic.Int64 // client→server, as observed by the server transport
	bytesDown atomic.Int64 // server→client

	rotations  atomic.Int64
	plainMults atomic.Int64
	ctMults    atomic.Int64
	adds       atomic.Int64

	setupLat histogram
	inferLat histogram
}

func (a *accounting) addOps(ops core.OpCounts) {
	a.rotations.Add(int64(ops.Rotations))
	a.plainMults.Add(int64(ops.PlainMults))
	a.ctMults.Add(int64(ops.CtMults))
	a.adds.Add(int64(ops.Adds))
}

// histogram is a lock-free log₂-bucketed latency histogram: bucket i
// counts observations with ⌈log₂ µs⌉ = i, so quantiles come back
// within a factor of two of the true value — plenty for operational
// visibility at zero coordination cost.
type histogram struct {
	count   atomic.Int64
	sumUs   atomic.Int64
	maxUs   atomic.Int64
	buckets [48]atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.count.Add(1)
	h.sumUs.Add(us)
	for {
		old := h.maxUs.Load()
		if us <= old || h.maxUs.CompareAndSwap(old, us) {
			break
		}
	}
	// Bucket index is ⌈log₂ µs⌉ = bits.Len64(us-1) for us ≥ 1; 0 and 1 µs
	// both land in bucket 0 (2^0 = 1 µs upper bound). bits.Len64(us)
	// would file the exact powers of two one bucket too high.
	var i int
	if us > 1 {
		i = bits.Len64(uint64(us - 1))
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
}

// quantile returns the upper bound of the bucket containing quantile q.
func (h *histogram) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > rank {
			// The bucket's upper bound, clamped so a tail quantile
			// never reads above the true observed maximum.
			if up := int64(1) << uint(i); up < h.maxUs.Load() {
				return time.Duration(up) * time.Microsecond
			}
			break
		}
	}
	return time.Duration(h.maxUs.Load()) * time.Microsecond
}

func (h *histogram) summary() LatencySummary {
	n := h.count.Load()
	s := LatencySummary{Count: n}
	if n == 0 {
		return s
	}
	s.Mean = time.Duration(h.sumUs.Load()/n) * time.Microsecond
	s.P50 = h.quantile(0.50)
	s.P99 = h.quantile(0.99)
	s.Max = time.Duration(h.maxUs.Load()) * time.Microsecond
	return s
}

// LatencySummary condenses a phase histogram. P50/P99 are upper bounds
// of log₂ buckets (within 2× of the true quantile).
type LatencySummary struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Stats is a point-in-time snapshot of the server's accounting.
// Traffic totals for a session are folded in when the session ends.
type Stats struct {
	SessionsTotal    int64 // sessions admitted (including still-active ones)
	SessionsActive   int64
	SessionsRejected int64
	// SessionPanics counts sessions ended by a panic recovered while
	// serving them (the stack is in the log); other sessions carry on.
	SessionPanics int64
	Inferences    int64

	KeyCacheHits    int64 // reconnects that skipped the key upload
	KeyCacheMisses  int64
	KeyCacheEntries int
	// KeyCacheBytes is the serialized key-bundle bytes currently
	// retained; KeyCacheEvictions counts LRU entries dropped to stay
	// within the entry and byte budgets. The fabric router reads these
	// to judge how likely a peer fetch is to hit before steering a
	// migrated session at a shard.
	KeyCacheBytes     int64
	KeyCacheEvictions int64
	// KeyReplications counts cache misses resolved by fetching the
	// bundle from a peer shard instead of the client (fabric key
	// migration; these also count as KeyCacheHits since the client
	// skipped its upload).
	KeyReplications int64

	// Draining reports graceful shutdown in progress: finish in-flight
	// work, route no new sessions here.
	Draining bool

	BytesUp   int64
	BytesDown int64

	// Parallelism is the width of the process-wide par worker pool the
	// HE hot paths fan out over (shared by all sessions; see
	// internal/par). Kernels is the tier the ring kernels run at in this
	// process: "avx2" or "scalar".
	Parallelism int
	Kernels     string

	ServerOps core.OpCounts

	SetupLatency     LatencySummary // hello + key install (or cache hit)
	InferenceLatency LatencySummary // one ServeOne exchange, up to the hand-off of its last reply frame

	// Batching reports the layer executor: calls and the shared
	// weight-plaintext cache. Layers is its compute time per linear
	// layer; every request adds one observation to each before its last
	// reply frame leaves.
	Batching BatchStats
	Layers   []LayerStats
	// Tenants lists per-tenant counters for sessions that declared a
	// tenant identity, sorted by tenant ID; nil when no tagged session
	// was ever seen. Quota rejections count here and in
	// SessionsRejected.
	Tenants []TenantStats `json:",omitempty"`
}

// Stats returns a snapshot of the server-wide accounting.
func (s *Server) Stats() Stats {
	a := &s.acct
	regBytes, regEvictions := s.reg.usage()
	return Stats{
		SessionsTotal:     a.sessionsTotal.Load(),
		SessionsActive:    a.sessionsActive.Load(),
		SessionsRejected:  a.sessionsRejected.Load(),
		SessionPanics:     a.sessionPanics.Load(),
		Inferences:        a.inferences.Load(),
		KeyCacheHits:      a.keyCacheHits.Load(),
		KeyCacheMisses:    a.keyCacheMisses.Load(),
		KeyCacheEntries:   s.reg.len(),
		KeyCacheBytes:     regBytes,
		KeyCacheEvictions: regEvictions,
		KeyReplications:   a.keyReplications.Load(),
		Draining:          s.draining.Load(),
		BytesUp:           a.bytesUp.Load(),
		BytesDown:         a.bytesDown.Load(),
		Parallelism:       par.Parallelism(),
		Kernels:           kernelTier(),
		ServerOps: core.OpCounts{
			Rotations:  int(a.rotations.Load()),
			PlainMults: int(a.plainMults.Load()),
			CtMults:    int(a.ctMults.Load()),
			Adds:       int(a.adds.Load()),
		},
		SetupLatency:     a.setupLat.summary(),
		InferenceLatency: a.inferLat.summary(),
		Batching:         s.exec.stats(),
		Layers:           s.exec.layerStats(s.backend.Model.Net),
		Tenants:          s.tenants.snapshot(),
	}
}

func kernelTier() string {
	if ring.VectorKernelsEnabled() {
		return "avx2"
	}
	return "scalar"
}

// StatsHandler serves the snapshot as JSON (mount it on the -stats-addr
// HTTP listener; pairs with expvar's /debug/vars). Requests whose path
// ends in /healthz are routed to the readiness payload, so mounting
// this one handler at the root covers both endpoints.
func (s *Server) StatsHandler() http.Handler {
	health := s.HealthHandler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/healthz") {
			health.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Stats())
	})
}

// Health is the /healthz readiness payload: drain state plus worker
// slot occupancy, the signals the fabric router's health checks and
// bounded-load routing consume.
type Health struct {
	Ready          bool // accepting new sessions (not draining)
	Draining       bool
	ActiveSessions int64
	MaxSessions    int
}

// Health returns the server's current readiness.
func (s *Server) Health() Health {
	draining := s.draining.Load()
	return Health{
		Ready:          !draining,
		Draining:       draining,
		ActiveSessions: s.acct.sessionsActive.Load(),
		MaxSessions:    s.MaxSessions(),
	}
}

// HealthHandler serves the readiness payload as JSON: 200 while
// accepting sessions, 503 once draining — the convention fleet load
// balancers and the fabric router's HTTP health checks expect.
func (s *Server) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h)
	})
}
