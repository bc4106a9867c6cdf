package fabric

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"choco/internal/serve"
)

// RouterStats is the router's own accounting: connection and routing
// counters plus per-member status.
type RouterStats struct {
	Connections    int64 `json:"connections"`
	RoutedSessions int64 `json:"routed_sessions"`
	RouteFailures  int64 `json:"route_failures"`
	Ejections      int64 `json:"ejections"`
	BytesUp        int64 `json:"bytes_up"`
	BytesDown      int64 `json:"bytes_down"`

	// TenantSessions counts routed sessions per declared tenant (the
	// router's view; shard-side admission and rejection counters live in
	// each shard's serve.Stats and the fleet aggregation).
	TenantSessions map[string]int64 `json:"tenant_sessions,omitempty"`

	Members []MemberStatus `json:"members"`
}

// MemberStatus is one shard's view from the router.
type MemberStatus struct {
	ID            string `json:"id"`
	Addr          string `json:"addr"`
	PeerAddr      string `json:"peer_addr,omitempty"`
	Alive         bool   `json:"alive"`
	Draining      bool   `json:"draining"`
	ActiveSplices int64  `json:"active_splices"`
}

// ShardSnapshot is one shard's serve.Stats as collected over the peer
// protocol, or the reason it could not be reached.
type ShardSnapshot struct {
	Reachable bool        `json:"reachable"`
	Error     string      `json:"error,omitempty"`
	Stats     serve.Stats `json:"stats,omitempty"`
}

// FleetTotals sums the counters that are meaningful fleet-wide.
// InferenceP99Max is the worst per-shard p99 — a conservative fleet
// p99 bound (the true fleet quantile needs merged histograms; the max
// is what capacity planning actually alarms on).
type FleetTotals struct {
	ShardsReachable   int           `json:"shards_reachable"`
	ShardsTotal       int           `json:"shards_total"`
	SessionsTotal     int64         `json:"sessions_total"`
	SessionsActive    int64         `json:"sessions_active"`
	SessionsRejected  int64         `json:"sessions_rejected"`
	Inferences        int64         `json:"inferences"`
	KeyCacheHits      int64         `json:"key_cache_hits"`
	KeyCacheMisses    int64         `json:"key_cache_misses"`
	KeyCacheEvictions int64         `json:"key_cache_evictions"`
	KeyCacheEntries   int           `json:"key_cache_entries"`
	KeyCacheBytes     int64         `json:"key_cache_bytes"`
	BytesUp           int64         `json:"bytes_up"`
	BytesDown         int64         `json:"bytes_down"`
	InferenceP99Max   time.Duration `json:"inference_p99_max_ns"`

	// Layers counts and times the layer calls the shards' executors ran,
	// by layer of the model (the shards of a fleet serve one model),
	// sorted by layer index.
	Layers []FleetLayer `json:"layers,omitempty"`

	// Tenants aggregates per-tenant counters across every reachable
	// shard, sorted by tenant ID.
	Tenants []serve.TenantStats `json:"tenants,omitempty"`
}

// FleetLayer is one linear layer's compute time across the fleet. Like
// InferenceP99Max, ComputeP99Max is the worst per-shard p99.
type FleetLayer struct {
	Layer         int           `json:"layer"`
	Kind          string        `json:"kind"`
	Calls         int64         `json:"calls"`
	ComputeMean   time.Duration `json:"compute_mean_ns"`
	ComputeP99Max time.Duration `json:"compute_p99_max_ns"`
}

// FleetStats is the full aggregated view the router serves over HTTP:
// its own counters, every shard's snapshot, and the fleet totals.
type FleetStats struct {
	Router RouterStats              `json:"router"`
	Shards map[string]ShardSnapshot `json:"shards"`
	Fleet  FleetTotals              `json:"fleet"`
}

// Stats returns the router's own counters and member table (no peer
// I/O; safe on any hot path).
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Connections:    r.acct.connections.Load(),
		RoutedSessions: r.acct.routedSessions.Load(),
		RouteFailures:  r.acct.routeFailures.Load(),
		Ejections:      r.acct.ejections.Load(),
		BytesUp:        r.acct.bytesUp.Load(),
		BytesDown:      r.acct.bytesDown.Load(),
	}
	r.mu.Lock()
	if len(r.tenants) > 0 {
		st.TenantSessions = make(map[string]int64, len(r.tenants))
		for tenant, n := range r.tenants {
			st.TenantSessions[tenant] = n
		}
	}
	for _, ms := range r.members {
		st.Members = append(st.Members, MemberStatus{
			ID:            ms.m.ID,
			Addr:          ms.m.Addr,
			PeerAddr:      ms.m.PeerAddr,
			Alive:         ms.alive,
			Draining:      ms.draining,
			ActiveSplices: ms.active.Load(),
		})
	}
	r.mu.Unlock()
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].ID < st.Members[j].ID })
	return st
}

// FleetStats collects every member's serve.Stats over the peer
// protocol (in parallel, outside the membership lock) and aggregates
// the fleet totals. Unreachable shards are reported, not dropped.
func (r *Router) FleetStats() FleetStats {
	rs := r.Stats()
	out := FleetStats{Router: rs, Shards: map[string]ShardSnapshot{}}

	type result struct {
		id   string
		snap ShardSnapshot
	}
	results := make(chan result, len(rs.Members))
	var wg sync.WaitGroup
	for _, m := range rs.Members {
		if m.PeerAddr == "" {
			results <- result{m.ID, ShardSnapshot{Reachable: false, Error: "no peer address"}}
			continue
		}
		wg.Add(1)
		go func(m MemberStatus) {
			defer wg.Done()
			st, err := fetchPeerStats(m.PeerAddr, r.cfg.DialTimeout)
			if err != nil {
				results <- result{m.ID, ShardSnapshot{Reachable: false, Error: err.Error()}}
				return
			}
			results <- result{m.ID, ShardSnapshot{Reachable: true, Stats: st}}
		}(m)
	}
	wg.Wait()
	close(results)

	f := &out.Fleet
	f.ShardsTotal = len(rs.Members)
	f.BytesUp = rs.BytesUp
	f.BytesDown = rs.BytesDown
	tenantAgg := map[string]*serve.TenantStats{}
	layerAgg := map[int]*FleetLayer{}
	for res := range results {
		out.Shards[res.id] = res.snap
		if !res.snap.Reachable {
			continue
		}
		st := res.snap.Stats
		f.ShardsReachable++
		f.SessionsTotal += st.SessionsTotal
		f.SessionsActive += st.SessionsActive
		f.SessionsRejected += st.SessionsRejected
		f.Inferences += st.Inferences
		f.KeyCacheHits += st.KeyCacheHits
		f.KeyCacheMisses += st.KeyCacheMisses
		f.KeyCacheEvictions += st.KeyCacheEvictions
		f.KeyCacheEntries += st.KeyCacheEntries
		f.KeyCacheBytes += st.KeyCacheBytes
		if p99 := st.InferenceLatency.P99; p99 > f.InferenceP99Max {
			f.InferenceP99Max = p99
		}
		for _, ls := range st.Layers {
			agg := layerAgg[ls.Layer]
			if agg == nil {
				agg = &FleetLayer{Layer: ls.Layer, Kind: ls.Kind}
				layerAgg[ls.Layer] = agg
			}
			// ComputeMean holds the summed time until every shard is in.
			agg.Calls += ls.Compute.Count
			agg.ComputeMean += ls.Compute.Mean * time.Duration(ls.Compute.Count)
			if p99 := ls.Compute.P99; p99 > agg.ComputeP99Max {
				agg.ComputeP99Max = p99
			}
		}
		for _, ts := range st.Tenants {
			agg := tenantAgg[ts.Tenant]
			if agg == nil {
				agg = &serve.TenantStats{Tenant: ts.Tenant}
				tenantAgg[ts.Tenant] = agg
			}
			agg.ActiveSessions += ts.ActiveSessions
			agg.SessionsTotal += ts.SessionsTotal
			agg.SessionsRejected += ts.SessionsRejected
			agg.Inferences += ts.Inferences
			agg.BytesUp += ts.BytesUp
			agg.BytesDown += ts.BytesDown
		}
	}
	for _, agg := range tenantAgg {
		f.Tenants = append(f.Tenants, *agg)
	}
	sort.Slice(f.Tenants, func(i, j int) bool { return f.Tenants[i].Tenant < f.Tenants[j].Tenant })
	for _, agg := range layerAgg {
		if agg.Calls > 0 {
			agg.ComputeMean /= time.Duration(agg.Calls)
		}
		f.Layers = append(f.Layers, *agg)
	}
	sort.Slice(f.Layers, func(i, j int) bool { return f.Layers[i].Layer < f.Layers[j].Layer })
	return out
}

// FleetStatsHandler serves the aggregated fleet view as JSON. Any path
// ending in /healthz answers router readiness instead: 200 while at
// least one member is routable, 503 otherwise.
func (r *Router) FleetStatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/healthz") {
			r.healthHandler(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.FleetStats()); err != nil {
			r.cfg.Logf("fabric: router: encoding fleet stats: %v", err)
		}
	})
}

func (r *Router) healthHandler(w http.ResponseWriter, _ *http.Request) {
	routable := 0
	r.mu.Lock()
	total := len(r.members)
	for _, ms := range r.members {
		if ms.alive && !ms.draining {
			routable++
		}
	}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if routable == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(map[string]any{
		"ready":           routable > 0,
		"routable_shards": routable,
		"total_shards":    total,
	}); err != nil {
		r.cfg.Logf("fabric: router: encoding health: %v", err)
	}
}
