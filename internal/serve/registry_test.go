package serve

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"choco/internal/testkit"
)

// TestRegistryByteBudget checks the byte-budget cap: entries are
// evicted LRU once the retained bundle bytes exceed the budget, even
// when the entry count stays under its own cap.
func TestRegistryByteBudget(t *testing.T) {
	testkit.CheckGoroutines(t)
	r := newRegistry(10, 100)
	raw := func(n int) []byte { return make([]byte, n) }

	r.store("a", nil, raw(40))
	r.store("b", nil, raw(40))
	if b, ev := r.usage(); b != 80 || ev != 0 {
		t.Fatalf("usage after two stores: %d B, %d evictions", b, ev)
	}
	r.store("c", nil, raw(40)) // 120 B > 100: evicts a (LRU)
	if _, ok := r.lookupFrame("a"); ok {
		t.Error("LRU entry a not evicted by byte budget")
	}
	if _, ok := r.lookupFrame("b"); !ok {
		t.Error("entry b evicted prematurely")
	}
	if b, ev := r.usage(); b != 80 || ev != 1 {
		t.Errorf("usage after budget eviction: %d B, %d evictions, want 80/1", b, ev)
	}

	// A single oversized entry is kept anyway (availability over
	// strictness), evicting everything else.
	r.store("huge", nil, raw(500))
	if _, ok := r.lookupFrame("huge"); !ok {
		t.Error("oversized entry not retained")
	}
	if n := r.len(); n != 1 {
		t.Errorf("registry size %d after oversized store, want 1", n)
	}
	if b, _ := r.usage(); b != 500 {
		t.Errorf("bytes %d after oversized store, want 500", b)
	}

	// Replacing an entry under the same ID must not double-count bytes.
	r.store("huge", nil, raw(60))
	if b, _ := r.usage(); b != 60 {
		t.Errorf("bytes %d after same-ID replace, want 60", b)
	}
}

// TestRegistryByteStatsSurface runs a real session and checks the new
// registry signals surface in Stats.
func TestRegistryByteStatsSurface(t *testing.T) {
	testkit.CheckGoroutines(t)
	backend, model := testBackend(t, tinyNetwork)
	srv := New(backend, Config{MaxSessions: 1})
	runClientSession(t, srv, tinyNetwork, model, 41, "bytes-a", 1)

	st := srv.Stats()
	if st.KeyCacheBytes == 0 {
		t.Error("KeyCacheBytes not surfaced")
	}
	if st.KeyCacheEntries != 1 || st.KeyCacheEvictions != 0 {
		t.Errorf("entries/evictions %d/%d, want 1/0", st.KeyCacheEntries, st.KeyCacheEvictions)
	}
	raw, ok := srv.LookupKeyFrame("bytes-a")
	if !ok || int64(len(raw)) != st.KeyCacheBytes {
		t.Errorf("LookupKeyFrame: ok=%v len=%d, want KeyCacheBytes=%d", ok, len(raw), st.KeyCacheBytes)
	}
}

// TestHealthEndpoint checks the /healthz readiness payload and its
// routing through StatsHandler.
func TestHealthEndpoint(t *testing.T) {
	testkit.CheckGoroutines(t)
	backend, _ := testBackend(t, tinyNetwork)
	srv := New(backend, Config{MaxSessions: 3})

	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.StatsHandler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("healthz status %d, want 200", rec.Code)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if !h.Ready || h.Draining || h.MaxSessions != 3 || h.ActiveSessions != 0 {
		t.Errorf("health payload %+v", h)
	}

	srv.draining.Store(true)
	rec = httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Errorf("draining healthz status %d, want 503", rec.Code)
	}
	if !srv.Stats().Draining {
		t.Error("Stats.Draining not surfaced")
	}
}
