package fabric

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"choco/internal/bfv"
	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/serve"
	"choco/internal/testkit"
)

// fabricNet is a single-FC model: the fabric tests exercise routing,
// placement, and membership, not layer coverage, and a one-layer
// network keeps per-session keygen cheap.
func fabricNet() *nn.Network {
	return &nn.Network{
		Name: "FabricTestNet", InH: 4, InW: 4, InC: 1,
		Layers: []nn.Layer{
			{Kind: nn.FC, FCOut: 8},
		},
		Params: bfv.PresetTest(),
	}
}

var (
	fabricBackendOnce sync.Once
	fabricBackend     *nn.InferenceServer
	fabricModel       *nn.QuantizedModel
)

func testBackend(t *testing.T) (*nn.InferenceServer, *nn.QuantizedModel) {
	t.Helper()
	fabricBackendOnce.Do(func() {
		fabricModel = nn.SynthesizeWeights(fabricNet(), 4, [32]byte{21})
		var err error
		fabricBackend, err = nn.NewInferenceServer(fabricModel)
		if err != nil {
			panic(err)
		}
	})
	return fabricBackend, fabricModel
}

// shardProc is one running shard: its listeners, its Shard, and the
// cancel that kills it.
type shardProc struct {
	shard    *Shard
	addr     string // client-facing
	peerAddr string
	cancel   context.CancelFunc
	done     chan error
}

func startShard(t *testing.T, id string) *shardProc {
	t.Helper()
	return startShardConfig(t, id, serve.Config{MaxSessions: 4, Logf: t.Logf})
}

// startShardConfig is startShard with the shard's serve.Config given.
func startShardConfig(t *testing.T, id string, cfg serve.Config) *shardProc {
	t.Helper()
	backend, _ := testBackend(t)
	clientLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShard(id, backend, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	p := &shardProc{
		shard:    sh,
		addr:     clientLn.Addr().String(),
		peerAddr: peerLn.Addr().String(),
		cancel:   cancel,
		done:     make(chan error, 1),
	}
	go func() { p.done <- sh.Run(ctx, clientLn, peerLn) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			t.Error("shard " + id + " did not stop")
		}
	})
	return p
}

func (p *shardProc) member(id string) Member {
	return Member{ID: id, Addr: p.addr, PeerAddr: p.peerAddr}
}

// stop kills the shard and waits for its listeners to be torn down, so
// a subsequent health probe reliably fails.
func (p *shardProc) stop(t *testing.T) {
	t.Helper()
	p.cancel()
	select {
	case <-p.done:
		close(p.done) // the Cleanup wait sees the close, not a second send
	case <-time.After(10 * time.Second):
		t.Fatal("shard did not stop")
	}
}

func startRouter(t *testing.T, cfg RouterConfig) (*Router, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("router serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("router did not stop")
		}
	})
	return r, ln.Addr().String()
}

// session runs one client session against addr (router or shard):
// setup, n verified inferences, teardown. Returns the setup-phase
// uplink bytes (hello + key bundle, or hello alone on a cache hit),
// whether the server had the keys cached, and the last logits.
func session(t *testing.T, addr string, keySeed byte, id string, n int) (setupBytes int64, cached bool, logits []int64) {
	t.Helper()
	_, model := testBackend(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("session %s: dial %s: %v", id, addr, err)
	}
	defer conn.Close()
	c := protocol.NewConn(conn)
	c.SetReadTimeout(30 * time.Second)
	c.SetWriteTimeout(30 * time.Second)

	client, err := nn.NewInferenceClient(fabricNet(), [32]byte{keySeed})
	if err != nil {
		t.Fatalf("session %s: client: %v", id, err)
	}
	cached, err = client.SetupSession(c, id)
	if err != nil {
		t.Fatalf("session %s: setup: %v", id, err)
	}
	setupBytes = c.SentBytes()
	for i := 0; i < n; i++ {
		img := nn.SynthesizeImage(fabricNet(), 4, [32]byte{keySeed, byte(i)})
		want, err := nn.PlainInference(model, img)
		if err != nil {
			t.Fatalf("plain: %v", err)
		}
		logits, _, err = client.Infer(img, c)
		if err != nil {
			t.Fatalf("session %s: infer %d: %v", id, i, err)
		}
		for j := range want {
			if logits[j] != want[j] {
				t.Fatalf("session %s inference %d logit %d: got %d want %d", id, i, j, logits[j], want[j])
			}
		}
	}
	return setupBytes, cached, logits
}

// findRemappedID searches session IDs for one that a ring of the old
// members owns somewhere, but a ring with newShard added hands to
// newShard — the session a membership change migrates.
func findRemappedID(vnodes int, oldMembers []string, newShard string) string {
	oldRing := NewRing(vnodes)
	newRing := NewRing(vnodes)
	for _, m := range oldMembers {
		oldRing.Add(m)
		newRing.Add(m)
	}
	newRing.Add(newShard)
	for i := 0; i < 1<<20; i++ {
		id := fmt.Sprintf("remap-%d", i)
		if newRing.Owner(id) == newShard {
			return id
		}
	}
	panic("no remapped session ID found")
}

// waitSplicesDone waits until the router has torn down every splice of
// the sessions that already ended, so bounded-load placement sees no
// stale load and the next session goes to its ring owner.
func waitSplicesDone(t *testing.T, r *Router) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		busy := int64(0)
		for _, m := range r.Stats().Members {
			busy += m.ActiveSplices
		}
		if busy == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d splice(s) still active 10 s after their clients hung up", busy)
		}
	}
}

// findOwnedID searches session IDs for one owned by shard on the
// router's current ring.
func findOwnedID(t *testing.T, r *Router, shard, prefix string) string {
	t.Helper()
	for i := 0; i < 1<<20; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if r.OwnerOf(id) == shard {
			return id
		}
	}
	t.Fatal("no session ID owned by " + shard)
	return ""
}

// TestFabricFleet drives the full three-shard fabric end to end:
// routed inference matches direct serving byte for byte; a session a
// membership change moves uploads its key bundle to its new shard once
// and is served from that shard's registry after; fleet stats aggregate
// across members; and a killed shard is ejected with its ring segment
// served by the survivors.
func TestFabricFleet(t *testing.T) {
	testkit.CheckGoroutines(t)
	if testing.Short() {
		t.Skip("multi-shard fabric harness is not short")
	}
	shards := map[string]*shardProc{
		"shard-a": startShard(t, "shard-a"),
		"shard-b": startShard(t, "shard-b"),
		"shard-c": startShard(t, "shard-c"),
	}
	const vnodes = 64
	router, addr := startRouter(t, RouterConfig{
		Members:        []Member{shards["shard-a"].member("shard-a"), shards["shard-b"].member("shard-b")},
		VirtualNodes:   vnodes,
		HealthInterval: -1, // probes driven explicitly via CheckNow
		HealthFailures: 2,
		DialTimeout:    5 * time.Second,
		Logf:           t.Logf,
	})

	// Phase 1: routed results are byte-identical to direct serving.
	// Same model, same key seed, same image — one session through the
	// router, one straight at a shard.
	_, cached, routedLogits := session(t, addr, 31, "base-1", 1)
	if cached {
		t.Error("fresh session reported cached keys")
	}
	_, _, directLogits := session(t, shards["shard-a"].addr, 31, "direct-1", 1)
	if len(routedLogits) == 0 || len(routedLogits) != len(directLogits) {
		t.Fatalf("logit shapes differ: routed %d, direct %d", len(routedLogits), len(directLogits))
	}
	for j := range routedLogits {
		if routedLogits[j] != directLogits[j] {
			t.Fatalf("logit %d: routed %d, direct %d — routing changed the computation", j, routedLogits[j], directLogits[j])
		}
	}

	// Phase 2: ring re-flow. Pick a session that adding shard-c moves,
	// set it up while the fleet is {a, b}, grow the fleet and reconnect
	// through the router. Shard-c has never seen the session, so the
	// client uploads its bundle there once — the public key alone — and
	// gets exact logits; its next reconnect hits shard-c's registry.
	migID := findRemappedID(vnodes, []string{"shard-a", "shard-b"}, "shard-c")
	prevOwner := router.OwnerOf(migID)
	if _, cached, _ := session(t, addr, 77, migID, 1); cached {
		t.Fatalf("first connect of %s reported cached keys", migID)
	}

	router.AddMember(shards["shard-c"].member("shard-c"))
	if got := router.OwnerOf(migID); got != "shard-c" {
		t.Fatalf("session %s owned by %s after adding shard-c, want shard-c", migID, got)
	}

	waitSplicesDone(t, router)
	movedBytes, cached, _ := session(t, addr, 77, migID, 1)
	if cached {
		t.Fatal("the moved session reported cached keys on a shard that never saw it")
	}
	waitSplicesDone(t, router)
	againBytes, cached, _ := session(t, addr, 77, migID, 1)
	if !cached {
		t.Fatal("the moved session's next reconnect was not served from shard-c's registry")
	}
	params := fabricNet().Params
	bundle := protocol.KeyBundleBytes(params.N(), params.QBits, params.PBits, false, 0)
	// The two setups differ by the bundle frame alone: its bytes and
	// the 4-byte length prefix.
	if got := movedBytes - againBytes; got != int64(bundle)+4 {
		t.Errorf("the moved session uploaded %d B more than its cached reconnect, want the %d B bundle frame", got, bundle+4)
	}
	if frame, ok := shards["shard-c"].shard.Server.LookupKeyFrame(migID); !ok || len(frame) != bundle {
		t.Errorf("shard-c holds a %d B bundle for %s (cached %v), want %d B", len(frame), migID, ok, bundle)
	}
	stC := shards["shard-c"].shard.Server.Stats()
	if stC.KeyCacheHits != 1 || stC.KeyCacheMisses != 1 {
		t.Errorf("shard-c cache hits/misses = %d/%d, want 1/1", stC.KeyCacheHits, stC.KeyCacheMisses)
	}
	t.Logf("re-flow: %s moved %s→shard-c, setup %d B up, cached reconnect %d B up", migID, prevOwner, movedBytes, againBytes)

	// Phase 3: fleet stats aggregate across the members.
	fs := router.FleetStats()
	if fs.Fleet.ShardsReachable != 3 || fs.Fleet.ShardsTotal != 3 {
		t.Errorf("fleet reachability %d/%d, want 3/3", fs.Fleet.ShardsReachable, fs.Fleet.ShardsTotal)
	}
	if fs.Fleet.Inferences != 5 {
		t.Errorf("fleet inferences = %d, want 5", fs.Fleet.Inferences)
	}
	if fs.Fleet.KeyCacheHits != 1 {
		t.Errorf("fleet key cache hits = %d, want 1 (the moved session's second reconnect)", fs.Fleet.KeyCacheHits)
	}
	// Every client here has its reply, so every layer call of every
	// inference is already in the per-layer rows: one FC per request.
	if ls := fs.Fleet.Layers; len(ls) != 1 || ls[0].Kind != "fc" || ls[0].Calls != fs.Fleet.Inferences {
		t.Errorf("fleet layer rows %+v: want one fc row with the fleet's %d inference(s)", ls, fs.Fleet.Inferences)
	}
	for id, snap := range fs.Shards {
		if snap.Stats.Kernels == "" || snap.Stats.Parallelism < 1 {
			t.Errorf("shard %s reports kernel tier %q at par width %d", id, snap.Stats.Kernels, snap.Stats.Parallelism)
		}
	}
	rec := httptest.NewRecorder()
	router.FleetStatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("router healthz = %d with routable members, want 200", rec.Code)
	}

	// Phase 4: ejection. Kill shard-c, probe it past the failure
	// threshold, and serve a session from its ring segment — it must
	// land on a survivor.
	victimID := findOwnedID(t, router, "shard-c", "evict")
	shards["shard-c"].stop(t)
	router.CheckNow()
	router.CheckNow()
	if router.MemberHealthy("shard-c") {
		t.Fatal("shard-c still healthy after failed probes")
	}
	if rs := router.Stats(); rs.Ejections < 1 {
		t.Errorf("router ejections = %d, want ≥ 1", rs.Ejections)
	}
	_, cached, _ = session(t, addr, 99, victimID, 1)
	if cached {
		t.Error("fresh session on survivor reported cached keys")
	}
}
