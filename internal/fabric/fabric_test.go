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
)

// fabricNet is a single-FC model: the fabric tests exercise routing,
// replication, and membership, not layer coverage, and a one-layer
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
	backend, _ := testBackend(t)
	clientLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShard(id, backend, serve.Config{MaxSessions: 4, Logf: t.Logf})
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
// routed inference matches direct serving byte for byte; a membership
// change migrates a session's evaluation keys shard-to-shard instead of
// re-uploading from the client; fleet stats aggregate across members;
// and a killed shard is ejected with its ring segment served by the
// survivors.
func TestFabricFleet(t *testing.T) {
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

	// Phase 2: key replication on ring re-flow. Pick a session that
	// adding shard-c migrates, upload its keys while the fleet is
	// {a, b}, grow the fleet, reconnect: the router hints the previous
	// owner, shard-c pulls the bundle over the peer protocol, and the
	// client's second setup is orders of magnitude cheaper.
	migID := findRemappedID(vnodes, []string{"shard-a", "shard-b"}, "shard-c")
	prevOwner := router.OwnerOf(migID)
	upBytes, cached, _ := session(t, addr, 77, migID, 1)
	if cached {
		t.Fatalf("first connect of %s reported cached keys", migID)
	}

	router.AddMember(shards["shard-c"].member("shard-c"))
	if got := router.OwnerOf(migID); got != "shard-c" {
		t.Fatalf("session %s owned by %s after adding shard-c, want shard-c", migID, got)
	}

	reBytes, cached, _ := session(t, addr, 77, migID, 1)
	if !cached {
		t.Fatal("reconnect after remap was not served from replicated keys")
	}
	if reBytes*10 >= upBytes {
		t.Errorf("reconnect uplink %d B vs first upload %d B — key upload was not skipped", reBytes, upBytes)
	}
	stC := shards["shard-c"].shard.Server.Stats()
	if stC.KeyReplications != 1 {
		t.Errorf("shard-c replications = %d, want 1", stC.KeyReplications)
	}
	if stC.KeyCacheHits != 1 || stC.KeyCacheMisses != 0 {
		t.Errorf("shard-c cache hits/misses = %d/%d, want 1/0", stC.KeyCacheHits, stC.KeyCacheMisses)
	}
	if rs := router.Stats(); rs.ReplicationHints < 1 {
		t.Errorf("router replication hints = %d, want ≥ 1", rs.ReplicationHints)
	}
	_ = prevOwner // recorded for the log line below
	t.Logf("replication: %s moved %s→shard-c, upload %d B, reconnect %d B", migID, prevOwner, upBytes, reBytes)

	// Phase 3: fleet stats aggregate across the members.
	fs := router.FleetStats()
	if fs.Fleet.ShardsReachable != 3 || fs.Fleet.ShardsTotal != 3 {
		t.Errorf("fleet reachability %d/%d, want 3/3", fs.Fleet.ShardsReachable, fs.Fleet.ShardsTotal)
	}
	if fs.Fleet.Inferences < 4 {
		t.Errorf("fleet inferences = %d, want ≥ 4", fs.Fleet.Inferences)
	}
	if fs.Fleet.KeyReplications != 1 {
		t.Errorf("fleet replications = %d, want 1", fs.Fleet.KeyReplications)
	}
	// Every client here has its reply, so every layer call of every
	// inference is already in the per-layer rows: one FC per request.
	if ls := fs.Fleet.Layers; len(ls) != 1 || ls[0].Kind != "fc" || ls[0].Calls != fs.Fleet.Inferences || fs.Fleet.BatchedItems != fs.Fleet.Inferences {
		t.Errorf("fleet layer rows %+v, %d layer call(s): want one fc row with the fleet's %d inference(s)", ls, fs.Fleet.BatchedItems, fs.Fleet.Inferences)
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
