package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/serve"
)

// TestAdoptSessionLRUSurvivesCapPressure pins the owners-map eviction
// order: a recently-adopted session must survive cap pressure, and the
// evicted entry must be the one that has gone longest without routing.
// (The old map-iteration eviction could drop any entry, including the
// hottest session's replication hint.)
func TestAdoptSessionLRUSurvivesCapPressure(t *testing.T) {
	r := NewRouter(RouterConfig{
		Members: []Member{
			{ID: "s1", Addr: "127.0.0.1:1", PeerAddr: "127.0.0.1:2"},
			{ID: "s2", Addr: "127.0.0.1:3", PeerAddr: "127.0.0.1:4"},
		},
		HealthInterval: -1,
	})
	s1 := r.members["s1"]
	s2 := r.members["s2"]

	// The hot session routes first, then ownersCap-1 fillers push the
	// table exactly to cap (hot is now the LRU tail).
	r.adoptSession("hot", s1)
	for i := 0; i < ownersCap-1; i++ {
		r.adoptSession(fmt.Sprintf("filler-%d", i), s1)
	}
	if n := len(r.owners); n != ownersCap {
		t.Fatalf("owners table has %d entries, want cap %d", n, ownersCap)
	}

	// Routing hot again refreshes its recency without growing the table;
	// the next insert at cap must evict filler-0, the true LRU.
	r.adoptSession("hot", s1)
	r.adoptSession("one-more", s1)
	if n := len(r.owners); n != ownersCap {
		t.Fatalf("owners table has %d entries after eviction, want %d", n, ownersCap)
	}
	if _, ok := r.owners["filler-0"]; ok {
		t.Error("filler-0 (LRU) survived cap pressure")
	}
	if _, ok := r.owners["hot"]; !ok {
		t.Fatal("recently-adopted session evicted under cap pressure")
	}

	// The surviving record still yields its replication hint when the
	// session moves shards — the point of keeping the hot entries.
	if hint := r.adoptSession("hot", s2); hint != s1.m.PeerAddr {
		t.Errorf("hot session hint %q, want previous owner %q", hint, s1.m.PeerAddr)
	}
	// The evicted session moved too, but its history is gone: no hint.
	if hint := r.adoptSession("filler-0", s2); hint != "" {
		t.Errorf("evicted session produced a stale hint %q", hint)
	}
}

// TestDeadPeerHintFallsBackFast is the dead-previous-owner regression
// test: a replication hint pointing at a killed shard must fail fast to
// the client-upload fallback — the session completes, the client just
// pays the upload — instead of parking behind the full peer frame
// timeout.
func TestDeadPeerHintFallsBackFast(t *testing.T) {
	// Shard A owns the session's keys, then dies.
	shardA := startShard(t, "dead-a")
	session(t, shardA.addr, 44, "dead-hint-1", 1)
	deadPeer := shardA.peerAddr
	shardA.stop(t)

	shardB := startShard(t, "dead-b")

	conn, err := net.Dial("tcp", shardB.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := protocol.NewConn(conn)
	c.SetReadTimeout(30 * time.Second)
	c.SetWriteTimeout(30 * time.Second)

	hello, err := protocol.MarshalShardHello("dead-hint-1", deadPeer)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Send(hello); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	st, err := protocol.UnmarshalHelloAck(raw)
	if err != nil {
		t.Fatal(err)
	}
	if st != protocol.AckNeedKeys {
		t.Fatalf("ack %d, want AckNeedKeys (fallback to client upload)", st)
	}
	// The dial to the dead peer must be bounded well below the 30s peer
	// frame budget the old code burned per request.
	if limit := peerDialTimeout + 4*time.Second; elapsed > limit {
		t.Errorf("dead-peer fallback took %v, want < %v", elapsed, limit)
	}

	// The fallback session is fully functional once the client uploads.
	client, err := nn.NewInferenceClient(fabricNet(), [32]byte{44})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Setup(c); err != nil {
		t.Fatal(err)
	}
	_, model := testBackend(t)
	img := nn.SynthesizeImage(fabricNet(), 4, [32]byte{44, 1})
	want, _ := nn.PlainInference(model, img)
	got, _, err := client.Infer(img, c)
	if err != nil {
		t.Fatalf("inference after dead-peer fallback: %v", err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("logit %d: got %d want %d", j, got[j], want[j])
		}
	}
}

// TestTenantQuotaThroughFabric drives quota admission end to end
// through the router: the tenant field crosses the router's ShardHello
// rewrite, an over-quota tenant's session is rejected with the shard's
// retry-after hint while an under-quota tenant completes, and the
// per-tenant counters surface in router and fleet stats.
func TestTenantQuotaThroughFabric(t *testing.T) {
	const retry = 200 * time.Millisecond
	backend, model := testBackend(t)
	clientLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShard("quota-shard", backend, serve.Config{
		MaxSessions:       4,
		TenantMaxSessions: 1,
		RetryAfter:        retry,
		Logf:              t.Logf,
	})
	shCtx, shCancel := context.WithCancel(context.Background())
	shDone := make(chan error, 1)
	go func() { shDone <- sh.Run(shCtx, clientLn, peerLn) }()
	t.Cleanup(func() {
		shCancel()
		select {
		case <-shDone:
		case <-time.After(10 * time.Second):
			t.Error("quota shard did not stop")
		}
	})

	router, routerAddr := startRouter(t, RouterConfig{
		Members:        []Member{{ID: "quota-shard", Addr: clientLn.Addr().String(), PeerAddr: peerLn.Addr().String()}},
		HealthInterval: -1,
		Logf:           t.Logf,
	})

	openTenant := func(keySeed byte, id, tenant string) (*nn.InferenceClient, *protocol.Conn, error) {
		conn, err := net.Dial("tcp", routerAddr)
		if err != nil {
			t.Fatal(err)
		}
		c := protocol.NewConn(conn)
		c.SetReadTimeout(30 * time.Second)
		c.SetWriteTimeout(30 * time.Second)
		client, err := nn.NewInferenceClient(fabricNet(), [32]byte{keySeed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.SetupSessionTenant(c, id, tenant); err != nil {
			conn.Close()
			return nil, nil, err
		}
		return client, c, nil
	}

	// Tenant acme fills its quota; its second session is bounced with
	// the shard's retry-after hint, relayed through the router splice.
	_, held, err := openTenant(46, "quota-f1", "acme")
	if err != nil {
		t.Fatalf("first acme session: %v", err)
	}
	_, _, err = openTenant(47, "quota-f2", "acme")
	var busy *nn.BusyError
	if !errors.As(err, &busy) || busy.RetryAfter != retry {
		t.Fatalf("over-quota error %v, want BusyError with retry-after %v", err, retry)
	}

	// A different tenant runs a full verified inference meanwhile.
	client3, c3, err := openTenant(48, "quota-f3", "globex")
	if err != nil {
		t.Fatalf("globex session: %v", err)
	}
	img := nn.SynthesizeImage(fabricNet(), 4, [32]byte{48, 1})
	want, _ := nn.PlainInference(model, img)
	got, _, err := client3.Infer(img, c3)
	if err != nil {
		t.Fatalf("under-quota tenant inference: %v", err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("logit %d: got %d want %d", j, got[j], want[j])
		}
	}
	held.Close()
	c3.Close()

	if rs := router.Stats(); rs.TenantSessions["acme"] != 2 || rs.TenantSessions["globex"] != 1 {
		t.Errorf("router tenant counters %v, want acme=2 globex=1", rs.TenantSessions)
	}
	var acme serve.TenantStats
	for _, ts := range sh.Server.Stats().Tenants {
		if ts.Tenant == "acme" {
			acme = ts
		}
	}
	if acme.SessionsTotal != 1 || acme.SessionsRejected != 1 {
		t.Errorf("shard acme stats %+v, want 1 admitted / 1 rejected", acme)
	}
}

// TestRawKeyBundleOpenerRefused, through the router: a connection whose
// first frame is a key bundle is closed where it arrives — no shard is
// dialled, nothing is routed — and the same client is served once it
// says hello.
func TestRawKeyBundleOpenerRefused(t *testing.T) {
	sh := startShard(t, "refuse-shard")
	router, routerAddr := startRouter(t, RouterConfig{
		Members:        []Member{sh.member("refuse-shard")},
		HealthInterval: -1,
		Logf:           t.Logf,
	})
	client, err := nn.NewInferenceClient(fabricNet(), [32]byte{47})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := protocol.NewConn(conn)
	c.SetReadTimeout(30 * time.Second)
	c.SetWriteTimeout(30 * time.Second)
	if err := client.Setup(c); err != nil { // the bare bundle
		t.Fatal(err)
	}
	if raw, err := c.Recv(); err == nil {
		t.Fatalf("the router answered a bundle-first connection with a %d B frame, want a hangup", len(raw))
	}
	rs, ss := router.Stats(), sh.shard.Server.Stats()
	if rs.Connections != 1 || rs.RoutedSessions != 0 || rs.RouteFailures != 0 || ss.SessionsTotal != 0 || ss.SessionsActive != 0 {
		t.Errorf("router %d connection(s), %d routed, %d route failure(s); shard %d session(s), %d active — want 1, 0, 0, 0, 0",
			rs.Connections, rs.RoutedSessions, rs.RouteFailures, ss.SessionsTotal, ss.SessionsActive)
	}
	session(t, routerAddr, 47, "after-refusal", 1)
	if rs := router.Stats(); rs.RoutedSessions != 1 {
		t.Errorf("%d session(s) routed after the hello, want 1", rs.RoutedSessions)
	}
}
