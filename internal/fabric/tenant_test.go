package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/serve"
	"choco/internal/testkit"
)

// TestTenantQuotaThroughFabric drives quota admission end to end
// through the router: the tenant field reaches the shard in the hello
// the router forwards, an over-quota tenant's session is rejected with the shard's
// retry-after hint while an under-quota tenant completes, and the
// per-tenant counters surface in router and fleet stats.
func TestTenantQuotaThroughFabric(t *testing.T) {
	testkit.CheckGoroutines(t)
	const retry = 200 * time.Millisecond
	_, model := testBackend(t)
	sh := startShardConfig(t, "quota-shard", serve.Config{
		MaxSessions:       4,
		TenantMaxSessions: 1,
		RetryAfter:        retry,
		Logf:              t.Logf,
	})
	router, routerAddr := startRouter(t, RouterConfig{
		Members:        []Member{sh.member("quota-shard")},
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
	for _, ts := range sh.shard.Server.Stats().Tenants {
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
	testkit.CheckGoroutines(t)
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

// TestRetiredShardHelloRefused: older fleets opened a shard session with
// a router-authored "CSHL" frame whose hint field named a peer address
// the shard would dial for keys. A shard now refuses that frame like any
// other first frame that is not a hello: it names it in the log, dials
// nothing — not even the listening decoy the hint names — and frees the
// worker slot, so the next client is served.
func TestRetiredShardHelloRefused(t *testing.T) {
	testkit.CheckGoroutines(t)
	var mu sync.Mutex
	var logs []string
	sh := startShardConfig(t, "cshl-shard", serve.Config{
		MaxSessions: 1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	decoy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer decoy.Close()

	// The retired layout: magic, hello version, session ID length, hint
	// length, then the session ID and the hint.
	const id = "cshl-1"
	hint := decoy.Addr().String()
	frame := binary.LittleEndian.AppendUint32(nil, 0x4c485343) // "CSHL"
	frame = binary.LittleEndian.AppendUint32(frame, protocol.HelloVersion)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(id)))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(hint)))
	frame = append(append(frame, id...), hint...)

	conn, err := net.Dial("tcp", sh.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := protocol.NewConn(conn)
	c.SetReadTimeout(10 * time.Second)
	if err := c.Send(frame); err != nil {
		t.Fatal(err)
	}
	if raw, err := c.Recv(); err == nil {
		t.Fatalf("the shard answered a retired shard hello with a %d B frame, want a hangup", len(raw))
	} else if strings.Contains(err.Error(), "timeout") {
		t.Fatalf("the shard still holds the connection 10 s after a retired shard hello: %v", err)
	}

	// Had the shard dialled the hint, that connection would be waiting in
	// the decoy's accept queue by now.
	if err := decoy.(*net.TCPListener).SetDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if peer, err := decoy.Accept(); err == nil {
		peer.Close()
		t.Fatal("the shard dialled the address a retired shard hello named")
	}
	mu.Lock()
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "unrecognized first frame") {
		t.Errorf("shard log %q does not name the unrecognized first frame", joined)
	}
	mu.Unlock()
	if st := sh.shard.Server.Stats(); st.SessionsActive != 0 || st.KeyCacheMisses != 0 || st.KeyCacheEntries != 0 {
		t.Errorf("after the refusal: %d active session(s), %d key miss(es), %d cached bundle(s); want none", st.SessionsActive, st.KeyCacheMisses, st.KeyCacheEntries)
	}
	// The shard has one worker slot: this session runs only if the
	// refused connection gave it back.
	session(t, sh.addr, 49, "after-cshl", 1)
}
