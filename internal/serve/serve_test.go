package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"choco/internal/bfv"
	"choco/internal/nn"
	"choco/internal/protocol"
)

func testNetwork() *nn.Network {
	return &nn.Network{
		Name: "ServeTestNet", InH: 12, InW: 12, InC: 1,
		Layers: []nn.Layer{
			{Kind: nn.Conv, KH: 3, KW: 3, OutC: 2},
			{Kind: nn.Act, RequantShift: 7},
			{Kind: nn.Pool},
			{Kind: nn.Conv, KH: 3, KW: 3, OutC: 4},
			{Kind: nn.Act, RequantShift: 7},
			{Kind: nn.Pool},
			{Kind: nn.FC, FCOut: 10},
		},
		Params: bfv.PresetTest(),
	}
}

// tinyNetwork is a single-FC model for tests that exercise
// concurrency and admission control rather than layer coverage —
// client keygen is the dominant per-session cost, and a one-layer
// network needs far fewer Galois keys.
func tinyNetwork() *nn.Network {
	return &nn.Network{
		Name: "ServeTinyNet", InH: 4, InW: 4, InC: 1,
		Layers: []nn.Layer{
			{Kind: nn.FC, FCOut: 8},
		},
		Params: bfv.PresetTest(),
	}
}

// testBackend compiles each shared model once per test binary — the
// point of the subsystem is many sessions against one backend.
var (
	backendOnce sync.Once
	backends    map[string]*nn.InferenceServer
	models      map[string]*nn.QuantizedModel
)

func testBackend(t *testing.T, netFn func() *nn.Network) (*nn.InferenceServer, *nn.QuantizedModel) {
	t.Helper()
	backendOnce.Do(func() {
		backends = map[string]*nn.InferenceServer{}
		models = map[string]*nn.QuantizedModel{}
		for _, fn := range []func() *nn.Network{testNetwork, tinyNetwork} {
			net0 := fn()
			model := nn.SynthesizeWeights(net0, 4, [32]byte{21})
			backend, err := nn.NewInferenceServer(model)
			if err != nil {
				panic(err)
			}
			backends[net0.Name] = backend
			models[net0.Name] = model
		}
	})
	name := netFn().Name
	return backends[name], models[name]
}

// runClientSession opens one in-memory session and runs n inferences,
// verifying each against the plaintext reference and its traffic against
// the plan — so every reply of every tier test arrived switched down to
// the reply level and decrypted right.
func runClientSession(t *testing.T, srv *Server, netFn func() *nn.Network, model *nn.QuantizedModel, keySeed byte, sessionID string, n int) (sentBytes int64, cached bool) {
	t.Helper()
	client, err := nn.NewInferenceClient(netFn(), [32]byte{keySeed})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	tp, cached := runTapedSession(t, srv, client, model, keySeed, sessionID, n, nil)
	return tp.SentBytes(), cached
}

// tape is a client transport that keeps a copy of every frame it moves.
type tape struct {
	protocol.Transport
	up, down [][]byte
}

func (tp *tape) Send(msg []byte) error {
	tp.up = append(tp.up, append([]byte(nil), msg...))
	return tp.Transport.Send(msg)
}

func (tp *tape) Recv() ([]byte, error) {
	msg, err := tp.Transport.Recv()
	if err == nil {
		tp.down = append(tp.down, append([]byte(nil), msg...))
	}
	return msg, err
}

// runTapedSession is runClientSession for a client the caller built,
// returning the session's frames; before, when set, runs ahead of
// inference i.
func runTapedSession(t *testing.T, srv *Server, client *nn.InferenceClient, model *nn.QuantizedModel, imgSeed byte, sessionID string, n int, before func(i int)) (*tape, bool) {
	t.Helper()
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	tp := &tape{Transport: clientEnd}

	done := make(chan error, 1)
	go func() { done <- srv.ServeTransport(context.Background(), serverEnd) }()

	cached, err := client.SetupSession(tp, sessionID)
	if err != nil {
		t.Fatalf("session open: %v", err)
	}
	plan, err := nn.ExecutableRequestCost(client.Net)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	for i := 0; i < n; i++ {
		if before != nil {
			before(i)
		}
		img := nn.SynthesizeImage(client.Net, 4, [32]byte{imgSeed, byte(i)})
		want, err := nn.PlainInference(model, img)
		if err != nil {
			t.Fatalf("plain: %v", err)
		}
		got, stats, err := client.Infer(img, tp)
		if err != nil {
			t.Fatalf("infer %d: %v", i, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("session %s inference %d logit %d: got %d want %d", sessionID, i, j, got[j], want[j])
			}
		}
		if stats.TotalBytes() != plan.WireBytes {
			t.Fatalf("session %s inference %d moved %d B, the plan says %d B", sessionID, i, stats.TotalBytes(), plan.WireBytes)
		}
	}
	clientEnd.Close()
	if err := <-done; err != nil {
		t.Fatalf("server session: %v", err)
	}
	return tp, cached
}

// TestConcurrentSessions drives 8 simultaneous in-memory sessions —
// distinct clients, distinct keys — through one Server and checks
// every inference against the plaintext reference.
func TestConcurrentSessions(t *testing.T) {
	backend, model := testBackend(t, tinyNetwork)
	srv := New(backend, Config{MaxSessions: 8})

	const sessions = 8
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runClientSession(t, srv, tinyNetwork, model, byte(30+w), fmt.Sprintf("conc-%d", w), 2)
		}(w)
	}
	wg.Wait()

	st := srv.Stats()
	if st.SessionsTotal != sessions {
		t.Errorf("sessions total %d, want %d", st.SessionsTotal, sessions)
	}
	if st.Inferences != sessions*2 {
		t.Errorf("inferences %d, want %d", st.Inferences, sessions*2)
	}
	if st.SessionsActive != 0 {
		t.Errorf("active sessions %d after drain", st.SessionsActive)
	}
	if st.KeyCacheMisses != sessions || st.KeyCacheHits != 0 {
		t.Errorf("key cache hits/misses %d/%d, want 0/%d", st.KeyCacheHits, st.KeyCacheMisses, sessions)
	}
	if st.InferenceLatency.Count != sessions*2 || st.InferenceLatency.P99 == 0 {
		t.Errorf("inference latency summary %+v", st.InferenceLatency)
	}
	if st.ServerOps.Rotations == 0 || st.ServerOps.PlainMults == 0 {
		t.Errorf("server ops not accounted: %+v", st.ServerOps)
	}
	if st.BytesUp == 0 || st.BytesDown == 0 {
		t.Errorf("traffic not accounted: up %d down %d", st.BytesUp, st.BytesDown)
	}
}

// TestKeyCacheReconnect verifies the tentpole reconnect path: the
// second session under the same ID completes an inference without
// re-uploading evaluation keys, confirmed by bytes-up accounting.
func TestKeyCacheReconnect(t *testing.T) {
	backend, model := testBackend(t, testNetwork)
	srv := New(backend, Config{MaxSessions: 2})

	first, cached := runClientSession(t, srv, testNetwork, model, 77, "reconnect-me", 1)
	if cached {
		t.Fatal("first session reported cached keys")
	}
	second, cached := runClientSession(t, srv, testNetwork, model, 77, "reconnect-me", 1)
	if !cached {
		t.Fatal("second session did not hit the key cache")
	}
	// The key bundle dominates first-session upload; without it the
	// reconnect's bytes-up must collapse to hello + input ciphertexts.
	if second >= first/2 {
		t.Errorf("reconnect sent %d B, first connect %d B — key upload not skipped", second, first)
	}
	st := srv.Stats()
	if st.KeyCacheHits != 1 || st.KeyCacheMisses != 1 {
		t.Errorf("key cache hits/misses %d/%d, want 1/1", st.KeyCacheHits, st.KeyCacheMisses)
	}
	if st.KeyCacheEntries != 1 {
		t.Errorf("key cache entries %d, want 1", st.KeyCacheEntries)
	}
	t.Logf("first connect %d B up, cached reconnect %d B up (%.1f%%)", first, second, 100*float64(second)/float64(first))
}

// TestRegistryEviction fills the key cache beyond capacity and checks
// LRU eviction.
func TestRegistryEviction(t *testing.T) {
	backend, model := testBackend(t, tinyNetwork)
	srv := New(backend, Config{MaxSessions: 1, KeyCacheCap: 2})

	runClientSession(t, srv, tinyNetwork, model, 50, "ev-a", 1)
	runClientSession(t, srv, tinyNetwork, model, 51, "ev-b", 1)
	runClientSession(t, srv, tinyNetwork, model, 50, "ev-a", 1) // refresh a
	runClientSession(t, srv, tinyNetwork, model, 52, "ev-c", 1) // evicts b
	if n := srv.reg.len(); n != 2 {
		t.Fatalf("registry size %d, want 2", n)
	}
	if srv.reg.lookup("ev-b") != nil {
		t.Error("LRU entry ev-b not evicted")
	}
	if srv.reg.lookup("ev-a") == nil || srv.reg.lookup("ev-c") == nil {
		t.Error("recently used entries evicted")
	}
}

// TestBackpressureReject saturates a 1-slot server and checks that the
// next session is rejected with a busy ack the client can decode.
func TestBackpressureReject(t *testing.T) {
	backend, _ := testBackend(t, tinyNetwork)
	srv := New(backend, Config{MaxSessions: 1})

	// Occupy the only slot with a session that never sends anything.
	holdClient, holdServer := protocol.NewPipe()
	defer holdClient.Close()
	holdDone := make(chan error, 1)
	go func() { holdDone <- srv.ServeTransport(context.Background(), holdServer) }()

	// Wait until the slot is actually claimed.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.slots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first session never claimed its slot")
		}
		time.Sleep(time.Millisecond)
	}

	client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{60})
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	done := make(chan error, 1)
	go func() { done <- srv.ServeTransport(context.Background(), serverEnd) }()
	if _, err := client.SetupSession(clientEnd, "rejected"); !errors.Is(err, nn.ErrServerBusy) {
		t.Fatalf("expected ErrServerBusy, got %v", err)
	}
	if err := <-done; !errors.Is(err, ErrSaturated) {
		t.Fatalf("server returned %v, want ErrSaturated", err)
	}
	if st := srv.Stats(); st.SessionsRejected != 1 {
		t.Errorf("rejected sessions %d, want 1", st.SessionsRejected)
	}
	holdClient.Close()
	<-holdDone
}

// TestServeTCP runs the real listener path: 4 concurrent clients over
// loopback TCP complete inferences correctly, then a context cancel
// shuts the server down gracefully while one client sits idle.
func TestServeTCP(t *testing.T) {
	backend, model := testBackend(t, tinyNetwork)
	srv := New(backend, Config{MaxSessions: 4, IdleTimeout: time.Minute, IOTimeout: 30 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()

	const clients = 4
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{byte(90 + w)})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer conn.Close()
			tr := protocol.NewConn(conn)
			if _, err := client.SetupSession(tr, fmt.Sprintf("tcp-%d", w)); err != nil {
				t.Errorf("worker %d setup: %v", w, err)
				return
			}
			img := nn.SynthesizeImage(tinyNetwork(), 4, [32]byte{byte(90 + w), 1})
			want, _ := nn.PlainInference(model, img)
			got, _, err := client.Infer(img, tr)
			if err != nil {
				t.Errorf("worker %d infer: %v", w, err)
				return
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("worker %d logit %d: got %d want %d", w, j, got[j], want[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Leave one connection idle mid-session, then cancel: Serve must
	// interrupt it and return instead of hanging forever.
	idleConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idleConn.Close()
	idleClient, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{99})
	if err != nil {
		t.Fatal(err)
	}
	idleTr := protocol.NewConn(idleConn)
	if _, err := idleClient.SetupSession(idleTr, "tcp-idle"); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not drain within 10s of cancellation")
	}

	st := srv.Stats()
	if st.SessionsTotal != clients+1 {
		t.Errorf("sessions %d, want %d", st.SessionsTotal, clients+1)
	}
	if st.Inferences != clients {
		t.Errorf("inferences %d, want %d", st.Inferences, clients)
	}
}

// TestIdleTimeoutClosesSession checks that a client which goes silent
// between requests is disconnected after IdleTimeout — connections are
// closed on a deadline, not never.
func TestIdleTimeoutClosesSession(t *testing.T) {
	backend, _ := testBackend(t, tinyNetwork)
	srv := New(backend, Config{MaxSessions: 1, IdleTimeout: 150 * time.Millisecond, IOTimeout: 5 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()

	client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{70})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tr := protocol.NewConn(conn)
	if _, err := client.SetupSession(tr, "idler"); err != nil {
		t.Fatal(err)
	}
	// Send nothing; the server must hang up. The subsequent read on
	// our side then fails promptly instead of blocking forever.
	tr.SetReadTimeout(5 * time.Second)
	start := time.Now()
	if _, err := tr.Recv(); err == nil {
		t.Fatal("expected the server to close the idle session")
	}
	if waited := time.Since(start); waited >= 5*time.Second {
		t.Fatalf("server kept the idle session open past %v", waited)
	}
	cancel()
	<-serveDone
}

// TestSessionPanicIsContained runs three concurrent sessions through a
// server whose kernels panic on the second request of one of them (its
// rotation keys are swapped for nil ones after the first reply, and not
// before both other sessions have had a layer run: the panicking session
// is not the first to submit). That session alone fails — told so by an
// error frame, its stack in the log under its session ID — while the
// other two, which send their last request only after the panic, finish
// every request on a server whose counters still add up and whose worker
// slots are all free again.
func TestSessionPanicIsContained(t *testing.T) {
	backend, model := testBackend(t, tinyNetwork)
	var logMu sync.Mutex
	var logged []string
	srv := New(backend, Config{MaxSessions: 3, Logf: func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}})
	ctx, err := bfv.NewContext(tinyNetwork().Params)
	if err != nil {
		t.Fatal(err)
	}

	// The hostile session is installed by hand, so the test keeps a
	// handle on the key map its evaluator reads.
	const hostileID, requests = "panic-hostile", 3
	hostile, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{50})
	if err != nil {
		t.Fatal(err)
	}
	keyOut, keyIn := protocol.NewPipe()
	if err := hostile.Setup(keyOut); err != nil {
		t.Fatal(err)
	}
	raw, err := keyIn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	keyOut.Close()
	kb, err := protocol.UnmarshalKeyBundle(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	srv.reg.store(hostileID, backend.NewSession(kb), raw)

	// A mate reports its first reply (and its exit, so the hostile session
	// never waits for a mate that has already failed the test).
	mateReplied, hostileOver := make(chan struct{}, 4), make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { mateReplied <- struct{}{} }()
			client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{byte(51 + w)})
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			runTapedSession(t, srv, client, model, byte(51+w), fmt.Sprintf("panic-mate-%d", w), requests, func(i int) {
				switch i {
				case 1:
					mateReplied <- struct{}{}
				case requests - 1:
					<-hostileOver
				}
			})
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(hostileOver)
		clientEnd, serverEnd := protocol.NewPipe()
		defer clientEnd.Close()
		done := make(chan error, 1)
		go func() { done <- srv.ServeTransport(context.Background(), serverEnd) }()
		if cached, err := hostile.SetupSession(clientEnd, hostileID); err != nil || !cached {
			t.Errorf("hostile session open: cached=%v err=%v", cached, err)
			return
		}
		img := nn.SynthesizeImage(tinyNetwork(), 4, [32]byte{50})
		if _, _, err := hostile.Infer(img, clientEnd); err != nil {
			t.Errorf("hostile session, first request: %v", err)
			return
		}
		<-mateReplied
		<-mateReplied
		for g := range kb.Galois {
			kb.Galois[g] = nil // the next rotation dereferences it
		}
		if _, _, err := hostile.Infer(img, clientEnd); err == nil || !strings.Contains(err.Error(), "the server failed the session") {
			t.Errorf("hostile session, second request: err = %v, want the server's error frame", err)
		}
		var pe *panicError
		if err := <-done; !errors.As(err, &pe) {
			t.Errorf("hostile session ended with %v, want the recovered panic", err)
		}
	}()
	wg.Wait()

	st := srv.Stats()
	if st.SessionsTotal != 3 || st.SessionsActive != 0 || st.SessionPanics != 1 || st.SessionsRejected != 0 {
		t.Errorf("stats after the panic: %+v", st)
	}
	if want := int64(2*requests + 1); st.Inferences != want || st.InferenceLatency.Count != want {
		t.Errorf("inferences %d (latency samples %d), want %d", st.Inferences, st.InferenceLatency.Count, want)
	}
	if len(srv.slots) != 0 {
		t.Errorf("%d worker slots still held", len(srv.slots))
	}
	// The server still serves: a fourth session takes a freed slot.
	runClientSession(t, srv, tinyNetwork, model, 53, "panic-after", 1)

	logMu.Lock()
	defer logMu.Unlock()
	found := false
	for _, line := range logged {
		if strings.Contains(line, hostileID) && strings.Contains(line, "panic during inference 2") && strings.Contains(line, "goroutine ") {
			found = true
		}
	}
	if !found {
		t.Errorf("no log line names session %q with the panic's stack: %q", hostileID, logged)
	}
}

// TestRawKeyBundleOpenerRefused: a key bundle as first frame — the opener
// that skipped tenant quota, the registry and the session ID — is an
// unrecognized first frame like any other. The refusal holds no worker
// slot and no tenant count, and the same client is served once it says
// hello.
func TestRawKeyBundleOpenerRefused(t *testing.T) {
	backend, model := testBackend(t, tinyNetwork)
	srv := New(backend, Config{MaxSessions: 1, TenantMaxSessions: 1})
	client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{61})
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	if err := client.Setup(clientEnd); err != nil { // the bare bundle
		t.Fatal(err)
	}
	err = srv.ServeTransport(context.Background(), serverEnd)
	if err == nil || !strings.Contains(err.Error(), "unrecognized first frame") {
		t.Fatalf("bundle-first session: %v, want the unrecognized-first-frame error", err)
	}
	st := srv.Stats()
	if len(srv.slots) != 0 || st.SessionsActive != 0 || len(st.Tenants) != 0 || st.KeyCacheMisses != 0 || srv.reg.len() != 0 {
		t.Errorf("the refusal left %d slot(s) held, %d active session(s), tenants %+v, %d key-cache miss(es), %d registry entries",
			len(srv.slots), st.SessionsActive, st.Tenants, st.KeyCacheMisses, srv.reg.len())
	}
	// The one slot is free again.
	runClientSession(t, srv, tinyNetwork, model, 61, "after-refusal", 1)
}
