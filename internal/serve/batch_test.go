package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/testkit"
)

// TestLayerRunsOnArrival: two sessions are admitted and one of them never
// sends a request. The other's whole inference — three layers — completes
// all the same: a layer runs when its input arrives, and nothing on the
// way waits for a second session to show up.
func TestLayerRunsOnArrival(t *testing.T) {
	testkit.CheckGoroutines(t)
	backend, model := testBackend(t, productNetwork)
	srv := New(backend, Config{MaxSessions: 2})

	silent, err := nn.NewInferenceClient(productNetwork(), [32]byte{88})
	if err != nil {
		t.Fatal(err)
	}
	silentEnd, serverEnd := protocol.NewPipe()
	silentDone := serveEnd(srv, serverEnd)
	if _, err := silent.SetupSession(silentEnd, "arrival-silent"); err != nil {
		t.Fatal(err)
	}

	runClientSession(t, srv, productNetwork, model, 89, "arrival-busy", 1)

	st := srv.Stats()
	if st.SessionsActive != 1 || st.Inferences != 1 {
		t.Errorf("%d active session(s), %d inference(s): want the silent session still open beside one finished inference", st.SessionsActive, st.Inferences)
	}
	if b := st.Batching; b.Items != 3 || b.Rounds != 3 || b.CoalescedItems != 0 || b.SerialRescues != 0 {
		t.Errorf("executor stats %+v: want three layer calls, one per layer", b)
	}
	silentEnd.Close()
	if err := <-silentDone; err != nil {
		t.Errorf("silent session: %v", err)
	}
}

// replay is a server-side transport that feeds recorded request frames to
// a session and keeps what it sends back.
type replay struct {
	in, out [][]byte
}

func (r *replay) Send(msg []byte) error {
	r.out = append(r.out, append([]byte(nil), msg...))
	return nil
}

func (r *replay) Recv() ([]byte, error) {
	if len(r.in) == 0 {
		return nil, io.EOF
	}
	msg := r.in[0]
	r.in = r.in[1:]
	return msg, nil
}

func (r *replay) SentBytes() int64     { return 0 }
func (r *replay) ReceivedBytes() int64 { return 0 }

// TestConcurrentSessionsExactLogits runs one, two and three concurrent
// end-to-end sessions through the server. Every logit equals the
// plaintext reference, and every reply frame is the bytes the serial path
// — the same session with no executor, its layers through the operators'
// own Apply — sends for the same request frames: whatever overlap the
// sessions had changes nothing a client can see.
func TestConcurrentSessionsExactLogits(t *testing.T) {
	testkit.CheckGoroutines(t)
	backend, model := testBackend(t, productNetwork)
	const maxSessions, requests, layers = 3, 2, 3
	clients := make([]*nn.InferenceClient, maxSessions)
	for i := range clients {
		var err error
		if clients[i], err = nn.NewInferenceClient(productNetwork(), [32]byte{byte(90 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for sessions := 1; sessions <= maxSessions; sessions++ {
		srv := New(backend, Config{MaxSessions: maxSessions})
		tapes := make([]*testkit.Recorder, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tapes[i], _, _ = runTapedSession(t, srv, clients[i], model, byte(90+i), fmt.Sprintf("exact-%d", i), requests, nil)
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		st := srv.Stats()
		if b, want := st.Batching, int64(sessions*requests*layers); b.Items != want || b.Rounds != b.Items {
			t.Errorf("%d session(s): executor stats %+v, want %d layer calls", sessions, b, want)
		}
		for _, ls := range st.Layers {
			if ls.Compute.Count != int64(sessions*requests) {
				t.Errorf("%d session(s): layer %d (%s) timed %d call(s), want %d", sessions, ls.Layer, ls.Kind, ls.Compute.Count, sessions*requests)
			}
		}
		if len(st.Layers) != layers {
			t.Errorf("%d session(s): %d layer rows, want %d", sessions, len(st.Layers), layers)
		}

		// up: hello, key bundle, then the requests; down: hello ack, then
		// the replies.
		for i, tp := range tapes {
			serial, err := backend.NewSessionFromFrame(tp.Up()[1])
			if err != nil {
				t.Fatal(err)
			}
			rp := &replay{in: tp.Up()[2:]}
			for r := 0; r < requests; r++ {
				if _, err := serial.ServeOne(rp); err != nil {
					t.Fatalf("serial replay of session %d request %d: %v", i, r, err)
				}
			}
			replies := tp.Down()[1:]
			if len(rp.out) != len(replies) {
				t.Fatalf("%d session(s), session %d: %d reply frames, the serial path sends %d", sessions, i, len(replies), len(rp.out))
			}
			for f := range replies {
				if !bytes.Equal(replies[f], rp.out[f]) {
					t.Errorf("%d session(s), session %d: reply frame %d differs from the serial path's", sessions, i, f)
				}
			}
		}
	}
}

// TestTenantQuotaBusyAck pins quota admission: with a one-session
// tenant quota, the tenant's second concurrent session is rejected
// with a busy ack carrying the configured retry-after hint, a
// different tenant is admitted untouched, and the slot frees on
// session close. The rejected session's close line still names it and
// its tenant.
func TestTenantQuotaBusyAck(t *testing.T) {
	testkit.CheckGoroutines(t)
	backend, model := testBackend(t, tinyNetwork)
	const retry = 123 * time.Millisecond
	var logMu sync.Mutex
	var logged []string
	srv := New(backend, Config{
		MaxSessions:       4,
		TenantMaxSessions: 1,
		RetryAfter:        retry,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})

	open := func(keySeed byte, sessionID, tenant string) (*protocol.Pipe, <-chan error, error) {
		client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{keySeed})
		if err != nil {
			t.Fatal(err)
		}
		clientEnd, serverEnd := protocol.NewPipe()
		done := serveEnd(srv, serverEnd)
		_, err = client.SetupSessionTenant(clientEnd, sessionID, tenant)
		return clientEnd, done, err
	}

	// Tenant acme fills its quota with one open session.
	connA, doneA, err := open(51, "quota-a", "acme")
	if err != nil {
		t.Fatalf("first acme session: %v", err)
	}

	// Its second session is rejected with the retry-after hint…
	connB, doneB, err := open(52, "quota-b", "acme")
	if !errors.Is(err, nn.ErrServerBusy) {
		t.Fatalf("over-quota session error = %v, want ErrServerBusy", err)
	}
	var busy *nn.BusyError
	if !errors.As(err, &busy) || busy.RetryAfter != retry {
		t.Fatalf("over-quota error %v, want BusyError with retry-after %v", err, retry)
	}
	connB.Close()
	<-doneB
	logMu.Lock()
	const closed = `serve: session "quota-b" (tenant "acme"): closed after`
	if !slices.ContainsFunc(logged, func(line string) bool { return strings.HasPrefix(line, closed) }) {
		t.Errorf("no log line opens with %q: %q", closed, logged)
	}
	logMu.Unlock()

	// …while another tenant is admitted and completes an inference.
	runClientSessionTenant(t, srv, model, 53, "quota-c", "globex")

	// Closing acme's session frees its quota slot.
	connA.Close()
	<-doneA
	runClientSessionTenant(t, srv, model, 51, "quota-a", "acme")

	var acme, globex TenantStats
	for _, ts := range srv.Stats().Tenants {
		switch ts.Tenant {
		case "acme":
			acme = ts
		case "globex":
			globex = ts
		}
	}
	if acme.SessionsTotal != 2 || acme.SessionsRejected != 1 || acme.ActiveSessions != 0 {
		t.Errorf("acme stats %+v: want 2 admitted, 1 rejected, 0 active", acme)
	}
	if globex.SessionsTotal != 1 || globex.SessionsRejected != 0 || globex.Inferences != 1 {
		t.Errorf("globex stats %+v: want 1 admitted, 0 rejected, 1 inference", globex)
	}
	if acme.BytesUp == 0 {
		t.Error("acme traffic not folded into tenant stats")
	}
}

// runClientSessionTenant opens a tenant-tagged session, runs one
// verified inference, and closes it.
func runClientSessionTenant(t *testing.T, srv *Server, model *nn.QuantizedModel, keySeed byte, sessionID, tenant string) {
	t.Helper()
	client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{keySeed})
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	done := serveEnd(srv, serverEnd)
	if _, err := client.SetupSessionTenant(clientEnd, sessionID, tenant); err != nil {
		t.Fatalf("session %s (tenant %s): %v", sessionID, tenant, err)
	}
	img := nn.SynthesizeImage(tinyNetwork(), 4, [32]byte{keySeed, 1})
	want, err := nn.PlainInference(model, img)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := client.Infer(img, clientEnd)
	if err != nil {
		t.Fatalf("inference: %v", err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("logit %d: got %d want %d", j, got[j], want[j])
		}
	}
	clientEnd.Close()
	if err := <-done; err != nil {
		t.Fatalf("server session: %v", err)
	}
}

// TestEvictedKeysReplicateFromPeer pins the interaction between the
// registry byte budget and fabric replication: when the byte budget
// evicts a session's keys, a reconnect carrying a replication hint
// re-fetches the bundle from the previous owner — counted as a
// replication, never as a client upload.
func TestEvictedKeysReplicateFromPeer(t *testing.T) {
	testkit.CheckGoroutines(t)
	backend, model := testBackend(t, tinyNetwork)
	srvA := New(backend, Config{MaxSessions: 1})
	runClientSession(t, srvA, tinyNetwork, model, 57, "evict-1", 1)

	bundle, ok := srvA.LookupKeyFrame("evict-1")
	if !ok {
		t.Fatal("owner shard lost the uploaded bundle")
	}
	// A byte budget that holds exactly one bundle: every store evicts
	// the previous tenant of the cache.
	srvB := New(backend, Config{
		MaxSessions:   1,
		KeyCacheBytes: int64(len(bundle)),
		FetchKeys: func(id, peer string) ([]byte, error) {
			raw, ok := srvA.LookupKeyFrame(id)
			if !ok {
				return nil, errors.New("peer miss")
			}
			return raw, nil
		},
	})

	openShard := func(sessionID string) {
		t.Helper()
		clientEnd, serverEnd := protocol.NewPipe()
		done := serveEnd(srvB, serverEnd)
		hello, err := protocol.MarshalShardHelloTenant(sessionID, "peer-a", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := clientEnd.Send(hello); err != nil {
			t.Fatal(err)
		}
		raw, err := clientEnd.Recv()
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := protocol.ParseHelloAck(raw)
		if err != nil {
			t.Fatal(err)
		}
		if st != protocol.AckKeysCached {
			t.Fatalf("session %s acked %d, want AckKeysCached (client must not re-upload)", sessionID, st)
		}
		clientEnd.Close()
		if err := <-done; err != nil {
			t.Fatalf("server session: %v", err)
		}
	}

	// First visit replicates evict-1 from the peer.
	openShard("evict-1")
	// A second session's store blows the byte budget and evicts evict-1…
	runClientSession(t, srvB, tinyNetwork, model, 58, "evict-2", 1)
	if _, ok := srvB.LookupKeyFrame("evict-1"); ok {
		t.Fatal("evict-1 survived a byte budget sized for one bundle")
	}
	// …so its reconnect must replicate again rather than ask the client.
	openShard("evict-1")

	st := srvB.Stats()
	if st.KeyReplications != 2 {
		t.Errorf("KeyReplications = %d, want 2 (initial + post-eviction re-fetch)", st.KeyReplications)
	}
	if st.KeyCacheEvictions == 0 {
		t.Error("byte budget recorded no evictions")
	}
	// The uploads: exactly one, from evict-2's own client. evict-1 was
	// admitted twice without ever re-uploading.
	if st.KeyCacheMisses != 1 {
		t.Errorf("KeyCacheMisses = %d, want 1 (only evict-2's upload)", st.KeyCacheMisses)
	}
}
