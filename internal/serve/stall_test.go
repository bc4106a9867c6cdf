package serve

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"choco/internal/bfv"
	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/testkit"
)

// stallBound is how long one session's stalled peer may make anyone
// else wait: another client's handshake, or Serve's return after its
// context is cancelled.
const stallBound = 2 * time.Second

var errStallReleased = errors.New("stalled peer released")

// stallTransport is the server end of a pipe whose peer stops answering
// at one chosen point: the first Send of a frame that stallSend matches,
// or Recv number stallRecv. The call parks there, and parked is closed,
// until release is closed.
type stallTransport struct {
	*protocol.Pipe
	stallSend func(frame []byte) bool
	stallRecv int

	recvs           int
	parkOnce        sync.Once
	parked, release chan struct{}
}

func (st *stallTransport) park() error {
	st.parkOnce.Do(func() { close(st.parked) })
	<-st.release
	return errStallReleased
}

func (st *stallTransport) Send(msg []byte) error {
	if st.stallSend != nil && st.stallSend(msg) {
		return st.park()
	}
	return st.Pipe.Send(msg)
}

func (st *stallTransport) Recv() ([]byte, error) {
	st.recvs++
	if st.recvs == st.stallRecv {
		return nil, st.park()
	}
	return st.Pipe.Recv()
}

// queuedCtx reports, by closing asked, the first call of Done:
// acquireSlot asks for it only once it has to wait for a slot.
type queuedCtx struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func (c *queuedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

func isAck(want protocol.HelloAckStatus) func([]byte) bool {
	return func(frame []byte) bool {
		st, _, err := protocol.ParseHelloAck(frame)
		return err == nil && st == want
	}
}

func isSessionError(frame []byte) bool {
	_, ok := protocol.ParseSessionError(frame)
	return ok
}

func sendHello(t *testing.T, tr protocol.Transport, id, tenant string) {
	t.Helper()
	hello, err := protocol.MarshalHelloTenant(id, tenant)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(hello); err != nil {
		t.Fatal(err)
	}
}

// installHandKeys builds a tinyNetwork client from keySeed and installs
// its keys for id by hand, returning the client and the key bundle the
// session's evaluator reads: swapping its rotation keys for nil ones
// makes the next request panic the server's kernels.
func installHandKeys(t *testing.T, srv *Server, backend *nn.InferenceServer, keySeed byte, id string) (*nn.InferenceClient, *protocol.KeyBundle) {
	t.Helper()
	ctx, err := bfv.NewContext(tinyNetwork().Params)
	if err != nil {
		t.Fatal(err)
	}
	client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{keySeed})
	if err != nil {
		t.Fatal(err)
	}
	keyOut, keyIn := protocol.NewPipe()
	defer keyOut.Close()
	if err := client.Setup(keyOut); err != nil {
		t.Fatal(err)
	}
	raw, err := keyIn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := protocol.UnmarshalKeyBundle(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	srv.reg.store(id, backend.NewSession(kb), raw)
	return client, kb
}

// TestStalledSessionBlocksNoOne parks one session at a point where the
// server writes to or reads from its peer, and checks that nobody else
// waits on it: a TCP client through Serve still gets the hello ack its
// scenario's capacity dictates (or, when every slot is taken and the
// queue is long, at least gets queued), and Serve still returns once its
// context is cancelled. Both within stallBound.
func TestStalledSessionBlocksNoOne(t *testing.T) {
	testkit.CheckGoroutines(t)
	backend, _ := testBackend(t, tinyNetwork)
	const tenant = "stall-tenant"
	for _, tc := range []struct {
		name string
		cfg  Config
		// prepare runs before the stalled session starts and configures it.
		prepare func(t *testing.T, srv *Server, st *stallTransport)
		// open drives the stalled session's client side.
		open func(t *testing.T, srv *Server, client *protocol.Pipe)
		// queued: every slot is taken and QueueTimeout is long, so the
		// stalled session waits in acquireSlot and the TCP client queues
		// behind it instead of getting an ack.
		queued bool
		ack    protocol.HelloAckStatus
	}{
		{
			name: "busy ack at saturation",
			cfg:  Config{MaxSessions: 1},
			prepare: func(t *testing.T, srv *Server, st *stallTransport) {
				srv.slots <- struct{}{}
				st.stallSend = isAck(protocol.AckBusy)
			},
			ack: protocol.AckBusy,
		},
		{
			name: "tenant over quota",
			cfg:  Config{TenantMaxSessions: 1},
			prepare: func(t *testing.T, srv *Server, st *stallTransport) {
				srv.tenants.admit(tenant, 1)
				st.stallSend = isAck(protocol.AckBusy)
			},
			open: func(t *testing.T, _ *Server, client *protocol.Pipe) { sendHello(t, client, "stall-quota", tenant) },
			ack:  protocol.AckNeedKeys,
		},
		{
			name: "need-keys ack",
			prepare: func(t *testing.T, _ *Server, st *stallTransport) {
				st.stallSend = isAck(protocol.AckNeedKeys)
			},
			open: func(t *testing.T, _ *Server, client *protocol.Pipe) { sendHello(t, client, "stall-need-keys", "") },
			ack:  protocol.AckNeedKeys,
		},
		{
			name: "key bundle never comes",
			prepare: func(t *testing.T, _ *Server, st *stallTransport) {
				st.stallRecv = 2
			},
			open: func(t *testing.T, _ *Server, client *protocol.Pipe) { sendHello(t, client, "stall-no-keys", "") },
			ack:  protocol.AckNeedKeys,
		},
		{
			name: "session error after a kernel panic",
			prepare: func(t *testing.T, _ *Server, st *stallTransport) {
				st.stallSend = isSessionError
			},
			open: func(t *testing.T, srv *Server, client *protocol.Pipe) {
				const id = "stall-panic"
				hostile, kb := installHandKeys(t, srv, backend, 55, id)
				for g := range kb.Galois {
					kb.Galois[g] = nil
				}
				go func() {
					if _, err := hostile.SetupSession(client, id); err != nil {
						return
					}
					// The reply never comes; the pipe's close ends the wait.
					_, _, _ = hostile.Infer(nn.SynthesizeImage(tinyNetwork(), 4, [32]byte{55}), client)
				}()
			},
			ack: protocol.AckNeedKeys,
		},
		{
			name: "queued for a worker slot",
			cfg:  Config{MaxSessions: 1, QueueTimeout: time.Minute},
			prepare: func(t *testing.T, srv *Server, _ *stallTransport) {
				srv.slots <- struct{}{}
			},
			queued: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(backend, tc.cfg)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			serveDone := make(chan error, 1)
			go func() { serveDone <- srv.Serve(ctx, ln) }()
			served := false

			clientEnd, serverEnd := protocol.NewPipe()
			st := &stallTransport{Pipe: serverEnd, parked: make(chan struct{}), release: make(chan struct{})}
			stallCtx, stallCancel := context.WithCancel(context.Background())
			qctx := &queuedCtx{Context: stallCtx, asked: make(chan struct{})}
			tc.prepare(t, srv, st)
			stallDone := make(chan error, 1)
			go func() { stallDone <- srv.ServeTransport(qctx, st) }()
			// Whatever happens below, the stalled session is let go, and
			// it and Serve must then end.
			defer func() {
				close(st.release)
				stallCancel()
				clientEnd.Close()
				cancel()
				waits := []chan error{stallDone}
				if !served {
					waits = append(waits, serveDone)
				}
				for _, done := range waits {
					select {
					case <-done:
					case <-time.After(30 * time.Second):
						t.Error("the stalled session or Serve did not end after the release")
					}
				}
			}()
			if tc.open != nil {
				tc.open(t, srv, clientEnd)
			}
			parked := st.parked
			if tc.queued {
				parked = qctx.asked
			}
			select {
			case <-parked:
			case <-time.After(30 * time.Second):
				t.Fatal("the session never reached its stall point")
			}

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			tcp := protocol.NewConn(conn)
			start := time.Now()
			// At saturation the busy ack goes out before the server reads
			// a frame, and it hangs up after it: a hello could meet a
			// closed socket, so the client only listens.
			if tc.queued || tc.ack != protocol.AckBusy {
				sendHello(t, tcp, "tcp-client", "")
			}
			if tc.queued {
				if !connRegistered(srv, start.Add(stallBound)) {
					t.Errorf("the TCP client was not queued within %v of a stalled session", stallBound)
				}
			} else {
				tcp.SetReadTimeout(stallBound)
				raw, err := tcp.Recv()
				if err != nil {
					t.Fatalf("TCP client's hello ack, %v after its hello, with one session stalled: %v", time.Since(start), err)
				}
				if st, _, err := protocol.ParseHelloAck(raw); err != nil || st != tc.ack {
					t.Fatalf("TCP client's hello ack: status %d, err %v; want status %d", st, err, tc.ack)
				}
			}
			conn.Close()

			cancel()
			select {
			case err := <-serveDone:
				served = true
				if err != nil {
					t.Errorf("Serve returned %v", err)
				}
			case <-time.After(stallBound):
				t.Errorf("Serve did not return within %v of its cancel with one session stalled", stallBound)
			}
		})
	}
}

// connRegistered polls until Serve has registered a connection, giving
// up at deadline. It only tries the lock, so a lock held elsewhere reads
// as not registered instead of blocking the test.
func connRegistered(srv *Server, deadline time.Time) bool {
	for time.Now().Before(deadline) {
		if srv.mu.TryLock() {
			n := len(srv.conns)
			srv.mu.Unlock()
			if n > 0 {
				return true
			}
		}
		time.Sleep(time.Millisecond)
	}
	return false
}
