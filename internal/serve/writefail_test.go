package serve

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/testkit"
)

// TestFailedAckEndsSession fails the server's first write of a session,
// the need-keys ack of a new one or the keys-cached ack of a known one,
// on a connection whose peer keeps sending: its hello, its key bundle and
// one more frame, without waiting for the ack. The server must end that
// session with the write's error and read no further frame from it. The
// session must give its worker slot back, and the next session on the
// same server must run as before.
func TestFailedAckEndsSession(t *testing.T) {
	testkit.CheckGoroutines(t)
	backend, model := testBackend(t, tinyNetwork)
	for _, tc := range []struct {
		name, id, want string
		cached         bool
	}{
		{name: "need-keys ack", id: "fail-need-keys", want: "send need-keys ack"},
		{name: "keys-cached ack", id: "fail-cached", want: "send cached ack", cached: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(backend, Config{MaxSessions: 1})
			client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{71})
			if err != nil {
				t.Fatal(err)
			}
			keyOut, keyIn := protocol.NewPipe()
			defer keyOut.Close()
			if err := client.Setup(keyOut); err != nil {
				t.Fatal(err)
			}
			bundle, err := keyIn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if tc.cached {
				installHandKeys(t, srv, backend, 71, tc.id)
			}
			hello, err := protocol.MarshalHelloTenant(tc.id, "")
			if err != nil {
				t.Fatal(err)
			}

			peerRaw, serverRaw := net.Pipe()
			defer peerRaw.Close()
			conn := testkit.FailWrites(serverRaw, 0)
			defer conn.Close()
			go func() {
				peer := protocol.NewConn(peerRaw)
				for _, frame := range [][]byte{hello, bundle, []byte("one more frame")} {
					if peer.Send(frame) != nil {
						return
					}
				}
			}()
			done := make(chan error, 1)
			go func() { done <- srv.ServeTransport(context.Background(), protocol.NewConn(conn)) }()
			select {
			case err := <-done:
				if !errors.Is(err, testkit.ErrWriteFailed) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("the session ended with %v; want its %q error", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the session is still open 10 s after its ack failed")
			}
			if !conn.Failed() {
				t.Fatal("the ack never failed")
			}
			if n := conn.LateReads(); n != 0 {
				t.Errorf("the server read %d time(s) from the session after its ack failed", n)
			}
			if st := srv.Stats(); len(srv.slots) != 0 || st.SessionsActive != 0 {
				t.Errorf("the failed session left %d slot(s) held, %d session(s) active", len(srv.slots), st.SessionsActive)
			}
			runClientSession(t, srv, tinyNetwork, model, 72, "after-"+tc.id, 1)
		})
	}
}
