package fabric

import (
	"context"
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

// TestFailedOpeningFrameEndsSession fails the router's write of the
// opening frame to the shard it dialled, on a connection the shard side
// could still deliver on. The router must end that session the way it
// ends one whose dial failed: a busy ack the client's SetupSession
// reports as ErrServerBusy, then a hang-up, and one more route failure
// in its stats. It must read nothing from that shard connection, and
// the next session through the same router must run as before.
func TestFailedOpeningFrameEndsSession(t *testing.T) {
	testkit.CheckGoroutines(t)
	sh := startShard(t, "s1")
	var mu sync.Mutex
	var logs []string
	r := NewRouter(RouterConfig{
		Members:        []Member{sh.member("s1")},
		HealthInterval: -1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	var failing *testkit.FailingConn
	r.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		mu.Lock()
		defer mu.Unlock()
		if err != nil || failing != nil {
			return conn, err
		}
		failing = testkit.FailWrites(conn, 0)
		return failing, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Serve(ctx, ln) }()
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("router did not stop")
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := protocol.NewConn(conn)
	c.SetReadTimeout(10 * time.Second)
	client, err := nn.NewInferenceClient(fabricNet(), [32]byte{80})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SetupSession(c, "fail-opening"); !errors.Is(err, nn.ErrServerBusy) {
		t.Fatalf("setup whose opening frame the router failed to forward: %v, want %v", err, nn.ErrServerBusy)
	}
	if raw, err := c.Recv(); err == nil {
		t.Fatalf("the client read a %d B frame after the busy ack; want the router to hang up", len(raw))
	} else if strings.Contains(err.Error(), "timeout") {
		t.Fatalf("the router still holds the session 10 s after the opening frame failed: %v", err)
	}
	mu.Lock()
	if failing == nil || !failing.Failed() {
		mu.Unlock()
		t.Fatal("the opening frame never failed")
	}
	if n := failing.LateReads(); n != 0 {
		t.Errorf("the router read %d time(s) from the shard after the opening frame failed", n)
	}
	if !strings.Contains(strings.Join(logs, "\n"), "forwarding opening frame") {
		t.Errorf("router log %q does not name the failed opening frame", logs)
	}
	mu.Unlock()
	if st := r.Stats(); st.RouteFailures != 1 || st.RoutedSessions != 0 {
		t.Errorf("router stats: %d route failures, %d routed sessions; want 1 and 0", st.RouteFailures, st.RoutedSessions)
	}

	session(t, ln.Addr().String(), 81, "after-fail-opening", 1)
}

// TestFailedPeerResponseEndsConn fails the peer server's write of a
// response on a connection whose peer sends one more request. The peer
// server must drop that connection and read no further frame from it,
// while a connection beside it goes on being answered.
func TestFailedPeerResponseEndsConn(t *testing.T) {
	testkit.CheckGoroutines(t)
	backend, _ := testBackend(t)
	p := &peerServer{srv: serve.New(backend, serve.Config{}), logf: t.Logf}
	ping := protocol.MarshalPeerPing()

	okPeer, okServer := net.Pipe()
	defer okPeer.Close()
	okDone := make(chan struct{})
	go func() {
		defer close(okDone)
		defer okServer.Close()
		p.serveConn(protocol.NewConn(okServer))
	}()
	other := protocol.NewConn(okPeer)
	pong := func(when string) {
		t.Helper()
		if err := other.Send(ping); err != nil {
			t.Fatalf("the other connection, %s: %v", when, err)
		}
		raw, err := other.Recv()
		if err != nil {
			t.Fatalf("the other connection, %s: %v", when, err)
		}
		if _, err := protocol.UnmarshalPeerPong(raw); err != nil {
			t.Fatalf("the other connection, %s: %v", when, err)
		}
	}
	pong("before")

	peerRaw, serverRaw := net.Pipe()
	defer peerRaw.Close()
	conn := testkit.FailWrites(serverRaw, 0)
	defer conn.Close()
	go func() {
		peer := protocol.NewConn(peerRaw)
		for range 2 {
			if peer.Send(ping) != nil {
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.serveConn(protocol.NewConn(conn))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the peer server still serves the connection 10 s after its response failed")
	}
	if !conn.Failed() {
		t.Fatal("the response never failed")
	}
	if n := conn.LateReads(); n != 0 {
		t.Errorf("the peer server read %d time(s) from the connection after its response failed", n)
	}
	pong("after")
	okPeer.Close()
	<-okDone
}
