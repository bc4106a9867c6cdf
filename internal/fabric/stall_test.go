package fabric

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"choco/internal/protocol"
	"choco/internal/testkit"
)

// stallBound is how long one stalled peer may make another client of
// the router wait for its hello ack.
const stallBound = 2 * time.Second

// fakeShard is a member's client port that answers every hello the
// router forwards with AckNeedKeys, except that a session named by flood gets
// floodBytes of one frame instead. flooded is closed once that frame is
// written to the router's socket.
type fakeShard struct {
	ln         net.Listener
	flood      string
	floodBytes int
	flooded    chan struct{}
}

func startFakeShard(t *testing.T, flood string, floodBytes int) *fakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeShard{ln: ln, flood: flood, floodBytes: floodBytes, flooded: make(chan struct{})}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				c := protocol.NewConn(conn)
				raw, err := c.Recv()
				if err != nil {
					return
				}
				h, err := protocol.ParseHello(raw)
				if err != nil {
					t.Errorf("fake shard: %v", err)
					return
				}
				if h.SessionID == fs.flood {
					if c.Send(make([]byte, fs.floodBytes)) == nil {
						close(fs.flooded)
					}
				} else if c.Send(protocol.MarshalHelloAck(protocol.AckNeedKeys)) != nil {
					return
				}
				_, _ = io.Copy(io.Discard, conn) // until the router hangs up
			}()
		}
	}()
	return fs
}

// helloAckWithin dials the router, says hello as id and checks that an
// AckNeedKeys comes back within stallBound.
func helloAckWithin(t *testing.T, routerAddr, id string) {
	t.Helper()
	conn, err := net.Dial("tcp", routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := protocol.NewConn(conn)
	c.SetReadTimeout(stallBound)
	hello, err := protocol.MarshalHelloTenant(id, "")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Send(hello); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Recv()
	if err != nil {
		t.Errorf("client %s: no hello ack %v after its hello, with a stalled peer in the fleet: %v", id, time.Since(start), err)
		return
	}
	if st, _, err := protocol.ParseHelloAck(raw); err != nil || st != protocol.AckNeedKeys {
		t.Errorf("client %s: hello ack status %d, err %v; want AckNeedKeys", id, st, err)
	}
}

// TestFleetStatsSilentPeerBlocksNoRouting: FleetStats waits on a member
// whose peer listener takes the stats request and never answers. A
// client routed meanwhile must get its hello ack within stallBound, and
// FleetStats reports the member unreachable once the peer hangs up.
func TestFleetStatsSilentPeerBlocksNoRouting(t *testing.T) {
	testkit.CheckGoroutines(t)
	shard := startFakeShard(t, "", 0)
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	asked := make(chan net.Conn, 1)
	go func() {
		conn, err := silent.Accept()
		if err != nil {
			return
		}
		if _, err := protocol.NewConn(conn).Recv(); err != nil {
			conn.Close()
			return
		}
		asked <- conn // and never answer
	}()

	router, routerAddr := startRouter(t, RouterConfig{
		Members:        []Member{{ID: "silent", Addr: shard.ln.Addr().String(), PeerAddr: silent.Addr().String()}},
		HealthInterval: -1,
		DialTimeout:    time.Minute, // the stats fetch's frame budget
		Logf:           t.Logf,
	})
	stats := make(chan FleetStats, 1)
	go func() { stats <- router.FleetStats() }()
	var peer net.Conn
	select {
	case peer = <-asked:
	case <-time.After(30 * time.Second):
		t.Fatal("FleetStats never asked the silent peer")
	}
	defer peer.Close()

	helloAckWithin(t, routerAddr, "routed-during-fleet-stats")

	peer.Close()
	select {
	case fs := <-stats:
		if snap := fs.Shards["silent"]; snap.Reachable || fs.Fleet.ShardsReachable != 0 {
			t.Errorf("silent member reported %+v, fleet reachable %d; want unreachable", snap, fs.Fleet.ShardsReachable)
		}
	case <-time.After(stallBound):
		t.Errorf("FleetStats did not return within %v of the silent peer hanging up", stallBound)
	}
}

// TestStalledReaderBlocksNoRouting: a member sends a frame far larger
// than the socket buffers to a client that never reads, so the router's
// relay of it parks. Another client routed through the same router must
// still get its hello ack within stallBound.
func TestStalledReaderBlocksNoRouting(t *testing.T) {
	testkit.CheckGoroutines(t)
	const floodBytes = 16 << 20
	shard := startFakeShard(t, "never-reads", floodBytes)
	_, routerAddr := startRouter(t, RouterConfig{
		Members:        []Member{{ID: "flood", Addr: shard.ln.Addr().String()}},
		HealthInterval: -1,
		IOTimeout:      time.Minute, // the relay's write budget
		Logf:           t.Logf,
	})

	conn, err := net.Dial("tcp", routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	hello, err := protocol.MarshalHelloTenant("never-reads", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.NewConn(conn).Send(hello); err != nil {
		t.Fatal(err)
	}
	select {
	case <-shard.flooded:
	case <-time.After(30 * time.Second):
		t.Fatal("the member never got its frame onto the router's socket")
	}
	// The router reads the rest of the frame off loopback and parks in
	// the relay to the client that does not read.
	time.Sleep(200 * time.Millisecond)

	helloAckWithin(t, routerAddr, "routed-past-a-stalled-reader")
}

// TestHealthLoopEjectsAndStops: with probes on, a shard whose peer
// listener is gone is ejected within a few intervals, and the probe loop
// ends with the router (the leak check holds it to that).
func TestHealthLoopEjectsAndStops(t *testing.T) {
	testkit.CheckGoroutines(t)
	a, b := startShard(t, "shard-a"), startShard(t, "shard-b")
	r, _ := startRouter(t, RouterConfig{
		Members:        []Member{a.member("shard-a"), b.member("shard-b")},
		HealthInterval: 20 * time.Millisecond,
		DialTimeout:    time.Second,
	})
	b.stop(t)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		alive := map[string]bool{}
		for _, m := range r.Stats().Members {
			alive[m.ID] = m.Alive
		}
		if alive["shard-a"] && !alive["shard-b"] {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("probes did not eject the stopped shard alone: alive %v", alive)
		}
	}
}

// TestRouterServeReturnsOnListenerClose: Serve also ends when its
// listener fails under a live context, and leaves nothing running; the
// context is cancelled only after the leak check.
func TestRouterServeReturnsOnListenerClose(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	testkit.CheckGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- NewRouter(RouterConfig{}).Serve(ctx, ln) }()
	ln.Close()
	select {
	case <-done:
	case <-time.After(testkit.LeakBound):
		t.Fatal("Serve did not return after its listener closed")
	}
}
