package protocol

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestRecvTimeoutHalfWrittenFrame is the stalled-peer case: the peer
// announces a frame, writes part of it, then goes silent. Recv must
// error out within the configured timeout instead of hanging the
// worker forever.
func TestRecvTimeoutHalfWrittenFrame(t *testing.T) {
	peer, ours := net.Pipe()
	defer peer.Close()
	defer ours.Close()

	go func() {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], 100)
		peer.Write(lenBuf[:])
		peer.Write(make([]byte, 10)) // 10 of the promised 100 bytes
		// ...and stall.
	}()

	tr := NewConn(ours)
	tr.SetReadTimeout(100 * time.Millisecond)
	err := within(t, ours, func() error { _, err := tr.Recv(); return err })
	if err == nil {
		t.Fatal("Recv succeeded on a half-written frame")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("expected a timeout error, got %v", err)
	}
}

// within runs call, which blocks on conn, and returns its error. If call
// is still blocked after two seconds, within closes conn to release it
// and fails the test: a missing deadline fails in seconds instead of
// hanging the package until its timeout.
func within(t *testing.T, conn net.Conn, call func() error) error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- call() }()
	select {
	case err := <-errCh:
		return err
	case <-time.After(2 * time.Second):
		conn.Close()
		t.Fatal("still blocked after 2s: deadline not enforced")
		return nil
	}
}

// TestRecvTimeoutCoversLengthPrefix: a peer that connects and sends
// nothing at all must also time out.
func TestRecvTimeoutCoversLengthPrefix(t *testing.T) {
	peer, ours := net.Pipe()
	defer peer.Close()
	defer ours.Close()

	tr := NewConn(ours)
	tr.SetReadTimeout(100 * time.Millisecond)
	if err := within(t, ours, func() error { _, err := tr.Recv(); return err }); err == nil {
		t.Fatal("Recv succeeded with a silent peer")
	}
}

// TestSendTimeoutStalledReader: a peer that never drains its socket
// must not wedge Send forever once a write timeout is set.
func TestSendTimeoutStalledReader(t *testing.T) {
	peer, ours := net.Pipe()
	defer peer.Close()
	defer ours.Close()

	tr := NewConn(ours)
	tr.SetWriteTimeout(100 * time.Millisecond)
	if err := within(t, ours, func() error { return tr.Send(make([]byte, 1<<16)) }); err == nil {
		t.Fatal("Send succeeded with a reader that never drains")
	}
}

// TestTimeoutDisabledAndRearmed: timeouts only apply while configured;
// clearing them restores blocking semantics for well-behaved frames.
func TestTimeoutDisabledAndRearmed(t *testing.T) {
	peer, ours := net.Pipe()
	defer peer.Close()
	defer ours.Close()

	go func() {
		ptr := NewConn(peer)
		time.Sleep(50 * time.Millisecond)
		ptr.Send([]byte("late but fine"))
	}()

	tr := NewConn(ours)
	tr.SetReadTimeout(300 * time.Millisecond)
	tr.SetReadTimeout(0) // disabled again; the late frame must land
	msg, err := tr.Recv()
	if err != nil {
		t.Fatalf("Recv with disabled timeout: %v", err)
	}
	if string(msg) != "late but fine" {
		t.Fatalf("payload %q", msg)
	}
}

// TestInterruptUnblocksRecv: Interrupt tears down a blocked Recv and
// poisons future calls.
func TestInterruptUnblocksRecv(t *testing.T) {
	peer, ours := net.Pipe()
	defer peer.Close()
	defer ours.Close()

	tr := NewConn(ours)
	errCh := make(chan error, 1)
	go func() {
		_, err := tr.Recv()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	tr.Interrupt()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Recv returned nil after Interrupt")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Interrupt did not unblock Recv")
	}
	if _, err := tr.Recv(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("post-interrupt Recv: %v, want ErrInterrupted", err)
	}
}

// armRaceConn runs Interrupt inside the first SetReadDeadline a Recv
// arms, and gives it up to 100 ms before applying the deadline: the
// interleaving in which an interrupt lands between a Recv's check of the
// flag and its deadline.
type armRaceConn struct {
	net.Conn
	tr          *Conn
	once        sync.Once
	interrupted chan struct{}
}

func (c *armRaceConn) SetReadDeadline(d time.Time) error {
	c.once.Do(func() {
		go func() {
			c.tr.Interrupt()
			close(c.interrupted)
		}()
		select {
		case <-c.interrupted:
		case <-time.After(100 * time.Millisecond): // Interrupt waits for the arming
		}
	})
	return c.Conn.SetReadDeadline(d)
}

// TestInterruptDuringArmUnblocksRecv: an Interrupt that lands while a
// Recv arms its read deadline must still unblock that Recv, not leave
// it parked for the whole read timeout.
func TestInterruptDuringArmUnblocksRecv(t *testing.T) {
	peer, ours := net.Pipe()
	defer peer.Close()
	rc := &armRaceConn{Conn: ours, interrupted: make(chan struct{})}
	tr := NewConn(rc)
	rc.tr = tr
	tr.SetReadTimeout(time.Minute)
	errCh := make(chan error, 1)
	go func() {
		_, err := tr.Recv()
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Recv returned nil after Interrupt")
		}
	case <-time.After(stallBound):
		t.Fatalf("Recv still blocked %v after an Interrupt that raced its arming", stallBound)
	}
	<-rc.interrupted
}

// TestInterruptUnblocksSend is the twin of TestInterruptUnblocksRecv: a
// Send parked on a peer that never reads its payload must return once
// Interrupt is called, and Interrupt itself must not wait behind it.
func TestInterruptUnblocksSend(t *testing.T) {
	peer, ours := net.Pipe()
	defer peer.Close()
	defer ours.Close()

	tr := NewConn(ours)
	errCh := make(chan error, 1)
	go func() { errCh <- tr.Send(make([]byte, 1<<10)) }()
	// net.Pipe writes block until read: taking the length prefix leaves
	// the Send parked in its payload write.
	var prefix [4]byte
	if _, err := io.ReadFull(peer, prefix[:]); err != nil {
		t.Fatal(err)
	}
	if !returnsWithin(tr.Interrupt) {
		t.Fatalf("Interrupt blocked past %v behind a parked Send", stallBound)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Send returned nil after Interrupt")
		}
	case <-time.After(stallBound):
		t.Fatal("Interrupt did not unblock Send")
	}
	if err := tr.Send([]byte("x")); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("post-interrupt Send: %v, want ErrInterrupted", err)
	}
}
