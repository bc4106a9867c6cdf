package testkit

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
)

// ErrWriteFailed is what a FailingConn's writes return once they fail.
var ErrWriteFailed = errors.New("testkit: write failed")

// FailingConn is a connection whose reads pass through and whose writes
// fail once a set number of whole frames (protocol's 4-byte little-endian
// length, then the body) has gone out: a peer that still delivers frames
// after a write to it has failed on its deadline. It counts the reads
// made after the first failed write.
type FailingConn struct {
	net.Conn

	mu        sync.Mutex
	frames    int    // whole frames still allowed out
	header    []byte // the current frame's length bytes seen so far
	body      int    // body bytes of the current frame still to go
	failed    bool
	lateReads int
}

// FailWrites wraps conn so that its first k frames go out and every write
// after them fails with ErrWriteFailed.
func FailWrites(conn net.Conn, k int) *FailingConn {
	return &FailingConn{Conn: conn, frames: k}
}

func (c *FailingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if !c.failed && c.frames == 0 && len(c.header) == 0 && c.body == 0 {
		c.failed = true
	}
	if c.failed {
		c.mu.Unlock()
		return 0, ErrWriteFailed
	}
	for rest := p; len(rest) > 0; {
		if c.body == 0 {
			n := min(4-len(c.header), len(rest))
			c.header, rest = append(c.header, rest[:n]...), rest[n:]
			if len(c.header) < 4 {
				continue
			}
			c.body = int(binary.LittleEndian.Uint32(c.header))
			c.header = c.header[:0]
		} else {
			n := min(c.body, len(rest))
			c.body, rest = c.body-n, rest[n:]
		}
		if c.body == 0 {
			c.frames--
		}
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *FailingConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.failed {
		c.lateReads++
	}
	c.mu.Unlock()
	return c.Conn.Read(p)
}

// Failed reports whether a write has failed.
func (c *FailingConn) Failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// LateReads returns how many reads were made after the first failed
// write.
func (c *FailingConn) LateReads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lateReads
}
