// Package testkit holds the run-time checks that the serving-tier and
// client tests share:
//
//   - a transcript: Recorder keeps every frame a wrapped transport moves
//     and every line of text a run printed, and Check fails a test when
//     any of it holds a client's secret (Secret: its seed, its key, the
//     public key's error or an encryption's draws, in the forms an encoder
//     could write them) or when a client-to-server frame does not pass its
//     strict decoder;
//   - a goroutine-leak check: CheckGoroutines fails a test when a
//     goroutine it started outlives the test by more than 2 s;
//   - a failing peer: FailWrites wraps a connection so that its writes
//     fail after k frames while its reads go on, and counts the reads
//     made after the failure.
//
// Only tests import it.
package testkit

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"choco/internal/bfv"
	"choco/internal/protocol"
)

// Recorder is a session transcript: the frames that crossed a wrapped
// transport, by direction, and the text a run printed. It is safe for
// concurrent use.
type Recorder struct {
	mu       sync.Mutex
	up, down [][]byte
	text     [][]byte
}

// Client wraps the client end of a session: what it sends goes up.
func (r *Recorder) Client(t protocol.Transport) protocol.Transport {
	return &tap{Transport: t, r: r}
}

// Server wraps the server end of a session: what it receives came up.
func (r *Recorder) Server(t protocol.Transport) protocol.Transport {
	return &tap{Transport: t, r: r, server: true}
}

type tap struct {
	protocol.Transport
	r      *Recorder
	server bool
}

func (tp *tap) Send(msg []byte) error {
	tp.r.frame(!tp.server, msg)
	return tp.Transport.Send(msg)
}

func (tp *tap) Recv() ([]byte, error) {
	msg, err := tp.Transport.Recv()
	if err == nil {
		tp.r.frame(tp.server, msg)
	}
	return msg, err
}

func (r *Recorder) frame(up bool, msg []byte) {
	msg = append([]byte(nil), msg...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if up {
		r.up = append(r.up, msg)
	} else {
		r.down = append(r.down, msg)
	}
}

// Logf records one line of text; it has the shape of serve.Config.Logf.
func (r *Recorder) Logf(format string, args ...any) {
	_, _ = r.Write([]byte(fmt.Sprintf(format, args...)))
}

// Write records text, so a Recorder can stand in for stdout or a
// log.Logger's output.
func (r *Recorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.text = append(r.text, append([]byte(nil), p...))
	return len(p), nil
}

// Up returns the client-to-server frames in the order they were sent.
func (r *Recorder) Up() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.up...)
}

// Down returns the server-to-client frames in the order they arrived.
func (r *Recorder) Down() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.down...)
}

// Seed returns a high-entropy client seed named by label. A test that
// searches a transcript for its client's seed needs one: a seed of mostly
// zero bytes would match zero runs in frames.
func Seed(label string) [32]byte { return sha256.Sum256([]byte(label)) }

// NNFrames is the strict decoder of every frame an nn.InferenceClient
// sends: its hello, its key bundle, its model request, or a seeded
// upload.
func NNFrames(ctx *bfv.Context) func([]byte) error {
	return func(f []byte) error {
		if protocol.IsHello(f) {
			_, err := protocol.ParseHello(f)
			return err
		}
		if protocol.IsModelRequest(f) {
			return nil
		}
		if _, err := protocol.UnmarshalSeededBFV(ctx, f); err == nil {
			return nil
		}
		if _, err := protocol.UnmarshalKeyBundle(ctx, f); err != nil {
			return fmt.Errorf("neither a hello, a model request, a seeded upload nor a key bundle: %w", err)
		}
		return nil
	}
}
