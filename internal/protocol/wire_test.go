package protocol

import (
	"io"
	"net"
	"testing"
	"time"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/ring"
)

func TestBFVMarshalRoundTrip(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{1})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(ctx, pk, [32]byte{2})
	dec := bfv.NewDecryptor(ctx, sk)

	ct, _ := enc.EncryptUints([]uint64{1, 2, 3, 4, 5})
	data := MarshalBFV(ct)
	wantPayload := 2 * ctx.RingQ.PackedBytes()
	if len(data) != wantPayload+headerBytes {
		t.Errorf("serialized %d bytes, want %d payload + %d header", len(data), wantPayload, headerBytes)
	}
	back, err := UnmarshalBFV(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	got := dec.DecryptUints(back)
	for i, w := range []uint64{1, 2, 3, 4, 5} {
		if got[i] != w {
			t.Fatalf("slot %d: got %d want %d", i, got[i], w)
		}
	}
}

func TestBFVUnmarshalErrors(t *testing.T) {
	ctx, _ := bfv.NewContext(bfv.PresetTest())
	if _, err := UnmarshalBFV(ctx, []byte{1, 2}); err == nil {
		t.Error("expected truncation error")
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{1})
	sk := kg.GenSecretKey()
	enc := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{2})
	data := MarshalBFV(enc.EncryptZero())
	if _, err := UnmarshalBFV(ctx, data[:len(data)-8]); err == nil {
		t.Error("expected length error")
	}
	data[0] = 99
	if _, err := UnmarshalBFV(ctx, data); err == nil {
		t.Error("expected scheme tag error")
	}
}

func TestTable3SerializedSizes(t *testing.T) {
	// Table 3 of the paper counts a ciphertext in 8-byte words; beside it,
	// what the same ciphertext and its seeded form weigh in a frame here,
	// length prefix included: rows of 58, 36 and 60 bits.
	a, b, c := bfv.PresetA(), bfv.PresetB(), ckks.PresetC()
	for _, tc := range []struct {
		name               string
		paper, wantPaper   int
		n                  int
		qBits              []int
		wantFull, wantSeed int
	}{
		{"A", a.CiphertextBytes(), 262144, a.N(), a.QBits, 2*118784 + 28, 118784 + 32 + 28},
		{"B", b.CiphertextBytes(), 131072, b.N(), b.QBits, 2*36864 + 28, 36864 + 32 + 28},
		{"C", c.CiphertextBytes(), 262144, c.N(), c.QBits, 2*122880 + 28, 122880 + 32 + 28},
	} {
		if tc.paper != tc.wantPaper {
			t.Errorf("preset %s: %d bytes in the paper's words, want %d", tc.name, tc.paper, tc.wantPaper)
		}
		poly := ring.PackedBytes(tc.n, tc.qBits...)
		if full, seeded := FrameBytes(poly, 2, false), FrameBytes(poly, 1, true); full != tc.wantFull || seeded != tc.wantSeed {
			t.Errorf("preset %s: frames of %d and %d B (seeded), want %d and %d", tc.name, full, seeded, tc.wantFull, tc.wantSeed)
		}
	}
}

func TestCKKSMarshalRoundTrip(t *testing.T) {
	ctx, err := ckks.NewContext(ckks.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, [32]byte{3})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncryptor(ctx, pk, [32]byte{4})
	dec := ckks.NewDecryptor(ctx, sk)

	ct, _ := enc.EncryptFloats([]float64{1.5, -2.25, 3})
	data := MarshalCKKS(ct)
	if len(data)+lengthPrefixBytes != FrameBytes(ctx.RingQ.PackedBytes(), 2, false) {
		t.Errorf("serialized %d bytes", len(data))
	}
	back, err := UnmarshalCKKS(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scale != ct.Scale || back.Level != ct.Level {
		t.Errorf("scale/level mismatch: %v/%d vs %v/%d", back.Scale, back.Level, ct.Scale, ct.Level)
	}
	got := dec.DecryptFloats(back)
	for i, w := range []float64{1.5, -2.25, 3} {
		if diff := got[i] - w; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], w)
		}
	}
}

func TestPipeTransport(t *testing.T) {
	a, b := NewPipe()
	defer a.Close()
	msg := []byte("hello choco")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("got %q", got)
	}
	if a.SentBytes() != int64(len(msg)+4) || b.ReceivedBytes() != int64(len(msg)+4) {
		t.Errorf("byte accounting: sent %d recv %d", a.SentBytes(), b.ReceivedBytes())
	}
	// Mutating the original buffer must not corrupt the transported
	// message (copy semantics).
	a.Send(msg)
	msg[0] = 'X'
	got, _ = b.Recv()
	if got[0] != 'h' {
		t.Error("pipe aliases sender buffer")
	}
}

func TestPipeClose(t *testing.T) {
	a, b := NewPipe()
	a.Close()
	if _, err := b.Recv(); err == nil {
		t.Error("expected EOF after close")
	}
	if err := a.Send([]byte("x")); err == nil {
		// A buffered send may still succeed; force the channel full to
		// observe closure instead. Acceptable either way — just ensure
		// no panic.
		t.Log("send after close accepted into buffer")
	}
	// Both ends may close: a session's client and server each hang up.
	b.Close()
	a.Close()
}

// TestPipeDeliversBeforeEOF: frames sent before a Close still arrive, in
// order, and only then does Recv report EOF, as on a socket.
func TestPipeDeliversBeforeEOF(t *testing.T) {
	a, b := NewPipe()
	for _, m := range []string{"one", "two"} {
		if err := a.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	for _, want := range []string{"one", "two"} {
		if got, err := b.Recv(); err != nil || string(got) != want {
			t.Fatalf("Recv after close: %q, %v; want %q", got, err, want)
		}
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Fatalf("Recv once drained: %v, want EOF", err)
	}
}

func TestConnTransport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		tr := NewConn(c)
		msg, err := tr.Recv()
		if err != nil {
			done <- nil
			return
		}
		tr.Send(append([]byte("ack:"), msg...))
		done <- msg
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewConn(c)
	if err := tr.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	reply, err := tr.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "ack:ping" {
		t.Fatalf("reply %q", reply)
	}
	if got := <-done; string(got) != "ping" {
		t.Fatalf("server saw %q", got)
	}
	if tr.SentBytes() != 8 || tr.ReceivedBytes() != int64(len(reply)+4) {
		t.Errorf("accounting: sent %d recv %d", tr.SentBytes(), tr.ReceivedBytes())
	}
}

func TestSeededBFVWireRoundTrip(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{81})
	sk := kg.GenSecretKey()
	symEnc := bfv.NewSymmetricEncryptor(ctx, sk, [32]byte{82})
	dec := bfv.NewDecryptor(ctx, sk)

	vals := []uint64{4, 8, 15, 16, 23, 42}
	sct, err := symEnc.EncryptUintsSeeded(vals)
	if err != nil {
		t.Fatal(err)
	}
	data := MarshalSeededBFV(sct)
	// One polynomial and a seed where a full ciphertext has two.
	if full := FrameBytes(ctx.RingQ.PackedBytes(), 2, false); FrameBytes(sct.C0.PackedBytes(), 1, true) != len(data)+lengthPrefixBytes || len(data) > full/2+64 {
		t.Errorf("seeded wire %d bytes vs full %d", len(data), full)
	}
	ct, err := UnmarshalSeededBFV(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	got := dec.DecryptUints(ct)
	for i, w := range vals {
		if got[i] != w {
			t.Fatalf("slot %d: got %d want %d", i, got[i], w)
		}
	}
	// Corruption and cross-format confusion are rejected.
	if _, err := UnmarshalSeededBFV(ctx, data[:50]); err == nil {
		t.Error("expected truncation error")
	}
	if _, err := UnmarshalBFV(ctx, data); err == nil {
		t.Error("seeded frame accepted as regular ciphertext")
	}
}

func TestSeededCKKSWireRoundTrip(t *testing.T) {
	ctx, err := ckks.NewContext(ckks.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, [32]byte{83})
	sk := kg.GenSecretKey()
	symEnc := ckks.NewSymmetricEncryptor(ctx, sk, [32]byte{84})
	dec := ckks.NewDecryptor(ctx, sk)

	vals := []float64{1.25, -2.5, 3.75, 0.125}
	sct, err := symEnc.EncryptFloatsSeeded(vals)
	if err != nil {
		t.Fatal(err)
	}
	data := MarshalSeededCKKS(sct)
	// One polynomial and a seed where a full ciphertext has two.
	if full := FrameBytes(ctx.RingQ.PackedBytes(), 2, false); FrameBytes(sct.C0.PackedBytes(), 1, true) != len(data)+lengthPrefixBytes || len(data) > full/2+64 {
		t.Errorf("seeded wire %d bytes vs full %d", len(data), full)
	}
	ct, err := UnmarshalSeededCKKS(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Level != sct.Level || ct.Scale != sct.Scale {
		t.Fatalf("metadata lost: level %d scale %g", ct.Level, ct.Scale)
	}
	got := dec.DecryptFloats(ct)
	for i, w := range vals {
		if diff := got[i] - w; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], w)
		}
	}
	// Dispatch, corruption, and cross-format confusion.
	if _, err := UnmarshalAnyCKKS(ctx, data); err != nil {
		t.Errorf("UnmarshalAnyCKKS rejected seeded frame: %v", err)
	}
	if _, err := UnmarshalSeededCKKS(ctx, data[:50]); err == nil {
		t.Error("expected truncation error")
	}
	if _, err := UnmarshalCKKS(ctx, data); err == nil {
		t.Error("seeded frame accepted as regular ciphertext")
	}
}

// stallBound is how long a call on one end of a transport may take while
// another call on that end is parked on a peer that does not answer.
const stallBound = 2 * time.Second

// returnsWithin runs f on its own goroutine and reports whether it
// returned within stallBound. A call that does not is left parked; the
// caller's cleanup must release it.
func returnsWithin(f func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
		return true
	case <-time.After(stallBound):
		return false
	}
}

// TestPipeStalledSendHoldsNoLock: with nobody reading, the 1 025th Send
// parks on the full buffer. SentBytes and Close on the same end must
// still return, and Close releases the parked Send with an error.
func TestPipeStalledSendHoldsNoLock(t *testing.T) {
	a, _ := NewPipe()
	defer a.Close()
	for i := 0; i < cap(a.out); i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	parked := make(chan error, 1)
	go func() { parked <- a.Send([]byte("one too many")) }()

	// Ask for a while, so the asking overlaps the parked Send.
	want := int64(cap(a.out)) * 5
	for until := time.Now().Add(50 * time.Millisecond); time.Now().Before(until); {
		var got int64
		if !returnsWithin(func() { got = a.SentBytes() }) {
			t.Fatalf("SentBytes blocked past %v behind a Send parked on a full pipe", stallBound)
		}
		if got != want {
			t.Fatalf("SentBytes = %d with a Send parked, want the %d B already queued", got, want)
		}
	}
	select {
	case err := <-parked:
		t.Fatalf("Send on a full pipe with no reader returned %v", err)
	default:
	}
	if !returnsWithin(a.Close) {
		t.Fatalf("Close blocked past %v behind a parked Send", stallBound)
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Error("the parked Send reported success after Close")
		}
	case <-time.After(stallBound):
		t.Fatalf("Close did not release the parked Send within %v", stallBound)
	}
}

// TestPipeParkedRecvHoldsNoLock: a Recv parked on an empty pipe must not
// stop Send or SentBytes on the same end.
func TestPipeParkedRecvHoldsNoLock(t *testing.T) {
	a, b := NewPipe()
	defer a.Close()
	got := make(chan []byte, 1)
	go func() {
		msg, _ := a.Recv()
		got <- msg
	}()

	// Send for a while, so the sending overlaps the parked Recv.
	const sent = 32
	for i := int64(0); i < sent; i++ {
		time.Sleep(time.Millisecond)
		var err error
		if !returnsWithin(func() { err = a.Send([]byte{byte(i)}) }) {
			t.Fatalf("Send blocked past %v behind a Recv parked on the same end", stallBound)
		}
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		if !returnsWithin(func() { n = a.SentBytes() }) {
			t.Fatalf("SentBytes blocked past %v behind a Recv parked on the same end", stallBound)
		}
		if n != 5*(i+1) {
			t.Fatalf("SentBytes = %d after %d one-byte frames, want %d", n, i+1, 5*(i+1))
		}
	}
	for i := int64(0); i < sent; i++ {
		if msg, err := b.Recv(); err != nil || len(msg) != 1 || msg[0] != byte(i) {
			t.Fatalf("frame %d arrived as %v, %v", i, msg, err)
		}
	}
	if err := b.Send([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg) != "wake" {
			t.Errorf("the parked Recv returned %q, want \"wake\"", msg)
		}
	case <-time.After(stallBound):
		t.Fatal("the parked Recv missed the frame sent to it")
	}
}
