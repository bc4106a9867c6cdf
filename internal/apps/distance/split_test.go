package distance

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"choco/internal/ckks"
	"choco/internal/protocol"
)

// TestSplitServerRejectsMalformedRequests: a variant number past the
// five and a request frame that is not four bytes both fail the request,
// and a session run by Serve tells the client why.
func TestSplitServerRejectsMalformedRequests(t *testing.T) {
	client, server, _ := testPair(t, 4, 2)
	for _, req := range [][]byte{requestFrame(Variant(5)), {0, 0, 0}, {0, 0, 0, 0, 0}} {
		clientEnd, serverEnd := protocol.NewPipe()
		done := make(chan error, 1)
		go func() { done <- server.Serve(serverEnd) }()
		if err := client.Setup(clientEnd); err != nil {
			t.Fatal(err)
		}
		if err := clientEnd.Send(req); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err == nil {
			t.Errorf("request frame %v: served", req)
		}
		raw, err := clientEnd.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg, ok := protocol.ParseSessionError(raw); !ok || msg == "" {
			t.Errorf("request frame %v: the client read %d B, not a session error", req, len(raw))
		}
		clientEnd.Close()
	}
	a, _ := protocol.NewPipe()
	defer a.Close()
	if _, _, err := client.Query([]float64{1, 2}, Variant(5), a); err == nil || a.SentBytes() != 0 {
		t.Errorf("the client sent %d B of a variant-5 query (err %v)", a.SentBytes(), err)
	}
}

// TestSplitClientHangsUpMidUpload: a dimension-major query is D uploads;
// a client that closes after the first fails that ServeOne — it neither
// hangs nor reads as a clean end of session — and the server's next
// session works.
func TestSplitClientHangsUpMidUpload(t *testing.T) {
	client, server, pts := testPair(t, 8, 4)
	q := []float64{0.5, -0.75, 1.25, 0}

	clientEnd, serverEnd := protocol.NewPipe()
	ct, err := client.enc.EncryptFloats(client.layout(DimensionMajor, 0, func(int) []float64 { return q }))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := server.ServeOne(serverEnd)
		done <- err
	}()
	clientEnd.Send(requestFrame(DimensionMajor))
	clientEnd.Send(protocol.MarshalCKKS(ct))
	for serverEnd.ReceivedBytes() < clientEnd.SentBytes() {
		time.Sleep(time.Millisecond) // a closed pipe may drop what it still holds
	}
	clientEnd.Close()
	if err := <-done; err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("ServeOne after one of four uploads: %v, want an error that is not a clean end of session", err)
	}

	got, stats := queryOnce(t, client, server, q, DimensionMajor)
	for i, want := range PlainDistances(pts, q) {
		if math.Abs(got[i]-want) > 0.05 {
			t.Errorf("point %d after the aborted session: got %v want %v", i, got[i], want)
		}
	}
	if stats.UpCiphertexts != 4 || stats.DownCiphertexts != 1 {
		t.Errorf("dimension-major traffic %+v, want 4 up and 1 down", stats)
	}
}

func TestSplitServerRequiresSetup(t *testing.T) {
	server, err := NewServer(PresetDistanceTest(), synthPoints(4, 2, 55))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := protocol.NewPipe()
	defer a.Close()
	if _, err := server.ServeOne(a); err == nil {
		t.Error("expected error before AcceptSetup")
	}
}

func TestSplitClientGeometryValidation(t *testing.T) {
	if _, err := NewClient(PresetDistanceTest(), 4096, 64, [32]byte{56}); err == nil {
		t.Error("expected slot-capacity error")
	}
}

// TestSplitWireGolden pins what one query costs the wire at the benchmark's
// shape (PresetDistance, 64 points × 16 dims): the frames each way and the
// bytes the client accounts for them, for the two client-optimal packings.
func TestSplitWireGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates production-size CKKS keys")
	}
	pts := synthPoints(64, 16, 57)
	server, err := NewServer(PresetDistance(), pts)
	if err != nil {
		t.Fatal(err)
	}
	m, _, rawD := server.Geometry()
	client, err := NewClient(PresetDistance(), m, rawD, [32]byte{58})
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	if err := client.Setup(clientEnd); err != nil {
		t.Fatal(err)
	}
	if err := server.AcceptSetup(serverEnd); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		v                  Variant
		upBytes, downBytes int64
	}{
		{StackedDimMajor, 266272, 266268}, // + 4 = 532 544 B on the wire
		{CollapsedPointMajor, 266272, 184348},
	} {
		sent, received := clientEnd.SentBytes(), clientEnd.ReceivedBytes()
		errCh := make(chan error, 1)
		go func() {
			_, err := server.ServeOne(serverEnd)
			errCh <- err
		}()
		_, stats, err := client.Query(pts[3], want.v, clientEnd)
		if err != nil {
			t.Fatalf("%v: %v", want.v, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("%v server: %v", want.v, err)
		}
		if stats.UpCiphertexts != 1 || stats.DownCiphertexts != 1 {
			t.Errorf("%v: %d ciphertexts up, %d down, want 1 and 1", want.v, stats.UpCiphertexts, stats.DownCiphertexts)
		}
		if stats.UpBytes != want.upBytes || stats.DownBytes != want.downBytes {
			t.Errorf("%v: UpBytes %d DownBytes %d, want %d and %d", want.v, stats.UpBytes, stats.DownBytes, want.upBytes, want.downBytes)
		}
		// Query leaves the request frame's own length prefix out of UpBytes.
		wire := clientEnd.SentBytes() - sent + clientEnd.ReceivedBytes() - received
		if wire != stats.TotalBytes()+4 {
			t.Errorf("%v: %d B crossed the pipe, the client accounts for %d", want.v, wire, stats.TotalBytes())
		}
	}
}

// exchange sends one hand-built query — the request frame and its upload
// frames — and returns the reply frames.
func exchange(t *testing.T, server *Server, v Variant, uploads [][]byte, downs int) [][]byte {
	t.Helper()
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	done := make(chan error, 1)
	go func() {
		_, err := server.ServeOne(serverEnd)
		done <- err
	}()
	for _, frame := range append([][]byte{requestFrame(v)}, uploads...) {
		if err := clientEnd.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	replies := make([][]byte, downs)
	for i := range replies {
		var err error
		if replies[i], err = clientEnd.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("%v server: %v", v, err)
	}
	return replies
}

// TestServerKeepsPointPlaintexts: the server encodes its points once per
// (variant, ciphertext index) for the level and scale of a fresh upload —
// the second query reuses the first one's plaintexts and answers with the
// bytes a server that has never seen a query sends — and a query at any
// other scale, which the client is free to send, is answered and leaves
// nothing behind.
func TestServerKeepsPointPlaintexts(t *testing.T) {
	client, server, pts := testPair(t, 8, 4)
	q := []float64{0.5, -0.75, 1.25, 0}
	got, _ := queryOnce(t, client, server, q, DimensionMajor)
	for i, want := range PlainDistances(pts, q) {
		if math.Abs(got[i]-want) > 0.05 {
			t.Errorf("point %d: got %v want %v", i, got[i], want)
		}
	}
	kept := append([]*ckks.Plaintext(nil), server.pointPts[DimensionMajor][:len(q)]...) // one per dimension
	for j, pt := range kept {
		if pt == nil {
			t.Fatalf("the first query left no plaintext for dimension %d", j)
		}
	}

	cold, err := NewServer(PresetDistanceTest(), pts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := protocol.NewPipe()
	defer a.Close()
	if err := client.Setup(a); err != nil {
		t.Fatal(err)
	}
	if err := cold.AcceptSetup(b); err != nil {
		t.Fatal(err)
	}
	uploads := make([][]byte, len(kept))
	for j := range uploads {
		ct, err := client.enc.EncryptFloats(client.layout(DimensionMajor, j, func(int) []float64 { return q }))
		if err != nil {
			t.Fatal(err)
		}
		uploads[j] = protocol.MarshalCKKS(ct)
	}
	warmReply, coldReply := exchange(t, server, DimensionMajor, uploads, 1), exchange(t, cold, DimensionMajor, uploads, 1)
	if !bytes.Equal(warmReply[0], coldReply[0]) {
		t.Error("the reply over kept plaintexts differs from a cold server's")
	}
	for j, pt := range server.pointPts[DimensionMajor][:len(q)] {
		if pt != kept[j] {
			t.Errorf("the second query encoded dimension %d again", j)
		}
	}

	ct, err := client.enc.EncryptFloats(client.layout(PointMajor, 0, func(int) []float64 { return q }))
	if err != nil {
		t.Fatal(err)
	}
	ct.Scale *= 2
	exchange(t, server, PointMajor, [][]byte{protocol.MarshalCKKS(ct)}, len(pts))
	for v, row := range server.pointPts {
		for j, pt := range row {
			if want := Variant(v) == DimensionMajor && j < len(q); (pt != nil) != want {
				t.Errorf("after the off-scale query: %v plaintext %d kept = %v", Variant(v), j, pt != nil)
			}
		}
	}
}
