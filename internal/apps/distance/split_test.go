package distance

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"choco/internal/ckks"
	"choco/internal/protocol"
	"choco/internal/ring"
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
	sct, err := client.enc.EncryptFloatsSeeded(client.layout(DimensionMajor, 0, func(int) []float64 { return q }))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := server.ServeOne(serverEnd)
		done <- err
	}()
	clientEnd.Send(requestFrame(DimensionMajor))
	clientEnd.Send(protocol.MarshalSeededCKKS(sct))
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
// bytes the client accounts for them. Every upload is a seeded frame at
// the top level; every reply is a full frame at its variant's planned
// level, which FrameBytes prices, and the two client-optimal packings are
// pinned as literals besides. Each variant also stays within 0.05 of
// PlainDistances at that level.
func TestSplitWireGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates production-size CKKS keys")
	}
	params := PresetDistance()
	pts := synthPoints(64, 16, 57)
	server, err := NewServer(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	m, _, rawD := server.Geometry()
	client, err := NewClient(params, m, rawD, [32]byte{58})
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
	frame := func(level int, seeded bool) int64 {
		polys := 2
		if seeded {
			polys = 1
		}
		return int64(protocol.FrameBytes(ring.PackedBytes(params.N(), params.QBits[:level+1]...), polys, seeded))
	}
	pinned := map[Variant][2]int64{
		StackedDimMajor:     {133184, 184348}, // + 4 = 317 536 B on the wire
		CollapsedPointMajor: {133184, 102428},
	}
	q := pts[3]
	want := PlainDistances(pts, q)
	for _, v := range Variants() {
		cost, err := client.cost(v)
		if err != nil {
			t.Fatal(err)
		}
		sent, received := clientEnd.SentBytes(), clientEnd.ReceivedBytes()
		errCh := make(chan error, 1)
		go func() {
			_, err := server.ServeOne(serverEnd)
			errCh <- err
		}()
		got, stats, err := client.Query(q, v, clientEnd)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("%v server: %v", v, err)
		}
		if stats.UpCiphertexts != cost.UpCts || stats.DownCiphertexts != cost.DownCts {
			t.Errorf("%v: %d ciphertexts up, %d down, want %d and %d", v, stats.UpCiphertexts, stats.DownCiphertexts, cost.UpCts, cost.DownCts)
		}
		// The request frame's 4 B, then the uploads.
		upBytes := 4 + int64(cost.UpCts)*frame(params.MaxLevel(), true)
		downBytes := int64(cost.DownCts) * frame(v.replyLevel(params.MaxLevel()), false)
		if stats.UpBytes != upBytes || stats.DownBytes != downBytes {
			t.Errorf("%v: UpBytes %d DownBytes %d, want %d and %d", v, stats.UpBytes, stats.DownBytes, upBytes, downBytes)
		}
		if pin, ok := pinned[v]; ok && (pin[0] != upBytes || pin[1] != downBytes) {
			t.Errorf("%v: FrameBytes prices %d B up and %d B down, pinned %d and %d", v, upBytes, downBytes, pin[0], pin[1])
		}
		// Query leaves the request frame's own length prefix out of UpBytes.
		wire := clientEnd.SentBytes() - sent + clientEnd.ReceivedBytes() - received
		if wire != stats.TotalBytes()+4 {
			t.Errorf("%v: %d B crossed the pipe, the client accounts for %d", v, wire, stats.TotalBytes())
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.05 {
				t.Errorf("%v point %d: got %v want %v", v, i, got[i], want[i])
			}
		}
	}
}

// TestClientRefusesUnplannedReplyLevel: a reply at a level its variant
// does not leave the server at — here a fresh top-level ciphertext — is
// refused by name, whatever the variant.
func TestClientRefusesUnplannedReplyLevel(t *testing.T) {
	client, _, _ := testPair(t, 8, 4)
	q := []float64{0.5, -0.75, 1.25, 0}
	top := client.ctx.Params.MaxLevel()
	pkEnc := ckks.NewEncryptor(client.ctx, publicKey(t, client), [32]byte{59})
	ct, err := pkEnc.EncryptFloats(make([]float64, client.slots))
	if err != nil {
		t.Fatal(err)
	}
	reply := protocol.MarshalCKKS(ct)
	for _, v := range Variants() {
		cost, err := client.cost(v)
		if err != nil {
			t.Fatal(err)
		}
		clientEnd, serverEnd := protocol.NewPipe()
		done := make(chan error, 1)
		go func() { // reads the request and its uploads, answers every reply at the top level
			for range 1 + cost.UpCts {
				if _, err := serverEnd.Recv(); err != nil {
					done <- err
					return
				}
			}
			for range cost.DownCts {
				if err := serverEnd.Send(reply); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		_, _, err = client.Query(q, v, clientEnd)
		if serr := <-done; serr != nil {
			t.Fatalf("%v: hand-built server: %v", v, serr)
		}
		clientEnd.Close()
		msg := fmt.Sprintf("arrived at level %d, the variant's replies leave at level %d", top, v.replyLevel(top))
		if err == nil || !strings.Contains(err.Error(), v.String()) || !strings.Contains(err.Error(), msg) {
			t.Errorf("%v: a reply at level %d: error %v, want one naming the variant and %q", v, top, err, msg)
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
// both plaintexts of the pair, 2p and p² — and the second query reuses
// the first one's pair and answers with the bytes a server that has never
// seen a query sends. Point-major fills and reads its pairs from the
// worker pool, one group each. A query at any other scale, which the
// client is free to send, is answered and leaves nothing behind. The
// hand-built query's first upload is a full public-key frame, the rest
// seeded: the server reads either.
func TestServerKeepsPointPlaintexts(t *testing.T) {
	client, server, pts := testPair(t, 8, 4)
	q := []float64{0.5, -0.75, 1.25, 0}
	// Dimension-major keeps one pair per dimension, point-major one per point.
	keptRows := map[Variant]int{DimensionMajor: len(q), PointMajor: len(pts)}
	kept := map[Variant][]pointPair{}
	for v, n := range keptRows {
		got, _ := queryOnce(t, client, server, q, v)
		for i, want := range PlainDistances(pts, q) {
			if math.Abs(got[i]-want) > 0.05 {
				t.Errorf("%v point %d: got %v want %v", v, i, got[i], want)
			}
		}
		kept[v] = slices.Clone(server.pointPts[v][:n])
		for j, pp := range kept[v] {
			if pp.twoP == nil || pp.sq == nil {
				t.Fatalf("the first %v query left plaintext %d incomplete: %+v", v, j, pp)
			}
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
	pkEnc := ckks.NewEncryptor(client.ctx, publicKey(t, client), [32]byte{60})
	uploads := make([][]byte, len(q))
	for j := range uploads {
		values := client.layout(DimensionMajor, j, func(int) []float64 { return q })
		if j == 0 {
			ct, err := pkEnc.EncryptFloats(values)
			if err != nil {
				t.Fatal(err)
			}
			uploads[j] = protocol.MarshalCKKS(ct)
			continue
		}
		sct, err := client.enc.EncryptFloatsSeeded(values)
		if err != nil {
			t.Fatal(err)
		}
		uploads[j] = protocol.MarshalSeededCKKS(sct)
	}
	warmReply, coldReply := exchange(t, server, DimensionMajor, uploads, 1), exchange(t, cold, DimensionMajor, uploads, 1)
	if !bytes.Equal(warmReply[0], coldReply[0]) {
		t.Error("the reply over kept plaintexts differs from a cold server's")
	}
	queryOnce(t, client, server, q, PointMajor)
	for v, row := range kept {
		for j, pp := range server.pointPts[v][:len(row)] {
			if pp != row[j] {
				t.Errorf("the second %v query encoded plaintext %d again", v, j)
			}
		}
	}

	sct, err := client.enc.EncryptFloatsSeeded(client.layout(StackedPointMajor, 0, func(int) []float64 { return q }))
	if err != nil {
		t.Fatal(err)
	}
	sct.Scale *= 2
	exchange(t, server, StackedPointMajor, [][]byte{protocol.MarshalSeededCKKS(sct)}, 1)
	for v, row := range server.pointPts {
		for j, pp := range row {
			if want := j < keptRows[Variant(v)]; (pp != pointPair{}) != want {
				t.Errorf("after the off-scale query: %v plaintext %d kept = %v", Variant(v), j, pp != pointPair{})
			}
		}
	}
}

// publicKey decodes the public key the client's bundle carries; no
// client encrypts under it, so only tests that forge a server's frame
// need it.
func publicKey(t *testing.T, c *Client) *ckks.PublicKey {
	t.Helper()
	kb, err := protocol.UnmarshalCKKSKeyBundle(c.ctx, c.keyFrame)
	if err != nil {
		t.Fatal(err)
	}
	return kb.PK
}

// TestClientRefusesQueryPastHeadroom: a reply value is ‖q‖² − d², so a
// query whose ‖q‖² reaches its variant's headroom is refused by name
// before any frame leaves; at the collapsed bound, 2^19, one just under it
// (whose squared distances stay under it too) is answered right.
func TestClientRefusesQueryPastHeadroom(t *testing.T) {
	for v, want := range map[Variant]int{PointMajor: 49, StackedDimMajor: 49, CollapsedPointMajor: 19} {
		if got := v.headroomBits(PresetDistance()); got != want {
			t.Errorf("%v headroom at PresetDistance: 2^%d, want 2^%d", v, got, want)
		}
	}
	client, server, pts := testPair(t, 8, 4)
	clientEnd, _ := protocol.NewPipe()
	defer clientEnd.Close()
	_, _, err := client.Query([]float64{512, 512, 0, 0}, CollapsedPointMajor, clientEnd)
	if err == nil || !strings.Contains(err.Error(), "collapsed point-major reply headroom 2^19") {
		t.Errorf("a query with ‖q‖² = 2^19: error %v, want a refusal naming the headroom", err)
	}
	if n := clientEnd.SentBytes(); n != 0 {
		t.Errorf("the refused query sent %d B", n)
	}

	q := []float64{512, 496, 0, 0} // ‖q‖² = 2^19 − 16128; d² < 2^19 for points in [−2, 2)
	got, _ := queryOnce(t, client, server, q, CollapsedPointMajor)
	for i, p := range pts {
		var want float64
		for k := range p {
			want += (q[k] - p[k]) * (q[k] - p[k])
		}
		if math.Abs(got[i]-want) > 1e-2 {
			t.Errorf("point %d: got %v, want %v", i, got[i], want)
		}
	}
}
