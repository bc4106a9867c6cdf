package distance

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"choco/internal/core"
	"choco/internal/protocol"
	"choco/internal/sampling"
)

func synthPoints(m, d int, seed byte) [][]float64 {
	src := sampling.NewSource([32]byte{seed}, "distance-points")
	pts := make([][]float64, m)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = src.Float64()*4 - 2
		}
	}
	return pts
}

// testPair builds both halves over synthPoints(m, d, 1) and carries the
// client's keys across a pipe.
func testPair(t testing.TB, m, d int) (*Client, *Server, [][]float64) {
	t.Helper()
	return pairOver(t, synthPoints(m, d, 1), [32]byte{2})
}

func pairOver(t testing.TB, pts [][]float64, seed [32]byte) (*Client, *Server, [][]float64) {
	t.Helper()
	server, err := NewServer(PresetDistanceTest(), pts)
	if err != nil {
		t.Fatal(err)
	}
	m, _, rawD := server.Geometry()
	client, err := NewClient(PresetDistanceTest(), m, rawD, seed)
	if err != nil {
		t.Fatal(err)
	}
	a, b := protocol.NewPipe()
	defer a.Close()
	if err := client.Setup(a); err != nil {
		t.Fatal(err)
	}
	if err := server.AcceptSetup(b); err != nil {
		t.Fatal(err)
	}
	return client, server, pts
}

// queryOnce runs one query over a fresh pipe, the server half in a
// goroutine, and returns the client's statistics with the server's
// operation counts filled in.
func queryOnce(t testing.TB, client *Client, server *Server, q []float64, v Variant) ([]float64, core.Stats) {
	t.Helper()
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	type served struct {
		ops core.OpCounts
		err error
	}
	done := make(chan served, 1)
	go func() {
		ops, err := server.ServeOne(serverEnd)
		done <- served{ops, err}
	}()
	got, stats, err := client.Query(q, v, clientEnd)
	if err != nil {
		t.Fatalf("%v: %v", v, err)
	}
	s := <-done
	if s.err != nil {
		t.Fatalf("%v server: %v", v, s.err)
	}
	stats.Server = s.ops
	return got, stats
}

// serving connects a client to a goroutine running server.Serve and
// returns the client's end; the server's verdict is checked at cleanup.
func serving(t testing.TB, client *Client, server *Server) protocol.Transport {
	t.Helper()
	clientEnd, serverEnd := protocol.NewPipe()
	done := make(chan error, 1)
	go func() { done <- server.Serve(serverEnd) }()
	if err := client.Setup(clientEnd); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		clientEnd.Close()
		if err := <-done; err != nil {
			t.Errorf("server: %v", err)
		}
	})
	return clientEnd
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(PresetDistanceTest(), nil); err == nil {
		t.Error("expected error for empty point set")
	}
	if _, err := NewServer(PresetDistanceTest(), synthPoints(2048, 4, 1)); err == nil {
		t.Error("expected error for slot overflow")
	}
	ragged := [][]float64{{1, 2}, {1}}
	if _, err := NewServer(PresetDistanceTest(), ragged); err == nil {
		t.Error("expected error for ragged points")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pts := synthPoints(4, 3, 1)
		pts[2][1] = x
		if _, err := NewServer(PresetDistanceTest(), pts); err == nil || !strings.Contains(err.Error(), "point 2 coordinate 1") {
			t.Errorf("point coordinate %v: error %v, want one naming point 2 coordinate 1", x, err)
		}
	}
}

func TestAllVariantsMatchPlainDistances(t *testing.T) {
	// The second geometry pads both ways: 5 points in blocks of 8, 3
	// dimensions in blocks of 4.
	for _, geom := range []struct{ m, d int }{{8, 4}, {5, 3}} {
		client, server, pts := testPair(t, geom.m, geom.d)
		q := []float64{0.5, -1.25, 1.0, 0.25}[:geom.d]
		want := PlainDistances(pts, q)

		for _, v := range Variants() {
			got, stats := queryOnce(t, client, server, q, v)
			if len(got) != geom.m {
				t.Fatalf("%v: %d results", v, len(got))
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 0.05 {
					t.Errorf("%v point %d: got %v want %v", v, i, got[i], want[i])
				}
			}
			if stats.UpCiphertexts == 0 || stats.DownCiphertexts == 0 {
				t.Errorf("%v: no traffic recorded: %+v", v, stats)
			}
			t.Logf("%d×%d %v: up=%d down=%d upB=%d downB=%d server=%+v", geom.m, geom.d,
				v, stats.UpCiphertexts, stats.DownCiphertexts, stats.UpBytes, stats.DownBytes, stats.Server)
		}
	}
}

func TestVariantTrafficShape(t *testing.T) {
	// Fig 9/§5.4 structure: point-major downloads one ciphertext per
	// point; collapsed downloads exactly one; dimension-major uploads
	// one per dimension.
	m, d := 8, 4
	client, server, _ := testPair(t, m, d)
	q := []float64{0, 0, 0, 0}

	traffic := map[Variant][2]int{}
	for _, v := range Variants() {
		_, stats := queryOnce(t, client, server, q, v)
		traffic[v] = [2]int{stats.UpCiphertexts, stats.DownCiphertexts}
	}
	if traffic[PointMajor][1] != m {
		t.Errorf("point-major downloads %d, want %d", traffic[PointMajor][1], m)
	}
	if traffic[CollapsedPointMajor][1] != 1 {
		t.Errorf("collapsed downloads %d, want 1", traffic[CollapsedPointMajor][1])
	}
	if traffic[DimensionMajor][0] != d {
		t.Errorf("dimension-major uploads %d, want %d", traffic[DimensionMajor][0], d)
	}
	if traffic[StackedDimMajor][0] != 1 || traffic[StackedDimMajor][1] != 1 {
		t.Errorf("stacked dim-major traffic %v, want {1,1}", traffic[StackedDimMajor])
	}
	// The client-optimized finding: collapsed point-major moves the
	// fewest ciphertexts.
	for _, v := range Variants() {
		tot := traffic[v][0] + traffic[v][1]
		cTot := traffic[CollapsedPointMajor][0] + traffic[CollapsedPointMajor][1]
		if cTot > tot {
			t.Errorf("collapsed (%d cts) worse than %v (%d cts)", cTot, v, tot)
		}
	}
}

func TestAnalyzeCostAgainstMeasured(t *testing.T) {
	// The analytic model must reproduce the measured ciphertext counts
	// and multiplication counts on the live split form.
	m, d := 8, 4
	client, server, _ := testPair(t, m, d)
	q := []float64{0.1, 0.2, 0.3, 0.4}
	for _, v := range Variants() {
		_, stats := queryOnce(t, client, server, q, v)
		c := AnalyzeCost(v, m, d, client.slots)
		if c.UpCts != stats.UpCiphertexts || c.DownCts != stats.DownCiphertexts {
			t.Errorf("%v: model (%d,%d) vs measured (%d,%d)",
				v, c.UpCts, c.DownCts, stats.UpCiphertexts, stats.DownCiphertexts)
		}
		if c.Server.CtMults != stats.Server.CtMults {
			t.Errorf("%v: model ctmults %d vs measured %d", v, c.Server.CtMults, stats.Server.CtMults)
		}
		if c.Server.PlainMults != stats.Server.PlainMults {
			t.Errorf("%v: model plainmults %d vs measured %d", v, c.Server.PlainMults, stats.Server.PlainMults)
		}
	}
}

func TestKNNMatchesPlain(t *testing.T) {
	m, d := 8, 4
	client, server, pts := testPair(t, m, d)
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	knn, err := NewKNN(client, labels)
	if err != nil {
		t.Fatal(err)
	}
	conn := serving(t, client, server)
	for _, q := range [][]float64{
		{0.5, -1.25, 1.0, 0.25},
		{-1, -1, -1, -1},
		{1.5, 0, 0.5, -0.5},
	} {
		want := PlainKNN(pts, labels, q, 3)
		got, stats, err := knn.Classify(q, 3, CollapsedPointMajor, conn)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("query %v: got label %d, want %d", q, got, want)
		}
		// A single interaction (§5.1: "classifying a new point requires
		// just a single interaction").
		if stats.UpCiphertexts != 1 || stats.DownCiphertexts != 1 {
			t.Errorf("KNN traffic %+v, want single round trip", stats)
		}
	}
	if _, err := NewKNN(client, []int{1}); err == nil {
		t.Error("expected label-count error")
	}
}

func TestKMeansConvergesLikePlain(t *testing.T) {
	// Two well-separated blobs.
	pts := [][]float64{
		{2, 2}, {2.2, 1.9}, {1.8, 2.1}, {2.1, 2.2},
		{-2, -2}, {-2.1, -1.8}, {-1.9, -2.2}, {-2.2, -2},
	}
	client, server, _ := pairOver(t, pts, [32]byte{5})
	init := [][]float64{{1, 1}, {-1, -1}}
	wantCentroids, wantAssign := PlainKMeans(pts, init, 10)

	km := NewKMeans(client)
	got, stats, err := km.Run(pts, init, 10, StackedDimMajor, serving(t, client, server))
	if err != nil {
		t.Fatal(err)
	}
	for c := range wantCentroids {
		for dIdx := range wantCentroids[c] {
			if math.Abs(got[c][dIdx]-wantCentroids[c][dIdx]) > 0.05 {
				t.Errorf("centroid %d dim %d: got %v want %v", c, dIdx, got[c][dIdx], wantCentroids[c][dIdx])
			}
		}
	}
	for i := range wantAssign {
		if km.Assignments[i] != wantAssign[i] {
			t.Errorf("assignment %d: got %d want %d", i, km.Assignments[i], wantAssign[i])
		}
	}
	if km.Iterations < 2 {
		t.Errorf("expected at least 2 iterations, got %d", km.Iterations)
	}
	if stats.Encryptions == 0 || stats.Decryptions == 0 {
		t.Error("missing client op accounting")
	}
	t.Logf("kmeans: %d iterations, stats %+v", km.Iterations, stats)
}

func TestKMeansEmptyInit(t *testing.T) {
	client, _, pts := testPair(t, 4, 2)
	km := NewKMeans(client)
	a, _ := protocol.NewPipe()
	defer a.Close()
	if _, _, err := km.Run(pts, nil, 5, StackedDimMajor, a); err == nil {
		t.Error("expected error for empty init")
	}
	if _, _, err := km.Run(pts[:3], [][]float64{{0, 0}}, 5, StackedDimMajor, a); err == nil {
		t.Error("expected error for a point set that is not the server's")
	}
}

func TestQuickCostModelMonotone(t *testing.T) {
	// More points can never reduce any variant's traffic or server work.
	f := func(mSeed, dSeed uint8) bool {
		m := 8 + int(mSeed)%64
		d := 1 << (2 + int(dSeed)%4)
		const slots = 4096
		for _, v := range Variants() {
			a := AnalyzeCost(v, m, d, slots)
			b := AnalyzeCost(v, m*2, d, slots)
			if b.TotalCts() < a.TotalCts() {
				return false
			}
			if b.Server.CtMults < a.Server.CtMults {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCostCollapsedAlwaysSingleRoundTrip(t *testing.T) {
	f := func(mSeed, dSeed uint8) bool {
		m := 1 + int(mSeed)%128
		d := 1 << (int(dSeed) % 6)
		c := AnalyzeCost(CollapsedPointMajor, m, d, 4096)
		return c.UpCts == 1 && c.DownCts == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
