package pagerank

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/protocol"
)

// Test parameter sets: a BFV plaintext modulus wide enough for two
// consecutive encrypted iterations at 8+8 bits, a CKKS chain two levels
// deep.
var (
	testBFVParams  = bfv.Parameters{LogN: 11, QBits: []int{58, 58}, PBits: 59, TBits: 26, Sigma: 3.2}
	testCKKSParams = ckks.Parameters{LogN: 11, QBits: []int{50, 40, 40}, PBits: 51, LogScale: 40, Sigma: 3.2}
)

func testGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := Synthesize(n, 3, 0.85, [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize(1, 2, 0.85, [32]byte{1}); err == nil {
		t.Error("expected error for n=1")
	}
	if _, err := Synthesize(8, 2, 1.5, [32]byte{1}); err == nil {
		t.Error("expected error for damping out of range")
	}
}

func TestGraphIsStochastic(t *testing.T) {
	g := testGraph(t, 16)
	for j := 0; j < g.N; j++ {
		var col float64
		for i := 0; i < g.N; i++ {
			if g.G[i][j] < 0 {
				t.Fatalf("negative entry at (%d,%d)", i, j)
			}
			col += g.G[i][j]
		}
		if math.Abs(col-1) > 1e-9 {
			t.Fatalf("column %d sums to %v", j, col)
		}
	}
}

func TestPlainRankConverges(t *testing.T) {
	g := testGraph(t, 16)
	r10 := g.PlainRank(10)
	r40 := g.PlainRank(40)
	if L1Distance(r10, r40) > 0.01 {
		t.Errorf("rank not converging: l1=%v", L1Distance(r10, r40))
	}
	var sum float64
	for _, v := range r40 {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ranks sum to %v", sum)
	}
}

func TestBFVPageRankMatchesPlain(t *testing.T) {
	g := testGraph(t, 16)
	runner, err := NewBFVRunner(g, testBFVParams, 8, 8, [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	if runner.MaxSetSize() < 2 {
		t.Fatalf("expected capacity for ≥2 iterations, got %d", runner.MaxSetSize())
	}
	want := g.PlainRank(6)
	for _, setSize := range []int{1, 2} {
		clientEnd, serverEnd := protocol.NewPipe()
		got, stats, err := runner.Run(6, setSize, clientEnd, serverEnd)
		clientEnd.Close()
		if err != nil {
			t.Fatalf("setSize %d: %v", setSize, err)
		}
		if d := L1Distance(got, want); d > 0.05 {
			t.Errorf("setSize %d: l1 distance to plain rank %v", setSize, d)
		}
		wantSets := (6 + setSize - 1) / setSize
		if stats.UpCiphertexts != wantSets || stats.Decryptions != wantSets {
			t.Errorf("setSize %d: stats %+v, want %d sets", setSize, stats, wantSets)
		}
		t.Logf("setSize %d: stats %+v", setSize, stats)
	}
}

func TestBFVPageRankRefreshTradesCommunication(t *testing.T) {
	// Fig 13's axis: fewer refreshes (larger sets) means less frequent
	// but unchanged-size communication at fixed parameters; the win
	// comes from pairing small sets with small parameters (modeled in
	// params.PageRankPlans*); here we check the raw mechanics: bytes
	// scale with the number of sets.
	g := testGraph(t, 16)
	runner, err := NewBFVRunner(g, testBFVParams, 8, 8, [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := protocol.NewPipe()
	_, s1, err := runner.Run(4, 1, a, b)
	a.Close()
	if err != nil {
		t.Fatal(err)
	}
	a, b = protocol.NewPipe()
	_, s2, err := runner.Run(4, 2, a, b)
	a.Close()
	if err != nil {
		t.Fatal(err)
	}
	if s2.TotalBytes() >= s1.TotalBytes() {
		t.Errorf("larger sets should reduce traffic at fixed parameters: %d vs %d",
			s2.TotalBytes(), s1.TotalBytes())
	}
}

func TestBFVPageRankSetSizeTooDeep(t *testing.T) {
	g := testGraph(t, 8)
	params := bfv.PresetTest() // t = 2^17: room for one iteration at 8+8 bits
	runner, err := NewBFVRunner(g, params, 8, 8, [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := protocol.NewPipe()
	defer a.Close()
	if _, _, err := runner.Run(4, runner.MaxSetSize()+1, a, b); err == nil {
		t.Error("expected error beyond plaintext capacity")
	}
}

func TestCKKSPageRankMatchesPlain(t *testing.T) {
	g := testGraph(t, 16)
	runner, err := NewCKKSRunner(g, testCKKSParams, [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	if runner.MaxSetSize() != 2 {
		t.Fatalf("level budget %d, want 2", runner.MaxSetSize())
	}
	want := g.PlainRank(6)
	for _, setSize := range []int{1, 2} {
		clientEnd, serverEnd := protocol.NewPipe()
		got, stats, err := runner.Run(6, setSize, clientEnd, serverEnd)
		clientEnd.Close()
		if err != nil {
			t.Fatalf("setSize %d: %v", setSize, err)
		}
		if d := L1Distance(got, want); d > 0.01 {
			t.Errorf("setSize %d: l1 distance %v", setSize, d)
		}
		if stats.Server.PlainMults == 0 || stats.Server.Rotations == 0 {
			t.Errorf("missing server ops: %+v", stats.Server)
		}
	}
}

// TestRunGolden pins what Run returns under both schemes at set sizes 1
// and 2 — the ranks as float64 bits and the client's core.Stats — each
// from a fresh runner, so the encryptor's stream starts where a caller's
// would. The digests are of seeded uploads (UpBytes 119 024 / 59 512 under
// BFV, 133 360 / 66 680 under CKKS, half the public-key frames' bytes).
func TestRunGolden(t *testing.T) {
	g := testGraph(t, 16)
	type runner interface {
		Run(totalIters, setSize int, clientEnd, serverEnd protocol.Transport) ([]float64, core.Stats, error)
	}
	newBFV := func() (runner, error) { return NewBFVRunner(g, testBFVParams, 8, 8, [32]byte{2}) }
	newCKKS := func() (runner, error) { return NewCKKSRunner(g, testCKKSParams, [32]byte{3}) }
	for _, tc := range []struct {
		name    string
		setSize int
		runner  func() (runner, error)
		want    string
	}{
		{"BFV/set1", 1, newBFV, "54ee8671fadb061f38774a72c574a0bb57e69273d76e3f251520d6d042c020a4"},
		{"BFV/set2", 2, newBFV, "c8a19bed7fef679636303c19b97c14dac144ce90a31e8d1f7afa1169ab64c8ec"},
		{"CKKS/set1", 1, newCKKS, "6970b51a315186ec6735687695032002bb4f85f7d934c73e6dab679dac01ab7f"},
		{"CKKS/set2", 2, newCKKS, "5da296ccbc130d748eaa6a376aaa6e717503adc0dd70b7e1beea353badd60e90"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.runner()
			if err != nil {
				t.Fatal(err)
			}
			clientEnd, serverEnd := protocol.NewPipe()
			defer clientEnd.Close()
			ranks, stats, err := r.Run(4, tc.setSize, clientEnd, serverEnd)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, v := range ranks {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
			fmt.Fprintf(h, "%+v", stats)
			if sum := fmt.Sprintf("%x", h.Sum(nil)); sum != tc.want {
				t.Errorf("ranks and stats %+v hash to %s, pinned %s", stats, sum, tc.want)
			}
		})
	}
}

// TestRunCountsWhatThePipeCarries holds the client's own byte accounting
// to the transport's: under both schemes, UpBytes is what the client end
// sent and DownBytes what it received, length prefixes included.
func TestRunCountsWhatThePipeCarries(t *testing.T) {
	g := testGraph(t, 16)
	bfvRunner, err := NewBFVRunner(g, testBFVParams, 8, 8, [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	ckksRunner, err := NewCKKSRunner(g, testCKKSParams, [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(clientEnd, serverEnd protocol.Transport) ([]float64, core.Stats, error){
		"BFV":  func(c, s protocol.Transport) ([]float64, core.Stats, error) { return bfvRunner.Run(3, 2, c, s) },
		"CKKS": func(c, s protocol.Transport) ([]float64, core.Stats, error) { return ckksRunner.Run(3, 2, c, s) },
	} {
		clientEnd, serverEnd := protocol.NewPipe()
		_, stats, err := run(clientEnd, serverEnd)
		clientEnd.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.UpBytes != clientEnd.SentBytes() || stats.DownBytes != clientEnd.ReceivedBytes() || stats.UpCiphertexts != 2 {
			t.Errorf("%s: stats count %d B up / %d B down over %d sets, the client end sent %d B and received %d B",
				name, stats.UpBytes, stats.DownBytes, stats.UpCiphertexts, clientEnd.SentBytes(), clientEnd.ReceivedBytes())
		}
	}
}

func TestCKKSDownloadsShrinkWithDepth(t *testing.T) {
	// After s rescales the downloaded ciphertext has s fewer residues:
	// deeper encrypted sets shrink the download (levels drop), one of
	// the effects behind Fig 13's CKKS advantage.
	g := testGraph(t, 8)
	runner, err := NewCKKSRunner(g, testCKKSParams, [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	a, b := protocol.NewPipe()
	_, s1, err := runner.Run(2, 1, a, b)
	a.Close()
	if err != nil {
		t.Fatal(err)
	}
	a, b = protocol.NewPipe()
	_, s2, err := runner.Run(2, 2, a, b)
	a.Close()
	if err != nil {
		t.Fatal(err)
	}
	perDown1 := float64(s1.DownBytes) / float64(s1.DownCiphertexts)
	perDown2 := float64(s2.DownBytes) / float64(s2.DownCiphertexts)
	if perDown2 >= perDown1 {
		t.Errorf("deeper set should download smaller ciphertexts: %v vs %v", perDown2, perDown1)
	}
}
