package pagerank

import (
	"log"
	"os"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/protocol"
	"choco/internal/rlwe"
	"choco/internal/testkit"
)

// TestTranscriptHoldsNoSecret runs both runners over recorded pipes: two
// refresh rounds each and a schedule the runner refuses. No frame, no
// line of the standard logger and no error a runner returned may hold the
// client's seed, its secret key, its public key's error or an
// encryption's error, and every upload must pass the decoder the server
// half runs.
func TestTranscriptHoldsNoSecret(t *testing.T) {
	defer log.SetOutput(os.Stderr)
	g := testGraph(t, 8)
	seed := testkit.Seed("pagerank transcript")
	bctx, err := bfv.NewContext(testBFVParams)
	if err != nil {
		t.Fatal(err)
	}
	cctx, err := ckks.NewContext(testCKKSParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		ctx    *rlwe.Context
		runner func() (runner, error)
		decode func([]byte) error
	}{
		{"BFV", bctx.Context,
			func() (runner, error) { return NewBFVRunner(g, testBFVParams, 8, 8, seed) },
			func(f []byte) error { _, err := protocol.UnmarshalSeededBFV(bctx, f); return err }},
		{"CKKS", cctx.Context,
			func() (runner, error) { return NewCKKSRunner(g, testCKKSParams, seed) },
			func(f []byte) error { _, err := protocol.UnmarshalSeededCKKS(cctx, f); return err }},
	} {
		var rec testkit.Recorder
		log.SetOutput(&rec)
		r, err := c.runner()
		if err != nil {
			t.Fatal(err)
		}
		for _, schedule := range [][2]int{{2, 1}, {2, 0}} {
			clientEnd, serverEnd := protocol.NewPipe()
			_, _, err := r.Run(schedule[0], schedule[1], rec.Client(clientEnd), serverEnd)
			rec.Logf("%v", err)
			clientEnd.Close()
		}
		if len(rec.Up()) != 2 {
			t.Fatalf("%s: %d uploads, want 2", c.name, len(rec.Up()))
		}
		rec.Check(t, c.decode, testkit.NewSecret(c.ctx, seed))
	}
}

type runner interface {
	Run(totalIters, setSize int, clientEnd, serverEnd protocol.Transport) ([]float64, core.Stats, error)
}
