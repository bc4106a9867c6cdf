package distance

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"testing"

	"choco/internal/ckks"
	"choco/internal/protocol"
	"choco/internal/testkit"
)

// TestTranscriptHoldsNoSecret runs a client through Server.Serve over a
// recorded pipe: its key upload, a query of each of the five variants,
// and a query the client refuses. No frame, no line of the standard
// logger and no error the client returned may hold the client's seed, its
// secret key, its public key's error or an encryption's error, and every
// frame the client sent must pass the decoder the server runs.
func TestTranscriptHoldsNoSecret(t *testing.T) {
	var rec testkit.Recorder
	log.SetOutput(&rec)
	defer log.SetOutput(os.Stderr)

	pts := synthPoints(8, 5, 1)
	server, err := NewServer(PresetDistanceTest(), pts)
	if err != nil {
		t.Fatal(err)
	}
	seed := testkit.Seed("distance transcript")
	client, err := NewClient(PresetDistanceTest(), 8, 5, seed)
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	done := make(chan error, 1)
	go func() { done <- server.Serve(serverEnd) }()
	tr := rec.Client(clientEnd)
	if err := client.Setup(tr); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.5, -1, 1.5, 0.25, -0.75}
	for _, v := range Variants() {
		if _, _, err := client.Query(q, v, tr); err != nil {
			t.Errorf("%v: %v", v, err)
		}
	}
	_, _, err = client.Query(q[:4], PointMajor, tr)
	rec.Logf("%v", err)
	clientEnd.Close()
	rec.Logf("%v", <-done)

	ctx, err := ckks.NewContext(PresetDistanceTest())
	if err != nil {
		t.Fatal(err)
	}
	decode := func(f []byte) error {
		if len(f) == 4 {
			if v := binary.LittleEndian.Uint32(f); v > uint32(CollapsedPointMajor) {
				return fmt.Errorf("request for variant %d", v)
			}
			return nil
		}
		if _, err := protocol.UnmarshalSeededCKKS(ctx, f); err == nil {
			return nil
		}
		_, err := protocol.UnmarshalCKKSKeyBundle(ctx, f)
		return err
	}
	rec.Check(t, decode, testkit.NewSecret(ctx.Context, seed))
}
