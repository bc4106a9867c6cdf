package fabric

import (
	"log"
	"net"
	"os"
	"testing"
	"time"

	"choco/internal/bfv"
	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/serve"
	"choco/internal/testkit"
)

// TestRoutedTranscriptHoldsNoSecret runs a client through a router and
// its shard twice, the second time to its cached keys, with an image the
// client refuses on the way. No frame at the client's end, no line of the
// router's, the shard's or the standard log and no error the client
// returned may hold the client's seed, its secret key, its public key's
// error or an encryption's error, and every frame the client sent must
// pass the decoder the shard runs.
func TestRoutedTranscriptHoldsNoSecret(t *testing.T) {
	testkit.CheckGoroutines(t)
	var rec testkit.Recorder
	log.SetOutput(&rec)
	defer log.SetOutput(os.Stderr)
	shard := startShardConfig(t, "shard-a", serve.Config{MaxSessions: 4, Logf: rec.Logf})
	_, addr := startRouter(t, RouterConfig{Members: []Member{shard.member("shard-a")}, HealthInterval: -1, Logf: rec.Logf})

	seed := testkit.Seed("fabric transcript")
	client, err := nn.NewInferenceClient(fabricNet(), seed)
	if err != nil {
		t.Fatal(err)
	}
	img := nn.SynthesizeImage(fabricNet(), 4, seed)
	for _, image := range [][][]int64{img, img[:0]} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := protocol.NewConn(conn)
		c.SetReadTimeout(30 * time.Second)
		tr := rec.Client(c)
		if _, err := client.SetupSession(tr, "transcript"); err != nil {
			t.Fatal(err)
		}
		_, _, err = client.Infer(image, tr)
		rec.Logf("%v", err)
		rec.Logf("%v", c.Close())
	}

	ctx, err := bfv.NewContext(fabricNet().Params)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := nn.ExecutableRequestCost(fabricNet())
	if err != nil {
		t.Fatal(err)
	}
	rec.Check(t, testkit.NNFrames(ctx, cost.UploadBytes), testkit.NewSecret(ctx.Context, seed))
}
