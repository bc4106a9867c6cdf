package serve

import (
	"context"
	"log"
	"os"
	"testing"

	"choco/internal/bfv"
	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/testkit"
)

// TestTranscriptHoldsNoSecret runs LeNet-Sm's and the demo network's
// clients through a Server over recorded pipes: a session with its key
// upload and an inference, a reconnect to the cached keys with an image
// the client refuses, a session with the other network's server, which
// fails it, and a network too wide for its ring, which NewInferenceClient
// refuses. No frame either way, no line of the servers' or the standard
// log and no error a client returned may hold the client's seed, its
// secret key, its public key's error or an encryption's error
// (testkit.Secret), and every frame the client sent must pass the decoder
// the server runs: the paper's threat model (§3.1), checked on the paths
// the clients run.
func TestTranscriptHoldsNoSecret(t *testing.T) {
	testkit.CheckGoroutines(t)
	nets := []*nn.Network{nn.LeNetSmall(), nn.DemoNetwork()}
	var recs [2]testkit.Recorder
	logf := func(format string, args ...any) { // the servers' log is in both transcripts
		for j := range recs {
			recs[j].Logf(format, args...)
		}
	}
	var servers []*Server
	for _, net := range nets {
		backend, err := nn.NewInferenceServer(nn.SynthesizeWeights(net, 4, [32]byte{21}))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, New(backend, Config{Logf: logf}))
	}
	tiny, _ := testBackend(t, tinyNetwork)
	other := New(tiny, Config{Logf: logf})
	defer log.SetOutput(os.Stderr)
	for i, net := range nets {
		rec := &recs[i]
		log.SetOutput(rec)
		seed := testkit.Seed("serve transcript " + net.Name)
		client, err := nn.NewInferenceClient(net, seed)
		if err != nil {
			t.Fatal(err)
		}
		img := nn.SynthesizeImage(net, 4, seed)
		// session runs one session; an open the server refuses ends it
		// there, its error in the transcript.
		session := func(srv *Server, id string, infer [][]int64) (cached bool, err error) {
			clientEnd, serverEnd := protocol.NewPipe()
			done := make(chan error, 1)
			go func() {
				err := srv.ServeTransport(context.Background(), serverEnd)
				serverEnd.Close()
				done <- err
			}()
			tr := rec.Client(clientEnd)
			cached, err = client.SetupSession(tr, id)
			rec.Logf("%v", err)
			if err == nil {
				_, _, inferErr := client.Infer(infer, tr)
				rec.Logf("%v", inferErr)
			}
			clientEnd.Close()
			rec.Logf("%v", <-done)
			return cached, err
		}
		if cached, err := session(servers[i], "transcript", img); err != nil || cached {
			t.Fatalf("%s: a first session opened with cached=%v, err=%v; want uncached", net.Name, cached, err)
		}
		if cached, err := session(servers[i], "transcript", img[:len(img)-1]); err != nil || !cached {
			t.Fatalf("%s: the reconnect opened with cached=%v, err=%v; want its keys cached", net.Name, cached, err)
		}
		_, _ = session(other, "transcript", img)
		wide := &nn.Network{Name: "TooWide", InH: 64, InW: 64, InC: 4, Layers: []nn.Layer{{Kind: nn.FC, FCOut: 10}}, Params: net.Params}
		_, err = nn.NewInferenceClient(wide, seed)
		if err == nil {
			t.Fatal("a 16384-input FC fit one ciphertext")
		}
		rec.Logf("%v", err)
	}

	for i, net := range nets {
		ctx, err := bfv.NewContext(net.Params)
		if err != nil {
			t.Fatal(err)
		}
		recs[i].Check(t, testkit.NNFrames(ctx), testkit.NewSecret(ctx.Context, testkit.Seed("serve transcript "+net.Name)))
	}
}
