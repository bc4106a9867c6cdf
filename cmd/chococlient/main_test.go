package main

import (
	"context"
	"io"
	"log"
	"net"
	"os"
	"testing"

	"choco/internal/bfv"
	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/serve"
	"choco/internal/testkit"
)

// TestWorkerTranscriptHoldsNoSecret runs runWorker, verbose and with a
// reconnect, against an in-process server over TCP, and records every
// frame at the server's end, everything the worker printed to stdout, the
// standard logger, the server's log and the error of a second worker
// that cannot dial.
// None of it may hold the worker's key seed, its secret key, its public
// key's error or an encryption's error, and every frame the worker sent
// must pass the decoder the server runs.
func TestWorkerTranscriptHoldsNoSecret(t *testing.T) {
	network := &nn.Network{
		Name: "ClientTestNet", InH: 4, InW: 4, InC: 1,
		Layers: []nn.Layer{{Kind: nn.FC, FCOut: 8}},
		Params: bfv.PresetTest(),
	}
	backend, err := nn.NewInferenceServer(nn.SynthesizeWeights(network, 4, [32]byte{21}))
	if err != nil {
		t.Fatal(err)
	}
	var rec testkit.Recorder
	srv := serve.New(backend, serve.Config{Logf: rec.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				rec.Logf("%v", srv.ServeTransport(ctx, rec.Server(protocol.NewConn(c))))
				_ = c.Close()
			}()
		}
	}()

	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	log.SetOutput(&rec)
	copied := make(chan error, 1)
	go func() { _, err := io.Copy(&rec, r); copied <- err }()
	keySeed := 0x5a3c
	_, werr := runWorker(workerConfig{
		addr: ln.Addr().String(), network: network,
		keySeed: keySeed, imageSeed: 7, sessionID: "transcript",
		requests: 2, reconnect: true, verbose: true,
	})
	_, bad := runWorker(workerConfig{addr: "127.0.0.1:0", network: network, keySeed: keySeed, requests: 1})
	os.Stdout = stdout
	log.SetOutput(os.Stderr)
	w.Close()
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
	if werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if bad == nil {
		t.Fatal("a worker dialling port 0 did not fail")
	}
	rec.Logf("%v", bad)
	// hello, key bundle, model request, upload; after the reconnect,
	// hello, upload (the client keeps the model it fetched).
	if n := len(rec.Up()); n != 6 {
		t.Fatalf("the worker sent %d frames, want 6", n)
	}

	// runWorker's key seed: the flag's value in its first two bytes.
	var seed [32]byte
	seed[0], seed[1] = byte(keySeed), byte(keySeed>>8)
	bctx, err := bfv.NewContext(network.Params)
	if err != nil {
		t.Fatal(err)
	}
	rec.Check(t, testkit.NNFrames(bctx), testkit.NewSecret(bctx.Context, seed))
}
