// Client-aided encrypted DNN inference (§5.1): the client encrypts an
// image; the server — holding only the client's evaluation keys and
// the model weights — evaluates convolution and fully-connected layers
// homomorphically with rotational redundancy; the client decrypts
// between layers to apply ReLU/pooling and re-encrypt, refreshing the
// noise budget. The result matches cleartext inference exactly, and
// every client cost (encryptions, decryptions, bytes) is accounted.
package main

import (
	"fmt"
	"log"
	"time"

	"choco/internal/nn"
	"choco/internal/protocol"
)

func main() {
	network := nn.DemoNetwork()
	fmt.Printf("network %s: %d layers, %d MACs, parameters N=%d (preset B)\n",
		network.Name, len(network.Layers), network.MACs(), network.Params.N())

	// The server owns the weights; the client knows the architecture.
	model := nn.SynthesizeWeights(network, 4, [32]byte{7})
	server, err := nn.NewInferenceServer(model)
	if err != nil {
		log.Fatal(err)
	}
	client, err := nn.NewInferenceClient(network, [32]byte{42})
	if err != nil {
		log.Fatal(err)
	}

	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	serverOps := make(chan nn.ServerOps, 1)
	go func() {
		sess, err := server.ReadSession(serverEnd)
		if err != nil {
			log.Fatal(err)
		}
		ops, err := sess.ServeOne(serverEnd)
		if err != nil {
			log.Fatal(err)
		}
		serverOps <- ops
	}()

	if err := client.Setup(clientEnd); err != nil {
		log.Fatal(err)
	}

	img := nn.SynthesizeImage(network, 4, [32]byte{3})
	start := time.Now()
	logits, stats, err := client.Infer(img, clientEnd)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	// Cross-check against cleartext inference.
	want, err := nn.PlainInference(model, img)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want {
		if logits[i] != want[i] {
			log.Fatalf("logit %d mismatch: encrypted %d vs plain %d", i, logits[i], want[i])
		}
	}

	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	fmt.Printf("encrypted inference matches cleartext exactly; class = %d\n", best)
	fmt.Printf("wall time: %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("client costs: %d encryptions, %d decryptions\n", stats.Encryptions, stats.Decryptions)
	fmt.Printf("communication: %.1f KB up, %.1f KB down (%d + %d ciphertexts)\n",
		float64(stats.UpBytes)/1024, float64(stats.DownBytes)/1024,
		stats.UpCiphertexts, stats.DownCiphertexts)
	ops := <-serverOps
	fmt.Printf("server ops: %d rotations, %d plaintext multiplies, %d additions — zero ciphertext multiplies\n",
		ops.Rotations, ops.PlainMults, ops.Adds)
}
