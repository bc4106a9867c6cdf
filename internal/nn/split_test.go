package nn

import (
	"bytes"
	"testing"

	"choco/internal/protocol"
)

// TestSplitClientServerInference runs the full split deployment — the
// server never sees the secret key, keys travel as a serialized
// bundle — and must match cleartext inference exactly.
func TestSplitClientServerInference(t *testing.T) {
	net := testNet()
	model := SynthesizeWeights(net, 4, [32]byte{21})
	img := SynthesizeImage(net, 4, [32]byte{22})
	want, err := PlainInference(model, img)
	if err != nil {
		t.Fatal(err)
	}

	server, err := NewInferenceServer(model)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewInferenceClient(net, [32]byte{23})
	if err != nil {
		t.Fatal(err)
	}

	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()

	errCh := make(chan error, 1)
	go func() {
		defer serverEnd.Close() // a refused frame fails the client's next Recv instead of hanging it
		sess, err := server.ReadSession(serverEnd)
		if err != nil {
			errCh <- err
			return
		}
		_, err = sess.ServeOne(serverEnd)
		errCh <- err
	}()

	if err := client.Setup(clientEnd); err != nil {
		t.Fatal(err)
	}
	got, stats, err := client.Infer(img, clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: got %d want %d", i, got[i], want[i])
		}
	}
	if stats.Encryptions < 3 || stats.Decryptions < 3 {
		t.Errorf("stats %+v", stats)
	}
	t.Logf("split inference stats: %+v", stats)
}

func TestKeyBundleRoundTrip(t *testing.T) {
	net := testNet()
	client, err := NewInferenceClient(net, [32]byte{31})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(client.keyFrame)
	back, err := protocol.UnmarshalKeyBundle(client.ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(protocol.MarshalKeyBundle(back), data) {
		t.Error("the decoded bundle does not marshal back to the client's frame")
	}
	if len(back.Galois) != 0 || back.Relin != nil || back.PK == nil {
		t.Errorf("the bundle carries %d Galois keys, a relinearization key: %v, a public key: %v; a network of product-packed layers needs none, none and one", len(back.Galois), back.Relin != nil, back.PK != nil)
	}
	// Corruption is detected.
	if _, err := protocol.UnmarshalKeyBundle(client.ctx, data[:100]); err == nil {
		t.Error("expected truncation error")
	}
	data[0] ^= 0xFF
	if _, err := protocol.UnmarshalKeyBundle(client.ctx, data); err == nil {
		t.Error("expected magic error")
	}
}

func TestSplitDemoNetworkEndToEnd(t *testing.T) {
	// The full example/cmd deployment model at real preset-B
	// parameters; slower, so skipped in -short runs.
	if testing.Short() {
		t.Skip("short mode")
	}
	net := DemoNetwork()
	model := SynthesizeWeights(net, 4, [32]byte{7})
	img := SynthesizeImage(net, 4, [32]byte{3})
	want, err := PlainInference(model, img)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewInferenceServer(model)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewInferenceClient(net, [32]byte{42})
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	errCh := make(chan error, 1)
	go func() {
		defer serverEnd.Close() // a refused frame fails the client's next Recv instead of hanging it
		sess, err := server.ReadSession(serverEnd)
		if err != nil {
			errCh <- err
			return
		}
		_, err = sess.ServeOne(serverEnd)
		errCh <- err
	}()
	if err := client.Setup(clientEnd); err != nil {
		t.Fatal(err)
	}
	got, stats, err := client.Infer(img, clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: %d vs %d", i, got[i], want[i])
		}
		if got[i] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("demo network produced all-zero logits; requant shifts too aggressive")
	}
	// Preset B wire check: an upload carries c0 rounded to its layer's
	// width at every coefficient, no seed (conv1 and conv2 at 38 bits:
	// 19 456 B; the FC at 40: 20 480 B); a download c0 rounded to 31 bits
	// at the read coefficients alone, at the one residue replies are
	// switched down to, in whole words (conv1 3 136: 12 152 B, conv2's
	// tiles 588, 588 and 392: 2 280, 2 280 and 1 520 B, FC 10: 40 B); each
	// behind a 24-byte header and the 4-byte length prefix. The client's
	// first request also exchanges the model: an 8-byte request and a
	// 2 480-byte model frame (16-byte header, 16 bytes for each of the 3
	// product layers, 4 820 4-bit weights in whole words), each with its
	// length prefix.
	if stats.UpCiphertexts != 3 || stats.UpBytes != 2*19484+20508+12 {
		t.Errorf("%d uploads, %d B up; want 19 484, 19 484 and 20 508 B and the 12-byte model request", stats.UpCiphertexts, stats.UpBytes)
	}
	if stats.DownCiphertexts != 5 || stats.DownBytes != 18412+2484 {
		t.Errorf("%d replies, %d B down; want 5 of 18 412 B together and the 2 484-byte model frame", stats.DownCiphertexts, stats.DownBytes)
	}
}
