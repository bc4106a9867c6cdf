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
	// Preset B wire check: a seeded upload carries one polynomial of two
	// packed 36-bit rows (2 · 18 432 B) plus a 32-byte seed; a download c1
	// at the one residue replies are switched down to (18 432 B) and c0 at
	// the read coefficients, 36 bits each in whole words (conv1 3 136,
	// conv2's tiles 588, 588 and 392, FC 10); each behind a 24-byte header
	// and the 4-byte length prefix.
	if perUp := stats.UpBytes / int64(stats.UpCiphertexts); perUp != 36924 {
		t.Errorf("per-ciphertext up bytes %d, want 36924", perUp)
	}
	if stats.DownCiphertexts != 5 || stats.DownBytes != 113524 {
		t.Errorf("%d replies of %d B, want 5 of 113524 B", stats.DownCiphertexts, stats.DownBytes)
	}
}
