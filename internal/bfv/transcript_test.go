package bfv_test

import (
	"log"
	"os"
	"testing"

	"choco/internal/bfv"
	"choco/internal/protocol"
	"choco/internal/testkit"
)

// TestPublicKeyTranscriptHoldsNoSecret runs the client path that encrypts
// under the public key (the examples' and the benchmark client cycle's):
// three encryptions, each sent over a recorded pipe, with the standard
// logger recorded. No frame and no line may hold the client's seed, its
// key or an encryption's draws, u, e1 and e2, and every frame must pass
// the strict ciphertext decoder.
func TestPublicKeyTranscriptHoldsNoSecret(t *testing.T) {
	var rec testkit.Recorder
	log.SetOutput(&rec)
	defer log.SetOutput(os.Stderr)

	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	seed := testkit.Seed("bfv public-key transcript")
	kg := bfv.NewKeyGenerator(ctx, seed)
	enc := bfv.NewEncryptor(ctx, kg.GenPublicKey(kg.GenSecretKey()), seed)
	clientEnd, serverEnd := protocol.NewPipe()
	defer serverEnd.Close()
	tr := rec.Client(clientEnd)
	const n = 3
	for i := 0; i < n; i++ {
		ct, err := enc.EncryptInts([]int64{int64(i), -1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(protocol.MarshalBFV(ct)); err != nil {
			t.Fatal(err)
		}
	}
	decode := func(f []byte) error { _, err := protocol.UnmarshalBFV(ctx, f); return err }
	rec.Check(t, decode, testkit.NewSecret(ctx.Context, seed).PublicKeyEncryptions(n))
}
