package distance

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"

	"choco/internal/ckks"
	"choco/internal/protocol"
)

// TestDistanceKeysGeneratedAreKeysUsed: the client's bundle holds a
// Galois key for each rotation the server's plans run and for nothing
// else — no relinearization key, as the server multiplies no two
// ciphertexts. A bundle built by hand from the client's seed is the
// client's own, byte for byte; with all of it every variant is served,
// and with any one Galois key dropped some variant is not — the server
// names the missing key. At the benchmark's shape (PresetDistance, 64 points × 16
// dims) the bundle's key count and bytes are pinned.
func TestDistanceKeysGeneratedAreKeysUsed(t *testing.T) {
	for _, geom := range []struct{ m, d int }{{8, 4}, {5, 3}} {
		seed := [32]byte{62}
		client, server, _ := pairOver(t, synthPoints(geom.m, geom.d, 1), seed)
		q := []float64{0.5, -1.25, 1.0, 0.25}[:geom.d]

		kg := ckks.NewKeyGenerator(client.ctx, seed)
		sk := kg.GenSecretKey()
		kb := &protocol.CKKSKeyBundle{PK: kg.GenPublicKey(sk)}
		var elements []uint64
		for _, s := range client.rotationSteps() {
			elements = append(elements, client.ctx.GaloisElementForRotation(s))
		}
		all := kg.GenGaloisKeys(sk, elements)
		kb.Galois = all
		if !bytes.Equal(protocol.MarshalCKKSKeyBundle(kb), client.keyFrame) {
			t.Fatalf("%d×%d: the hand-built bundle is not the client's", geom.m, geom.d)
		}

		// refused runs one session per variant over the bundle and
		// returns the variants the server failed.
		refused := func(bundle []byte) map[Variant]error {
			out := map[Variant]error{}
			for _, v := range Variants() {
				clientEnd, serverEnd := protocol.NewPipe()
				done := make(chan error, 1)
				go func() { done <- server.Serve(serverEnd) }()
				if err := clientEnd.Send(bundle); err != nil {
					t.Fatal(err)
				}
				_, _, err := client.Query(q, v, clientEnd)
				clientEnd.Close()
				if serr := <-done; (serr == nil) != (err == nil) {
					t.Fatalf("%d×%d %v: the client read %v, the server returned %v", geom.m, geom.d, v, err, serr)
				}
				if err != nil {
					out[v] = err
				}
			}
			return out
		}
		if failed := refused(client.keyFrame); len(failed) != 0 {
			t.Fatalf("%d×%d: the full bundle leaves variants unserved: %v", geom.m, geom.d, failed)
		}
		for _, el := range elements {
			kb.Galois = maps.Clone(all)
			delete(kb.Galois, el)
			failed := refused(protocol.MarshalCKKSKeyBundle(kb))
			if len(failed) == 0 {
				t.Errorf("%d×%d: without the key for element %d every variant is served", geom.m, geom.d, el)
			}
			for v, err := range failed {
				if want := fmt.Sprintf("missing Galois key for element %d", el); !strings.Contains(err.Error(), want) {
					t.Errorf("%d×%d %v without element %d: %v, want %q", geom.m, geom.d, v, el, err, want)
				}
			}
		}
	}

	if testing.Short() {
		t.Skip("generates production-size CKKS keys")
	}
	client, err := NewClient(PresetDistance(), 64, 16, [32]byte{58})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := protocol.UnmarshalCKKSKeyBundle(client.ctx, client.keyFrame)
	if err != nil {
		t.Fatal(err)
	}
	if kb.Relin != nil {
		t.Error("the 64×16 bundle carries a relinearization key")
	}
	// The in-block reduction's 1, 2, 4, 8 and the collapse plan's seven
	// babies 15k and seven giants 120j.
	if len(kb.Galois) != 18 || len(client.keyFrame) != 10276292 {
		t.Errorf("the 64×16 bundle holds %d Galois keys in %d B, pinned 18 in 10 276 292 B", len(kb.Galois), len(client.keyFrame))
	}
}
