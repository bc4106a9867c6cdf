package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// newSessionKit builds an independent session (own secret key, own
// encryptor randomness) over the shared test preset, mirroring how
// distinct clients land on one shard.
func newSessionKit(t testing.TB, seed byte, rotSteps []int) *kit {
	t.Helper()
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{40 + seed})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	galois := kg.GenRotationKeys(sk, rotSteps...)
	return &kit{
		ctx: ctx,
		sk:  sk,
		enc: bfv.NewEncryptor(ctx, pk, [32]byte{60 + seed}),
		dec: bfv.NewDecryptor(ctx, sk),
		ecd: bfv.NewEncoder(ctx),
		ev:  bfv.NewEvaluator(ctx, relin, galois),
	}
}

func ctEqual(r *ring.Ring, a, b *bfv.Ciphertext) bool {
	if len(a.Value) != len(b.Value) || a.Drop != b.Drop {
		return false
	}
	for i := range a.Value {
		if !r.Equal(a.Value[i], b.Value[i]) {
			return false
		}
	}
	return true
}

// TestConvApplyBatchMatchesSerial pins the batching executor's oracle
// guarantee at the conv kernel: coalescing three sessions' inputs into
// one ApplyBatch call yields, per session, ciphertexts byte-identical
// to the serial Apply path — with and without a plaintext cache, which
// a convolution never looks at, and on a second batch.
func TestConvApplyBatchMatchesSerial(t *testing.T) {
	spec := ConvSpec{InH: 8, InW: 8, InC: 2, KH: 3, KW: 3, OutC: 3}
	src := sampling.NewSource([32]byte{7}, "crossbatch-conv")
	weights := synthConvWeights(src, spec.OutC, spec.InC, 9, 3)

	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	conv, err := NewConv2D(spec, weights, ctxProbe.Params.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 3
	kits := make([]*kit, sessions)
	items := make([]BatchInput, sessions)
	slots := ctxProbe.Params.Slots()
	for i := 0; i < sessions; i++ {
		kits[i] = newSessionKit(t, byte(i), nil)
		img := synthImage(src, spec.InC, spec.InH*spec.InW, 7)
		packed, err := conv.PackInput(img, slots)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchInput{Ev: kits[i].ev, Ct: kits[i].encrypt(t, packed, true)}
	}

	serialOuts := make([][]*bfv.Ciphertext, sessions)
	serialOps := make([]OpCounts, sessions)
	for i := 0; i < sessions; i++ {
		outs, ops, err := conv.Apply(kits[i].ev, kits[i].ecd, items[i].Ct, slots)
		if err != nil {
			t.Fatal(err)
		}
		serialOuts[i], serialOps[i] = outs, ops
	}

	check := func(label string, cache *PlainCache) {
		outs, ops, err := conv.ApplyBatch(kits[0].ecd, items, slots, cache)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := 0; i < sessions; i++ {
			if ops[i] != serialOps[i] {
				t.Errorf("%s: session %d op counts %+v, serial %+v", label, i, ops[i], serialOps[i])
			}
			if len(outs[i]) != len(serialOuts[i]) {
				t.Fatalf("%s: session %d got %d groups, want %d", label, i, len(outs[i]), len(serialOuts[i]))
			}
			for g := range outs[i] {
				if !ctEqual(kits[i].ctx.RingQ, outs[i][g], serialOuts[i][g]) {
					t.Errorf("%s: session %d group %d differs from serial Apply", label, i, g)
				}
			}
		}
	}

	check("no-cache", nil)
	cache := NewPlainCache(0)
	check("cache", cache)
	check("second", cache)
	if st := cache.Stats(); st != (PlainCacheStats{}) {
		t.Errorf("the convolution used the plaintext cache: %+v", st)
	}
}

// TestFCApplyBatchMatchesSerial is the same oracle check for the
// fully-connected kernel, on both packings.
func TestFCApplyBatchMatchesSerial(t *testing.T) {
	const in, out = 16, 8
	src := sampling.NewSource([32]byte{8}, "crossbatch-fc")
	w := make([][]int64, out)
	for r := range w {
		w[r] = make([]int64, in)
		for c := range w[r] {
			w[r][c] = int64(src.Intn(11)) - 5
		}
	}
	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	product, err := NewFC(in, out, w, ctxProbe.Params.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range []*FC{product, fcOnSlots(t, product)} {
		const sessions = 3
		kits := make([]*kit, sessions)
		items := make([]BatchInput, sessions)
		var slots int
		for i := 0; i < sessions; i++ {
			kits[i] = newSessionKit(t, byte(10+i), fc.RotationSteps())
			slots = kits[i].ctx.Params.Slots()
			vec := make([]int64, slots)
			for j := 0; j < in; j++ {
				vec[j] = int64(src.Intn(15)) - 7
			}
			items[i] = BatchInput{Ev: kits[i].ev, Ct: kits[i].encrypt(t, vec, fc.Product())}
		}

		serialOuts := make([]*bfv.Ciphertext, sessions)
		serialOps := make([]OpCounts, sessions)
		for i := 0; i < sessions; i++ {
			outCt, ops, err := fc.Apply(kits[i].ev, kits[i].ecd, items[i].Ct, slots)
			if err != nil {
				t.Fatal(err)
			}
			serialOuts[i], serialOps[i] = outCt, ops
		}

		cache := NewPlainCache(0)
		for pass, label := range []string{"cold", "warm"} {
			label = fmt.Sprintf("product=%v %s", fc.Product(), label)
			outs, ops, err := fc.ApplyBatch(kits[0].ecd, items, slots, cache)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i := 0; i < sessions; i++ {
				if ops[i] != serialOps[i] {
					t.Errorf("%s: session %d op counts %+v, serial %+v", label, i, ops[i], serialOps[i])
				}
				if !ctEqual(kits[i].ctx.RingQ, outs[i], serialOuts[i]) {
					t.Errorf("%s: session %d FC output differs from serial Apply", label, i)
				}
			}
			if st := cache.Stats(); fc.Product() && st != (PlainCacheStats{}) {
				t.Errorf("%s: the product packing used the plaintext cache: %+v", label, st)
			} else if !fc.Product() && pass == 1 && st.Hits == 0 {
				t.Errorf("%s: warm FC batch recorded no cache hits", label)
			}
		}
	}
}

// TestBatchedLinearMatchesPlainPerItem checks core's batched linear
// entry point, FC.ApplyBatch, against the plaintext matrix-vector
// product for every item of a batch — the oracle the serial-equality
// test above does not reach. (The position-major BatchedLinear this name
// once covered now lives in bench.AblationPackedVsBatched, which checks
// every batch item against PlainFC itself.)
func TestBatchedLinearMatchesPlainPerItem(t *testing.T) {
	const in, out, batch = 12, 5, 9
	src := sampling.NewSource([32]byte{31}, "batched")
	w := make([][]int64, out)
	for o := range w {
		w[o] = make([]int64, in)
		for i := range w[o] {
			w[o][i] = int64(src.Intn(15)) - 7
		}
	}
	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFC(in, out, w, ctxProbe.Params.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	k := newKit(t, fc.RotationSteps())
	slots := k.ctx.Params.Slots()

	xs := make([][]int64, batch)
	items := make([]BatchInput, batch)
	for b := range xs {
		xs[b] = make([]int64, in)
		for i := range xs[b] {
			xs[b][i] = int64(src.Intn(31)) - 15
		}
		packed, err := fc.PackInput(xs[b], slots)
		if err != nil {
			t.Fatal(err)
		}
		items[b] = BatchInput{Ev: k.ev, Ct: k.encrypt(t, packed, fc.Product())}
	}

	outs, _, err := fc.ApplyBatch(k.ecd, items, slots, NewPlainCache(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != batch {
		t.Fatalf("got %d outputs for a batch of %d", len(outs), batch)
	}
	for b, x := range xs {
		got := fc.ExtractOutput(k.decrypt(outs[b], fc.Product()), k.ctx.T.Value)
		if want := PlainFC(w, x); !slices.Equal(got, want) {
			t.Errorf("item %d: got %v, want %v", b, got, want)
		}
	}
}

// TestPlainCacheBudget checks that a cache whose budget cannot hold a
// single prepared plaintext rejects inserts (and keeps serving builds)
// rather than growing unboundedly.
func TestPlainCacheBudget(t *testing.T) {
	k := newKit(t, nil)
	pt, err := k.ecd.EncodeInts([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlainCache(8) // far below one poly's footprint
	builds := 0
	for i := 0; i < 3; i++ {
		pm, err := cache.getOrBuild("op", 0, 0, func() (*ring.Poly, error) {
			builds++
			return k.ev.PrepareMul(pt).NTT, nil
		})
		if err != nil || pm == nil {
			t.Fatalf("getOrBuild: pm=%v err=%v", pm, err)
		}
	}
	if builds != 3 {
		t.Errorf("over-budget cache should rebuild every call, built %d/3", builds)
	}
	st := cache.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Rejected != 3 {
		t.Errorf("over-budget cache stats %+v, want 0 entries, 0 bytes, 3 rejections", st)
	}
}

// TestPlainCacheSingleFlight: eight sessions reach a cold cache together
// and each weight plaintext is built once between them — every caller
// gets the one pointer, an all-zero diagonal's nil included. A build
// that fails or panics caches nothing and strands nobody: its waiters
// build for themselves.
func TestPlainCacheSingleFlight(t *testing.T) {
	k := newKit(t, nil)
	pt, err := k.ecd.EncodeInts([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	const callers, keys, zeroKey = 8, 6, 4
	cache := NewPlainCache(0)
	var builds atomic.Int64
	got := make([][]*ring.Poly, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range got {
		got[c] = make([]*ring.Poly, keys)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for idx := 0; idx < keys; idx++ {
				pm, err := cache.getOrBuild("op", 0, idx, func() (*ring.Poly, error) {
					builds.Add(1)
					runtime.Gosched() // let the other callers reach the key mid-build
					if idx == zeroKey {
						return nil, nil
					}
					return k.ev.PrepareMul(pt).NTT, nil
				})
				if err != nil {
					t.Errorf("caller %d key %d: %v", c, idx, err)
				}
				got[c][idx] = pm
			}
		}(c)
	}
	close(start)
	wg.Wait()
	st := cache.Stats()
	if builds.Load() != keys || st.Misses != keys || st.Entries != keys || st.Hits != (callers-1)*keys {
		t.Errorf("%d builds, stats %+v: want %d builds, misses and entries, %d hits", builds.Load(), st, keys, (callers-1)*keys)
	}
	for c := range got {
		for idx, pm := range got[c] {
			if pm != got[0][idx] || (pm == nil) != (idx == zeroKey) {
				t.Errorf("caller %d key %d: %p, caller 0 has %p", c, idx, pm, got[0][idx])
			}
		}
	}

	// The first build of a key fails: that caller alone sees the error,
	// one of the others builds it again, everyone else shares that.
	cache, boom := NewPlainCache(0), errors.New("boom")
	builds.Store(0)
	var failed atomic.Int64
	shared := make([]*ring.Poly, callers)
	start = make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			pm, err := cache.getOrBuild("op", 0, 0, func() (*ring.Poly, error) {
				runtime.Gosched()
				if builds.Add(1) == 1 {
					return nil, boom
				}
				return k.ev.PrepareMul(pt).NTT, nil
			})
			if err != nil {
				failed.Add(1)
			}
			shared[c] = pm
		}(c)
	}
	close(start)
	wg.Wait()
	st = cache.Stats()
	if failed.Load() != 1 || builds.Load() != 2 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("%d callers failed, %d builds, stats %+v: want 1 failure, 2 builds, 2 misses, 1 entry", failed.Load(), builds.Load(), st)
	}
	var one *ring.Poly
	for c, pm := range shared {
		if pm == nil {
			continue // the caller whose build failed
		}
		if one == nil {
			one = pm
		}
		if pm != one {
			t.Errorf("caller %d holds its own plaintext after the failed build", c)
		}
	}

	// A panicking build takes its entry with it.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the build's panic did not reach its caller")
			}
		}()
		_, _ = cache.getOrBuild("op", 0, 1, func() (*ring.Poly, error) { panic("kernel") })
	}()
	if pm, err := cache.getOrBuild("op", 0, 1, func() (*ring.Poly, error) { return k.ev.PrepareMul(pt).NTT, nil }); err != nil || pm == nil {
		t.Errorf("after a panicked build: pm=%v err=%v", pm, err)
	}
	if st := cache.Stats(); st.Entries != 2 {
		t.Errorf("after a panicked build and its retry: %+v, want 2 entries", st)
	}
}
