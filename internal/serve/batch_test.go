package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/sampling"
)

// TestBatchExecutorCoalesces drives the gather protocol directly and
// deterministically: three sessions submit the same FC layer into an
// executor with depth 3, so the round fills exactly when the third
// item lands (no window timing involved) and all three coalesce into
// one ApplyBatch round. Every output must be byte-identical to the
// session's serial Apply result.
func TestBatchExecutorCoalesces(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	const in, out = 16, 8
	src := sampling.NewSource([32]byte{31}, "serve-batch")
	w := make([][]int64, out)
	for r := range w {
		w[r] = make([]int64, in)
		for c := range w[r] {
			w[r][c] = int64(src.Intn(9)) - 4
		}
	}
	fc, err := core.NewFC(in, out, w, ctx.Params.N()/2)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 3
	ecd := bfv.NewEncoder(ctx)
	slots := ctx.Params.Slots()
	evs := make([]*bfv.Evaluator, sessions)
	cts := make([]*bfv.Ciphertext, sessions)
	serial := make([]*bfv.Ciphertext, sessions)
	for i := 0; i < sessions; i++ {
		kg := bfv.NewKeyGenerator(ctx, [32]byte{70 + byte(i)})
		sk := kg.GenSecretKey()
		evs[i] = bfv.NewEvaluator(ctx, kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, fc.RotationSteps()...))
		enc := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{80 + byte(i)})
		vec := make([]int64, slots)
		for j := 0; j < in; j++ {
			vec[j] = int64(src.Intn(15)) - 7
		}
		cts[i], err = enc.EncryptInts(vec)
		if err != nil {
			t.Fatal(err)
		}
		serial[i], _, err = fc.Apply(evs[i], ecd, cts[i], slots)
		if err != nil {
			t.Fatal(err)
		}
	}

	// A window long enough that only the depth trigger can fire the
	// round: if the three submissions failed to coalesce, the test would
	// hang on the window rather than silently pass unbatched.
	x := newBatchExecutor(ecd, sessions, 10*time.Second, 0)
	got := make([]*bfv.Ciphertext, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ct, _, err := x.ExecFC(0, fc, evs[i], cts[i], slots)
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			got[i] = ct
		}(i)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if got[i] == nil {
			continue
		}
		if len(got[i].Value) != len(serial[i].Value) || got[i].Drop != serial[i].Drop {
			t.Fatalf("session %d: batched output shape differs from serial", i)
		}
		for p := range got[i].Value {
			if !ctx.RingQ.Equal(got[i].Value[p], serial[i].Value[p]) {
				t.Errorf("session %d: batched output poly %d differs from serial Apply", i, p)
			}
		}
	}
	st := x.stats()
	if st.Rounds != 1 || st.Items != sessions || st.CoalescedItems != sessions {
		t.Errorf("executor stats %+v: want 1 round, %d items, all coalesced", st, sessions)
	}
	if st.PlainCache.Entries == 0 {
		t.Error("shared plaintext cache stayed empty")
	}

	// A second round over the same layer runs entirely off the warm
	// cache: zero new entries, all weight plaintexts served as hits.
	// (Again depth-triggered, so the long window never runs.)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := x.ExecFC(0, fc, evs[i], cts[i], slots); err != nil {
				t.Errorf("warm round session %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	warm := x.stats()
	if warm.PlainCache.Hits == st.PlainCache.Hits {
		t.Error("warm round recorded no cache hits")
	}
	if warm.PlainCache.Entries != st.PlainCache.Entries {
		t.Error("warm round grew the cache")
	}
}

// TestBatchExecutorSoloBypass pins the idle-shard latency guarantee:
// with the solo hook reporting at most one active session, a submitted
// item must execute immediately as a one-item round — not wait out the
// gather window (10s here, so a regression hangs visibly) — and still
// run through ApplyBatch with the shared cache, byte-identical to
// serial Apply.
func TestBatchExecutorSoloBypass(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	const in, out = 16, 8
	src := sampling.NewSource([32]byte{33}, "serve-batch-solo")
	w := make([][]int64, out)
	for r := range w {
		w[r] = make([]int64, in)
		for c := range w[r] {
			w[r][c] = int64(src.Intn(9)) - 4
		}
	}
	fc, err := core.NewFC(in, out, w, ctx.Params.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	ecd := bfv.NewEncoder(ctx)
	slots := ctx.Params.Slots()
	kg := bfv.NewKeyGenerator(ctx, [32]byte{75})
	sk := kg.GenSecretKey()
	ev := bfv.NewEvaluator(ctx, kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, fc.RotationSteps()...))
	enc := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{85})
	vec := make([]int64, slots)
	for j := 0; j < in; j++ {
		vec[j] = int64(src.Intn(15)) - 7
	}
	ct, err := enc.EncryptInts(vec)
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := fc.Apply(ev, ecd, ct, slots)
	if err != nil {
		t.Fatal(err)
	}

	x := newBatchExecutor(ecd, 3, 10*time.Second, 0)
	x.solo = func() bool { return true }
	start := time.Now()
	got, _, err := x.ExecFC(0, fc, ev, ct, slots)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("solo submit took %v: waited out the gather window", elapsed)
	}
	for p := range got.Value {
		if !ctx.RingQ.Equal(got.Value[p], serial.Value[p]) {
			t.Fatalf("solo bypass output poly %d differs from serial Apply", p)
		}
	}
	st := x.stats()
	if st.Rounds != 1 || st.Items != 1 || st.CoalescedItems != 0 {
		t.Errorf("executor stats %+v: want one uncoalesced one-item round", st)
	}
	if st.PlainCache.Entries == 0 {
		t.Error("solo bypass skipped the shared plaintext cache")
	}
}

// TestBatchExecutorRescue poisons a two-item conv round with a session
// that lacks one rotation key. The round's ApplyBatch fails as a whole;
// the leader must replay both items as batches of one, so the healthy
// session gets its byte-exact result, only the guilty one fails, and
// the replay fills the executor's own plaintext cache rather than a
// second copy behind the operator's Apply.
func TestBatchExecutorRescue(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	spec := core.ConvSpec{InH: 14, InW: 14, InC: 2, KH: 3, KW: 3, OutC: 3}
	src := sampling.NewSource([32]byte{35}, "serve-batch-rescue")
	weights := make([][][]int64, spec.OutC)
	for o := range weights {
		weights[o] = make([][]int64, spec.InC)
		for c := range weights[o] {
			weights[o][c] = make([]int64, spec.KH*spec.KW)
			for k := range weights[o][c] {
				weights[o][c][k] = int64(src.Intn(7)) - 3
			}
		}
	}
	conv, err := core.NewConv2D(spec, weights, ctx.Params.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	ecd := bfv.NewEncoder(ctx)
	slots := ctx.Params.Slots()
	steps := conv.RotationSteps()
	evs := make([]*bfv.Evaluator, 2)
	cts := make([]*bfv.Ciphertext, 2)
	// The second session lacks a kernel-offset (baby) key, so its rounds
	// stop at the input rotations, before any plaintext is prepared.
	for i, keyed := range [][]int{steps, steps[1:]} {
		kg := bfv.NewKeyGenerator(ctx, [32]byte{90 + byte(i)})
		sk := kg.GenSecretKey()
		evs[i] = bfv.NewEvaluator(ctx, nil, kg.GenRotationKeys(sk, keyed...))
		image := make([][]int64, spec.InC)
		for c := range image {
			image[c] = make([]int64, spec.InH*spec.InW)
			for j := range image[c] {
				image[c][j] = int64(src.Intn(15)) - 7
			}
		}
		packed, err := conv.PackInput(image, slots)
		if err != nil {
			t.Fatal(err)
		}
		enc := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{95 + byte(i)})
		if cts[i], err = enc.EncryptInts(packed); err != nil {
			t.Fatal(err)
		}
	}
	want, wantOps, err := conv.Apply(evs[0], ecd, cts[0], slots)
	if err != nil {
		t.Fatal(err)
	}

	x := newBatchExecutor(ecd, 2, 10*time.Second, 0) // depth-triggered, as above
	outs := make([][]*bfv.Ciphertext, 2)
	ops := make([]core.OpCounts, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range evs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], ops[i], errs[i] = x.ExecConv(0, conv, evs[i], cts[i], slots)
		}(i)
	}
	wg.Wait()

	if errs[0] != nil {
		t.Fatalf("healthy session failed with its batch-mate: %v", errs[0])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "missing Galois key") {
		t.Fatalf("session without a rotation key: err = %v", errs[1])
	}
	if ops[0] != wantOps || len(outs[0]) != len(want) {
		t.Fatalf("rescued session: ops %+v, %d groups; serial %+v, %d groups", ops[0], len(outs[0]), wantOps, len(want))
	}
	for g := range want {
		for p := range want[g].Value {
			if !ctx.RingQ.Equal(outs[0][g].Value[p], want[g].Value[p]) {
				t.Errorf("rescued session group %d poly %d differs from serial Apply", g, p)
			}
		}
	}
	st := x.stats()
	if st.Rounds != 1 || st.SerialRescues != 2 {
		t.Errorf("executor stats %+v: want one round with both items rescued", st)
	}
	// The failed round and the guilty replay stop at the rotations; the
	// healthy replay is what fills the executor's cache, once.
	if pc := st.PlainCache; pc.Entries == 0 || int64(pc.Entries) != pc.Misses {
		t.Errorf("the rescue did not fill the executor's plaintext cache exactly once: %+v", pc)
	}
}

// TestBatchedConcurrentSessionsExactLogits runs three concurrent
// end-to-end sessions through a batching server and verifies every
// logit against the plaintext reference — the serial path's oracle —
// so batched execution is exact across sessions regardless of how the
// gather windows happened to slice the work.
func TestBatchedConcurrentSessionsExactLogits(t *testing.T) {
	backend, model := testBackend(t, testNetwork)
	srv := New(backend, Config{
		MaxSessions: 4,
		BatchDepth:  3,
		BatchWindow: 20 * time.Millisecond,
	})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClientSession(t, srv, testNetwork, model, byte(90+i), "batch-"+string(rune('a'+i)), 2)
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if !st.Batching.Enabled || st.Batching.Items == 0 {
		t.Errorf("batching executor saw no work: %+v", st.Batching)
	}
	if st.Batching.SerialRescues != 0 {
		t.Errorf("%d serial rescues on healthy sessions", st.Batching.SerialRescues)
	}
	if st.Batching.PlainCache.Hits == 0 {
		t.Error("no cross-request plaintext cache hits across 6 inferences")
	}
}

// TestTenantQuotaBusyAck pins quota admission: with a one-session
// tenant quota, the tenant's second concurrent session is rejected
// with a busy ack carrying the configured retry-after hint, a
// different tenant is admitted untouched, and the slot frees on
// session close.
func TestTenantQuotaBusyAck(t *testing.T) {
	backend, model := testBackend(t, tinyNetwork)
	const retry = 123 * time.Millisecond
	srv := New(backend, Config{
		MaxSessions:       4,
		TenantMaxSessions: 1,
		RetryAfter:        retry,
	})

	open := func(keySeed byte, sessionID, tenant string) (*protocol.Pipe, chan error, error) {
		client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{keySeed})
		if err != nil {
			t.Fatal(err)
		}
		clientEnd, serverEnd := protocol.NewPipe()
		done := make(chan error, 1)
		go func() { done <- srv.ServeTransport(context.Background(), serverEnd) }()
		_, err = client.SetupSessionTenant(clientEnd, sessionID, tenant)
		return clientEnd, done, err
	}

	// Tenant acme fills its quota with one open session.
	connA, doneA, err := open(51, "quota-a", "acme")
	if err != nil {
		t.Fatalf("first acme session: %v", err)
	}

	// Its second session is rejected with the retry-after hint…
	connB, doneB, err := open(52, "quota-b", "acme")
	if !errors.Is(err, nn.ErrServerBusy) {
		t.Fatalf("over-quota session error = %v, want ErrServerBusy", err)
	}
	var busy *nn.BusyError
	if !errors.As(err, &busy) || busy.RetryAfter != retry {
		t.Fatalf("over-quota error %v, want BusyError with retry-after %v", err, retry)
	}
	connB.Close()
	<-doneB

	// …while another tenant is admitted and completes an inference.
	runClientSessionTenant(t, srv, model, 53, "quota-c", "globex")

	// Closing acme's session frees its quota slot.
	connA.Close()
	<-doneA
	runClientSessionTenant(t, srv, model, 51, "quota-a", "acme")

	var acme, globex TenantStats
	for _, ts := range srv.Stats().Tenants {
		switch ts.Tenant {
		case "acme":
			acme = ts
		case "globex":
			globex = ts
		}
	}
	if acme.SessionsTotal != 2 || acme.SessionsRejected != 1 || acme.ActiveSessions != 0 {
		t.Errorf("acme stats %+v: want 2 admitted, 1 rejected, 0 active", acme)
	}
	if globex.SessionsTotal != 1 || globex.SessionsRejected != 0 || globex.Inferences != 1 {
		t.Errorf("globex stats %+v: want 1 admitted, 0 rejected, 1 inference", globex)
	}
	if acme.BytesUp == 0 {
		t.Error("acme traffic not folded into tenant stats")
	}
}

// runClientSessionTenant opens a tenant-tagged session, runs one
// verified inference, and closes it.
func runClientSessionTenant(t *testing.T, srv *Server, model *nn.QuantizedModel, keySeed byte, sessionID, tenant string) {
	t.Helper()
	client, err := nn.NewInferenceClient(tinyNetwork(), [32]byte{keySeed})
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeTransport(context.Background(), serverEnd) }()
	if _, err := client.SetupSessionTenant(clientEnd, sessionID, tenant); err != nil {
		t.Fatalf("session %s (tenant %s): %v", sessionID, tenant, err)
	}
	img := nn.SynthesizeImage(tinyNetwork(), 4, [32]byte{keySeed, 1})
	want, err := nn.PlainInference(model, img)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := client.Infer(img, clientEnd)
	if err != nil {
		t.Fatalf("inference: %v", err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("logit %d: got %d want %d", j, got[j], want[j])
		}
	}
	clientEnd.Close()
	if err := <-done; err != nil {
		t.Fatalf("server session: %v", err)
	}
}

// TestEvictedKeysReplicateFromPeer pins the interaction between the
// registry byte budget and fabric replication: when the byte budget
// evicts a session's keys, a reconnect carrying a replication hint
// re-fetches the bundle from the previous owner — counted as a
// replication, never as a client upload.
func TestEvictedKeysReplicateFromPeer(t *testing.T) {
	backend, model := testBackend(t, tinyNetwork)
	srvA := New(backend, Config{MaxSessions: 1})
	runClientSession(t, srvA, tinyNetwork, model, 57, "evict-1", 1)

	bundle, ok := srvA.LookupKeyFrame("evict-1")
	if !ok {
		t.Fatal("owner shard lost the uploaded bundle")
	}
	// A byte budget that holds exactly one bundle: every store evicts
	// the previous tenant of the cache.
	srvB := New(backend, Config{
		MaxSessions:   1,
		KeyCacheBytes: int64(len(bundle)),
		FetchKeys: func(id, peer string) ([]byte, error) {
			raw, ok := srvA.LookupKeyFrame(id)
			if !ok {
				return nil, errors.New("peer miss")
			}
			return raw, nil
		},
	})

	openShard := func(sessionID string) {
		t.Helper()
		clientEnd, serverEnd := protocol.NewPipe()
		done := make(chan error, 1)
		go func() { done <- srvB.ServeTransport(context.Background(), serverEnd) }()
		hello, err := protocol.MarshalShardHello(sessionID, "peer-a")
		if err != nil {
			t.Fatal(err)
		}
		if err := clientEnd.Send(hello); err != nil {
			t.Fatal(err)
		}
		raw, err := clientEnd.Recv()
		if err != nil {
			t.Fatal(err)
		}
		st, err := protocol.UnmarshalHelloAck(raw)
		if err != nil {
			t.Fatal(err)
		}
		if st != protocol.AckKeysCached {
			t.Fatalf("session %s acked %d, want AckKeysCached (client must not re-upload)", sessionID, st)
		}
		clientEnd.Close()
		if err := <-done; err != nil {
			t.Fatalf("server session: %v", err)
		}
	}

	// First visit replicates evict-1 from the peer.
	openShard("evict-1")
	// A second session's store blows the byte budget and evicts evict-1…
	runClientSession(t, srvB, tinyNetwork, model, 58, "evict-2", 1)
	if _, ok := srvB.LookupKeyFrame("evict-1"); ok {
		t.Fatal("evict-1 survived a byte budget sized for one bundle")
	}
	// …so its reconnect must replicate again rather than ask the client.
	openShard("evict-1")

	st := srvB.Stats()
	if st.KeyReplications != 2 {
		t.Errorf("KeyReplications = %d, want 2 (initial + post-eviction re-fetch)", st.KeyReplications)
	}
	if st.KeyCacheEvictions == 0 {
		t.Error("byte budget recorded no evictions")
	}
	// The uploads: exactly one, from evict-2's own client. evict-1 was
	// admitted twice without ever re-uploading.
	if st.KeyCacheMisses != 1 {
		t.Errorf("KeyCacheMisses = %d, want 1 (only evict-2's upload)", st.KeyCacheMisses)
	}
}

// TestBatchExecutorContainsKernelPanic coalesces a healthy FC item with
// one whose evaluator is nil, so the kernels panic mid-round on the
// leader's goroutine — whichever session that is. The panic must come
// back as the guilty item's error, with the stack; the healthy item is
// replayed to its byte-exact result, and nobody is left waiting.
func TestBatchExecutorContainsKernelPanic(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	const in, out = 16, 8
	src := sampling.NewSource([32]byte{36}, "serve-batch-panic")
	w := make([][]int64, out)
	for r := range w {
		w[r] = make([]int64, in)
		for c := range w[r] {
			w[r][c] = int64(src.Intn(9)) - 4
		}
	}
	fc, err := core.NewFC(in, out, w, ctx.Params.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	ecd := bfv.NewEncoder(ctx)
	slots := ctx.Params.Slots()
	kg := bfv.NewKeyGenerator(ctx, [32]byte{75})
	sk := kg.GenSecretKey()
	ev := bfv.NewEvaluator(ctx, nil, kg.GenRotationKeys(sk, fc.RotationSteps()...))
	vec := make([]int64, slots)
	for j := 0; j < in; j++ {
		vec[j] = int64(src.Intn(15)) - 7
	}
	ct, err := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{85}).EncryptInts(vec)
	if err != nil {
		t.Fatal(err)
	}
	want, wantOps, err := fc.Apply(ev, ecd, ct, slots)
	if err != nil {
		t.Fatal(err)
	}

	x := newBatchExecutor(ecd, 2, 10*time.Second, 0) // depth-triggered
	evs := []*bfv.Evaluator{ev, nil}
	outs := make([]*bfv.Ciphertext, 2)
	ops := make([]core.OpCounts, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range evs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], ops[i], errs[i] = x.ExecFC(0, fc, evs[i], ct, slots)
		}(i)
	}
	wg.Wait()

	if errs[0] != nil {
		t.Fatalf("healthy session failed with its batch-mate's panic: %v", errs[0])
	}
	var pe *panicError
	if !errors.As(errs[1], &pe) || len(pe.stack) == 0 {
		t.Fatalf("session with a nil evaluator: err = %v, want a recovered panic with its stack", errs[1])
	}
	if ops[0] != wantOps {
		t.Errorf("rescued session ops %+v, serial %+v", ops[0], wantOps)
	}
	for p := range want.Value {
		if !ctx.RingQ.Equal(outs[0].Value[p], want.Value[p]) {
			t.Errorf("rescued session poly %d differs from serial Apply", p)
		}
	}
	if st := x.stats(); st.Rounds != 1 || st.SerialRescues != 2 {
		t.Errorf("executor stats %+v: want one round with both items replayed", st)
	}
}
