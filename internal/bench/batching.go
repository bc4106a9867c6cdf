package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/sampling"
)

// batchingDepth is the gather depth the acceptance criterion names: at
// least four same-preset concurrent sessions coalesced per round.
const batchingDepth = 4

// BatchingBench is one machine-readable record for the cross-request
// batching trajectory (BENCH_batching.json). The serial entry is the
// per-session path — each item through Apply, a batch of one over the
// operator's own warm weight plaintexts; the batched entry is the
// coalesced gather-round kernel with the shared weight-plaintext cache
// warm. Both run the same engine with prepared plaintexts, so Speedup
// (on the batched record; serial/batched per-item time, the number the
// ≥1.2× shard-throughput acceptance criterion is judged by) is what
// fusing the items' work into flat dispatches buys.
type BatchingBench struct {
	Mode      string  `json:"mode"`
	Preset    string  `json:"preset"`
	Depth     int     `json:"depth"`
	NsPerItem int64   `json:"ns_per_item"`
	Speedup   float64 `json:"speedup,omitempty"`
}

// Batching measures the shard-side inference kernel for batchingDepth
// same-preset concurrent sessions two ways: each session's FC matmul
// executed on its own through Apply (the unbatched per-session path,
// warm), and all of them coalesced into one FC.ApplyBatch gather round
// over the shared plaintext cache — exactly the work the serve
// batching executor runs per round. Sessions hold distinct secret keys and
// inputs, as distinct clients landing on one shard do; client encrypt
// and decrypt are excluded because batching does not change them.
func Batching() (string, []BatchingBench, error) {
	// An FC matmul sized so the diagonal multiply-accumulate work the
	// shared plaintext cache amortizes dominates the per-item rotations.
	const inDim, outDim = 64, 64
	src := sampling.NewSource([32]byte{91}, "bench-batching")
	w := make([][]int64, outDim)
	for r := range w {
		w[r] = make([]int64, inDim)
		for c := range w[r] {
			w[r][c] = int64(src.Uint64()%13) - 6
		}
	}

	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		return "", nil, err
	}
	fc, err := core.NewFC(inDim, outDim, w, ctx.Params.N()/2)
	if err != nil {
		return "", nil, err
	}
	slots := ctx.Params.Slots()
	ecd := bfv.NewEncoder(ctx)

	items := make([]core.BatchInput, batchingDepth)
	for i := range items {
		sctx, err := bfv.NewContext(bfv.PresetTest())
		if err != nil {
			return "", nil, err
		}
		kg := bfv.NewKeyGenerator(sctx, [32]byte{92, byte(i)})
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		galois := kg.GenRotationKeys(sk, fc.RotationSteps()...)
		enc := bfv.NewEncryptor(sctx, pk, [32]byte{93, byte(i)})
		x := make([]int64, inDim)
		for j := range x {
			x[j] = int64(src.Uint64()%9) - 4
		}
		packed, err := fc.PackInput(x, slots)
		if err != nil {
			return "", nil, err
		}
		ct, err := enc.EncryptInts(packed)
		if err != nil {
			return "", nil, err
		}
		items[i] = core.BatchInput{Ev: bfv.NewEvaluator(sctx, nil, galois), Ct: ct}
	}

	// Warm both paths: per-key Shoup companions and ring scratch pools
	// for serial, plus the shared plaintext cache for batched, so the
	// measured rounds see the steady state a serving shard runs in.
	cache := core.NewPlainCache(core.DefaultPlainCacheBytes)
	for _, it := range items {
		if _, _, err := fc.Apply(it.Ev, ecd, it.Ct, slots); err != nil {
			return "", nil, err
		}
	}
	if _, _, err := fc.ApplyBatch(ecd, items, slots, cache); err != nil {
		return "", nil, err
	}

	rSerial := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				if _, _, err := fc.Apply(it.Ev, ecd, it.Ct, slots); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	rBatched := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := fc.ApplyBatch(ecd, items, slots, cache); err != nil {
				b.Fatal(err)
			}
		}
	})

	serialPer := rSerial.NsPerOp() / batchingDepth
	batchedPer := rBatched.NsPerOp() / batchingDepth
	speedup := float64(serialPer) / float64(batchedPer)
	recs := []BatchingBench{
		{Mode: "serial", Preset: "bfv-Test", Depth: batchingDepth, NsPerItem: serialPer},
		{Mode: "batched", Preset: "bfv-Test", Depth: batchingDepth, NsPerItem: batchedPer, Speedup: speedup},
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Cross-request batching: %d same-preset sessions, FC %dx%d matmul per inference\n",
		batchingDepth, inDim, outDim)
	fmt.Fprintf(&b, "%-10s %6s %14s\n", "mode", "depth", "ns/item")
	for _, r := range recs {
		fmt.Fprintf(&b, "%-10s %6d %14d\n", r.Mode, r.Depth, r.NsPerItem)
	}
	fmt.Fprintf(&b, "shard throughput speedup (serial/batched): %.2fx\n", speedup)
	st := cache.Stats()
	fmt.Fprintf(&b, "plaintext cache: %d entries, %d hits, %d misses\n", st.Entries, st.Hits, st.Misses)
	return b.String(), recs, nil
}

// BatchingJSON renders the records as the BENCH_batching.json body.
func BatchingJSON(recs []BatchingBench) ([]byte, error) {
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
