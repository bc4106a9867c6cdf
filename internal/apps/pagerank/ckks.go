package pagerank

import (
	"fmt"

	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/protocol"
)

// CKKSRunner executes client-aided encrypted PageRank under CKKS: one
// matrix-vector product per iteration — the diagonal method over a
// replicated packing, run on core's one linear-transform executor on the
// baby-step/giant-step schedule — and one rescale per iteration, so the
// level chain bounds the encrypted set size: CKKS's analogue of BFV's
// plaintext-modulus bound, and the reason Fig 13's CKKS curves reach the
// same set sizes with smaller parameters.
type CKKSRunner struct {
	Graph *Graph

	ctx  *ckks.Context
	enc  *ckks.SymmetricEncryptor
	dec  *ckks.Decryptor
	ecd  *ckks.Encoder
	ev   *ckks.Evaluator
	p    int // padded dimension
	plan core.BSGSPlan[float64]
	// plains keeps each diagonal encoded once per level.
	plains *core.PlainCache
}

// NewCKKSRunner compiles the graph against the parameter set.
func NewCKKSRunner(g *Graph, params ckks.Parameters, seed [32]byte) (*CKKSRunner, error) {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	// The product has a square FC layer's geometry: P and B as it
	// derives them, its dimension bounded by the slot count.
	fc, err := core.NewFCSpecOnly(g.N, g.N, ctx.Params.Slots())
	if err != nil {
		return nil, fmt.Errorf("pagerank: %w", err)
	}
	r := &CKKSRunner{Graph: g, ctx: ctx, ecd: ckks.NewEncoder(ctx), p: fc.P, plains: core.NewPlainCache(0)}
	r.plan = r.bsgs(fc.B)
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	r.enc = ckks.NewSymmetricEncryptor(ctx, sk, seed)
	r.dec = ckks.NewDecryptor(ctx, sk)
	r.ev = ckks.NewEvaluator(ctx, nil, kg.GenRotationKeys(sk, r.plan.RotationSteps()...))
	return r, nil
}

// bsgs lays the matrix-vector product out as core.FC does a square
// layer: babies 0..B−1, giants i·B, and the term of giant i·B and baby j
// diagonal i·B + j pre-rotated by −i·B: slot k holds
// G[(k−i·B) mod P][(k+j) mod P], replicated.
func (r *CKKSRunner) bsgs(b int) core.BSGSPlan[float64] {
	pl := core.BSGSPlan[float64]{Op: r}
	for d := 0; d < r.p; d++ {
		if d < b {
			pl.Babies = append(pl.Babies, d)
		}
		if d%b == 0 {
			pl.Giants = append(pl.Giants, d)
		}
	}
	pl.Diag = func(gi, bi int) []float64 {
		v := make([]float64, r.p)
		for k := range v {
			row, col := (k-pl.Giants[gi]+r.p)%r.p, (k+bi)%r.p
			if row < r.Graph.N && col < r.Graph.N {
				v[k] = r.Graph.G[row][col]
			}
		}
		return r.replicate(v)
	}
	return pl
}

// MaxSetSize returns the encrypted iterations per upload: one level
// per iteration.
func (r *CKKSRunner) MaxSetSize() int { return r.ctx.Params.MaxLevel() }

// replicate packs v (at most P long, zero-padded) P-periodically across
// all slots.
func (r *CKKSRunner) replicate(v []float64) []float64 {
	slots := r.ctx.Params.Slots()
	out := make([]float64, slots)
	for base := 0; base+r.p <= slots; base += r.p {
		copy(out[base:base+r.p], v)
	}
	return out
}

// iterate applies one encrypted PageRank iteration: the matrix-vector
// product at the default scale, then a rescale.
func (r *CKKSRunner) iterate(ct *ckks.Ciphertext, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	out, o, err := core.ApplyCKKS(r.ev, r.ecd, ct, r.plains, r.plan, r.ctx.Params.DefaultScale())
	if err != nil {
		return nil, err
	}
	ops.Add(o)
	return r.ev.Rescale(out)
}

// Run executes totalIters iterations in encrypted sets of setSize with
// client refreshes between sets.
func (r *CKKSRunner) Run(totalIters, setSize int, clientEnd, serverEnd protocol.Transport) ([]float64, core.Stats, error) {
	return run(r, r.Graph.N, totalIters, setSize, r.MaxSetSize(), "level budget", clientEnd, serverEnd)
}

// upload encrypts the rank vector packed P-periodically under the
// client's secret key, seeded: half a public-key frame.
func (r *CKKSRunner) upload(rank []float64) ([]byte, error) {
	sct, err := r.enc.EncryptFloatsSeeded(r.replicate(rank))
	if err != nil {
		return nil, err
	}
	return protocol.MarshalSeededCKKS(sct), nil
}

// iterations runs set consecutive encrypted iterations on an upload, one
// level each.
func (r *CKKSRunner) iterations(upload []byte, set int, ops *core.OpCounts) ([]byte, error) {
	ct, err := protocol.UnmarshalAnyCKKS(r.ctx, upload)
	if err != nil {
		return nil, err
	}
	for it := 0; it < set; it++ {
		if ct, err = r.iterate(ct, ops); err != nil {
			return nil, err
		}
	}
	return protocol.MarshalCKKS(ct), nil
}

// refresh decrypts a reply into rank.
func (r *CKKSRunner) refresh(reply []byte, _ int, rank []float64) error {
	ct, err := protocol.UnmarshalCKKS(r.ctx, reply)
	if err != nil {
		return err
	}
	copy(rank, r.dec.DecryptFloats(ct))
	return nil
}
