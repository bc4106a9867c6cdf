package pagerank

import (
	"fmt"

	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/protocol"
)

// CKKSRunner executes client-aided encrypted PageRank under CKKS: one
// matrix-vector product (diagonal method over a replicated packing)
// per iteration, one rescale per iteration, so the level chain bounds
// the encrypted set size — CKKS's analogue of BFV's plaintext-modulus
// bound, and the reason Fig 13's CKKS curves reach the same set sizes
// with smaller parameters.
type CKKSRunner struct {
	Graph *Graph

	ctx *ckks.Context
	enc *ckks.SymmetricEncryptor
	dec *ckks.Decryptor
	ecd *ckks.Encoder
	ev  *ckks.Evaluator
	p   int // padded dimension
}

// NewCKKSRunner compiles the graph against the parameter set.
func NewCKKSRunner(g *Graph, params ckks.Parameters, seed [32]byte) (*CKKSRunner, error) {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	p := 1
	for p < g.N {
		p <<= 1
	}
	if p > ctx.Params.Slots() {
		return nil, fmt.Errorf("pagerank: %d nodes exceed %d slots", g.N, ctx.Params.Slots())
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	relin := kg.GenRelinearizationKey(sk)
	steps := make([]int, 0, p-1)
	for d := 1; d < p; d++ {
		steps = append(steps, d)
	}
	galois := kg.GenRotationKeys(sk, steps...)
	return &CKKSRunner{
		Graph: g,
		ctx:   ctx,
		enc:   ckks.NewSymmetricEncryptor(ctx, sk, seed),
		dec:   ckks.NewDecryptor(ctx, sk),
		ecd:   ckks.NewEncoder(ctx),
		ev:    ckks.NewEvaluator(ctx, relin, galois),
		p:     p,
	}, nil
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

// diag returns diagonal d of the padded matrix, replicated.
func (r *CKKSRunner) diag(d int) []float64 {
	v := make([]float64, r.p)
	for j := 0; j < r.p; j++ {
		i := (j + d) % r.p
		if j < r.Graph.N && i < r.Graph.N {
			v[j] = r.Graph.G[j][i]
		}
	}
	return r.replicate(v)
}

// iterate applies one encrypted PageRank iteration (diagonal-method
// matrix-vector product plus rescale).
func (r *CKKSRunner) iterate(ct *ckks.Ciphertext, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	scale := r.ctx.Params.DefaultScale()
	var acc *ckks.Ciphertext
	for d := 0; d < r.p; d++ {
		dv := r.diag(d)
		allZero := true
		for _, x := range dv {
			if x != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			continue
		}
		x := ct
		if d != 0 {
			rot, err := r.ev.RotateLeft(ct, d)
			if err != nil {
				return nil, err
			}
			ops.Rotations++
			x = rot
		}
		pt, err := r.ecd.EncodeFloats(dv, x.Level, scale)
		if err != nil {
			return nil, err
		}
		term, err := r.ev.MulPlain(x, pt)
		if err != nil {
			return nil, err
		}
		ops.PlainMults++
		if acc == nil {
			acc = term
		} else {
			acc, err = r.ev.Add(acc, term)
			if err != nil {
				return nil, err
			}
			ops.Adds++
		}
	}
	return r.ev.Rescale(acc)
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
