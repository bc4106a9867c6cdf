package pagerank

import (
	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/protocol"
)

// BFVRunner executes client-aided encrypted PageRank under BFV: the
// rank vector is quantized to 2^rankBits fixed point, the matrix to
// 2^matBits, and each encrypted iteration is one BSGS matrix-vector
// product whose fixed-point scale grows by matBits — bounding how many
// iterations fit in the plaintext modulus before the client must
// refresh (exactly the tradeoff Fig 13 sweeps).
type BFVRunner struct {
	Graph    *Graph
	RankBits uint
	MatBits  uint

	ctx *bfv.Context
	enc *bfv.SymmetricEncryptor
	dec *bfv.Decryptor
	ecd *bfv.Encoder
	ev  *bfv.Evaluator
	fc  *core.FC
}

// NewBFVRunner compiles the graph against the parameter set.
func NewBFVRunner(g *Graph, params bfv.Parameters, rankBits, matBits uint, seed [32]byte) (*BFVRunner, error) {
	ctx, err := bfv.NewContext(params)
	if err != nil {
		return nil, err
	}
	scale := int64(1) << matBits
	w := make([][]int64, g.N)
	for i := range w {
		w[i] = make([]int64, g.N)
		for j := range w[i] {
			w[i][j] = int64(g.G[i][j]*float64(scale) + 0.5)
		}
	}
	fc, err := core.NewFC(g.N, g.N, w, ctx.Params.N()/2)
	if err != nil {
		return nil, err
	}
	// The product is linear: the evaluator gets Galois keys and no
	// relinearization key, and refuses Relinearize.
	kg := bfv.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	galois := kg.GenRotationKeys(sk, fc.RotationSteps()...)
	return &BFVRunner{
		Graph: g, RankBits: rankBits, MatBits: matBits,
		ctx: ctx,
		enc: bfv.NewSymmetricEncryptor(ctx, sk, seed),
		dec: bfv.NewDecryptor(ctx, sk),
		ecd: bfv.NewEncoder(ctx),
		ev:  bfv.NewEvaluator(ctx, nil, galois),
		fc:  fc,
	}, nil
}

// MaxSetSize returns how many consecutive encrypted iterations the
// plaintext modulus accommodates: values reach scale
// 2^(rankBits + s·matBits) and must stay under t/2.
func (r *BFVRunner) MaxSetSize() int {
	tBits := uint(r.ctx.T.BitLen())
	s := 0
	for r.RankBits+uint(s+1)*r.MatBits < tBits-1 {
		s++
	}
	return s
}

// Run executes totalIters iterations in encrypted sets of setSize with
// a client refresh between sets, streaming ciphertexts through the
// transports. Returns the final normalized ranks and the client stats.
func (r *BFVRunner) Run(totalIters, setSize int, clientEnd, serverEnd protocol.Transport) ([]float64, core.Stats, error) {
	return run(r, r.Graph.N, totalIters, setSize, r.MaxSetSize(), "plaintext capacity", clientEnd, serverEnd)
}

// upload quantizes the rank vector, packs it replicated and encrypts it
// under the client's secret key, seeded: half a public-key frame.
func (r *BFVRunner) upload(rank []float64) ([]byte, error) {
	q := make([]int64, len(rank))
	for i := range q {
		q[i] = int64(rank[i]*float64(int64(1)<<r.RankBits) + 0.5)
	}
	packed, err := r.fc.PackInput(q, r.ctx.Params.Slots())
	if err != nil {
		return nil, err
	}
	sct, err := r.enc.EncryptIntsSeeded(packed)
	if err != nil {
		return nil, err
	}
	return protocol.MarshalSeededBFV(sct), nil
}

// iterations runs set consecutive encrypted iterations on an upload. The
// FC output is replicated exactly like its input, so iterations compose.
func (r *BFVRunner) iterations(upload []byte, set int, ops *core.OpCounts) ([]byte, error) {
	ct, err := protocol.UnmarshalAnyBFV(r.ctx, upload)
	if err != nil {
		return nil, err
	}
	for it := 0; it < set; it++ {
		out, o, err := r.fc.Apply(r.ev, r.ecd, ct, r.ctx.Params.Slots())
		if err != nil {
			return nil, err
		}
		ops.Add(o)
		ct = out
	}
	return protocol.MarshalBFV(ct), nil
}

// refresh decrypts a reply set iterations deep and dequantizes it into
// rank.
func (r *BFVRunner) refresh(reply []byte, set int, rank []float64) error {
	ct, err := protocol.UnmarshalBFV(r.ctx, reply)
	if err != nil {
		return err
	}
	decoded := r.dec.DecryptInts(ct)
	scale := float64(int64(1) << (r.RankBits + uint(set)*r.MatBits))
	for i := range rank {
		rank[i] = float64(decoded[i]) / scale
	}
	return nil
}
