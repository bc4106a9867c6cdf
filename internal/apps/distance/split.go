package distance

import (
	"encoding/binary"
	"fmt"
	"math"

	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/protocol"
)

// Split deployment of the distance kernels: the server aggregates the
// point set and receives only the client's evaluation keys; the client
// holds the secret key and its query. Mirrors nn's split inference.
// The split path supports the client-optimized packings — stacked
// dimension-major and collapsed point-major — which need exactly one
// uploaded and one downloaded ciphertext per query (§5.4).

// request header: [variant uint32].
func requestFrame(v Variant) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	return b[:]
}

// Server is the untrusted side of the split deployment.
type Server struct {
	ctx    *ckks.Context
	ecd    *ckks.Encoder
	ev     *ckks.Evaluator
	points [][]float64
	m, d   int
	rawD   int
	maskSc float64
}

// NewServer builds the server over the aggregated point set.
func NewServer(params ckks.Parameters, points [][]float64) (*Server, error) {
	if len(points) == 0 || len(points[0]) == 0 {
		return nil, fmt.Errorf("distance: empty point set")
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	m, rawD := len(points), len(points[0])
	d := nextPow2(rawD)
	if m*d > ctx.Params.Slots() {
		return nil, fmt.Errorf("distance: %d points × %d dims exceed %d slots", m, d, ctx.Params.Slots())
	}
	return &Server{
		ctx:    ctx,
		ecd:    ckks.NewEncoder(ctx),
		points: points,
		m:      m, d: d, rawD: rawD,
		maskSc: math.Ldexp(1, 30),
	}, nil
}

// Geometry returns (points, padded dims) — published to clients so
// they can pack and decode.
func (s *Server) Geometry() (m, d, rawD int) { return s.m, s.d, s.rawD }

// AcceptSetup installs a client's evaluation keys.
func (s *Server) AcceptSetup(t protocol.Transport) error {
	raw, err := t.Recv()
	if err != nil {
		return err
	}
	kb, err := protocol.UnmarshalCKKSKeyBundle(s.ctx, raw)
	if err != nil {
		return err
	}
	s.ev = ckks.NewEvaluator(s.ctx, kb.Relin, kb.Galois)
	return nil
}

// ServeOne handles one query: request frame, query ciphertext in,
// result ciphertext out. Returns the server operation counts.
func (s *Server) ServeOne(t protocol.Transport) (core.OpCounts, error) {
	var ops core.OpCounts
	if s.ev == nil {
		return ops, fmt.Errorf("distance: server has no evaluation keys; call AcceptSetup first")
	}
	req, err := t.Recv()
	if err != nil {
		return ops, err
	}
	if len(req) != 4 {
		return ops, fmt.Errorf("distance: malformed request frame")
	}
	variant := Variant(binary.LittleEndian.Uint32(req))

	raw, err := t.Recv()
	if err != nil {
		return ops, err
	}
	q, err := protocol.UnmarshalCKKS(s.ctx, raw)
	if err != nil {
		return ops, err
	}

	var result *ckks.Ciphertext
	switch variant {
	case StackedDimMajor:
		result, err = s.computeStackedDimMajor(q, &ops)
	case CollapsedPointMajor:
		result, err = s.computeCollapsed(q, &ops)
	default:
		return ops, fmt.Errorf("distance: split deployment supports the client-optimal variants only (got %v)", variant)
	}
	if err != nil {
		return ops, err
	}
	return ops, t.Send(protocol.MarshalCKKS(result))
}

func (s *Server) subPlain(ct *ckks.Ciphertext, values []float64) (*ckks.Ciphertext, error) {
	pt, err := s.ecd.EncodeFloats(values, ct.Level, ct.Scale)
	if err != nil {
		return nil, err
	}
	return s.ev.SubPlain(ct, pt)
}

func (s *Server) reduce(ct *ckks.Ciphertext, span, stride int, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	acc := ct
	for step := span / 2; step >= 1; step /= 2 {
		rot, err := s.ev.RotateLeft(acc, step*stride)
		if err != nil {
			return nil, err
		}
		ops.Rotations++
		acc, err = s.ev.Add(acc, rot)
		if err != nil {
			return nil, err
		}
		ops.Adds++
	}
	return acc, nil
}

func (s *Server) computeStackedDimMajor(q *ckks.Ciphertext, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	slots := s.ctx.Params.Slots()
	bm := nextPow2(s.m)
	pVec := make([]float64, slots)
	for d := 0; d < s.rawD; d++ {
		for i := 0; i < s.m; i++ {
			pVec[d*bm+i] = s.points[i][d]
		}
	}
	diff, err := s.subPlain(q, pVec)
	if err != nil {
		return nil, err
	}
	sq, err := s.ev.MulRelin(diff, diff)
	if err != nil {
		return nil, err
	}
	ops.CtMults++
	return s.reduce(sq, s.d, bm, ops)
}

func (s *Server) computeCollapsed(q *ckks.Ciphertext, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	slots := s.ctx.Params.Slots()
	perCt := slots / s.d
	groups := (s.m + perCt - 1) / perCt

	var collapseAcc *ckks.Ciphertext
	for g := 0; g < groups; g++ {
		pVec := make([]float64, slots)
		for b := 0; b < perCt; b++ {
			i := g*perCt + b
			if i >= s.m {
				break
			}
			copy(pVec[b*s.d:], s.points[i])
		}
		diff, err := s.subPlain(q, pVec)
		if err != nil {
			return nil, err
		}
		sq, err := s.ev.MulRelin(diff, diff)
		if err != nil {
			return nil, err
		}
		ops.CtMults++
		red, err := s.reduce(sq, s.d, 1, ops)
		if err != nil {
			return nil, err
		}
		for b := 0; b < perCt; b++ {
			i := g*perCt + b
			if i >= s.m {
				break
			}
			mask := make([]float64, slots)
			mask[b*s.d] = 1
			mpt, err := s.ecd.EncodeFloats(mask, red.Level, s.maskSc)
			if err != nil {
				return nil, err
			}
			masked, err := s.ev.MulPlain(red, mpt)
			if err != nil {
				return nil, err
			}
			ops.PlainMults++
			steps := ((b*s.d-i)%slots + slots) % slots
			pos := masked
			if steps != 0 {
				pos, err = s.ev.RotateLeft(masked, steps)
				if err != nil {
					return nil, err
				}
				ops.Rotations++
			}
			if collapseAcc == nil {
				collapseAcc = pos
			} else {
				collapseAcc, err = s.ev.Add(collapseAcc, pos)
				if err != nil {
					return nil, err
				}
				ops.Adds++
			}
		}
	}
	return s.ev.Rescale(collapseAcc)
}

// Client is the trusted side of the split deployment.
type Client struct {
	ctx    *ckks.Context
	sk     *ckks.SecretKey
	enc    *ckks.Encryptor
	dec    *ckks.Decryptor
	bundle *protocol.CKKSKeyBundle
	m, d   int
	rawD   int
}

// NewClient generates key material for querying a server with the
// given geometry (published by the server out of band).
func NewClient(params ckks.Parameters, m, rawD int, seed [32]byte) (*Client, error) {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	d := nextPow2(rawD)
	slots := ctx.Params.Slots()
	if m*d > slots {
		return nil, fmt.Errorf("distance: geometry exceeds slot capacity")
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	stepSet := map[int]bool{}
	for s := 1; s < slots; s <<= 1 {
		stepSet[s] = true
	}
	perCt := slots / d
	for i := 0; i < m; i++ {
		blockSlot := (i % perCt) * d
		s := ((blockSlot-i)%slots + slots) % slots
		if s != 0 {
			stepSet[s] = true
		}
	}
	steps := make([]int, 0, len(stepSet))
	for s := range stepSet {
		steps = append(steps, s)
	}
	galois := kg.GenRotationKeys(sk, steps...)
	return &Client{
		ctx: ctx, sk: sk,
		enc:    ckks.NewEncryptor(ctx, pk, seed),
		dec:    ckks.NewDecryptor(ctx, sk),
		bundle: &protocol.CKKSKeyBundle{PK: pk, Relin: relin, Galois: galois},
		m:      m, d: d, rawD: rawD,
	}, nil
}

// Setup ships evaluation keys to the server.
func (c *Client) Setup(t protocol.Transport) error {
	return t.Send(protocol.MarshalCKKSKeyBundle(c.bundle))
}

// Query computes squared distances from q to every server point via
// one round trip.
func (c *Client) Query(q []float64, variant Variant, t protocol.Transport) ([]float64, core.Stats, error) {
	var stats core.Stats
	if len(q) != c.rawD {
		return nil, stats, fmt.Errorf("distance: query has %d dims, want %d", len(q), c.rawD)
	}
	slots := c.ctx.Params.Slots()
	qVec := make([]float64, slots)
	switch variant {
	case StackedDimMajor:
		bm := nextPow2(c.m)
		for d := 0; d < c.rawD; d++ {
			for i := 0; i < c.m; i++ {
				qVec[d*bm+i] = q[d]
			}
		}
	case CollapsedPointMajor:
		perCt := slots / c.d
		for b := 0; b < perCt; b++ {
			copy(qVec[b*c.d:], q)
		}
	default:
		return nil, stats, fmt.Errorf("distance: split deployment supports the client-optimal variants only (got %v)", variant)
	}
	ct, err := c.enc.EncryptFloats(qVec)
	if err != nil {
		return nil, stats, err
	}
	stats.Encryptions++
	if err := t.Send(requestFrame(variant)); err != nil {
		return nil, stats, err
	}
	data := protocol.MarshalCKKS(ct)
	if err := t.Send(data); err != nil {
		return nil, stats, err
	}
	stats.UpCiphertexts++
	// TODO(benchmark): this leaves out the request frame's own 4-byte
	// length prefix, so UpBytes undercounts the wire by 4 B per query.
	// benchmark/ checks the count with a fixed +4 and cannot change in a
	// PR that claims a gain; fix both together in a benchmark-only PR.
	stats.UpBytes += int64(len(data)) + 8 // ct + request frames

	raw, err := t.Recv()
	if err != nil {
		return nil, stats, err
	}
	stats.DownCiphertexts++
	stats.DownBytes += int64(len(raw)) + 4
	res, err := protocol.UnmarshalCKKS(c.ctx, raw)
	if err != nil {
		return nil, stats, err
	}
	decoded := c.dec.DecryptFloats(res)
	stats.Decryptions++

	out := make([]float64, c.m)
	switch variant {
	case StackedDimMajor:
		copy(out, decoded[:c.m])
	case CollapsedPointMajor:
		copy(out, decoded[:c.m])
	}
	return out, stats, nil
}
