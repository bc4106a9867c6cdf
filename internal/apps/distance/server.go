package distance

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/par"
	"choco/internal/protocol"
)

// request header: [variant uint32].
func requestFrame(v Variant) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	return b[:]
}

// Server is the untrusted side: it aggregates the point set and receives
// only a client's evaluation keys. Mirrors nn's split inference.
type Server struct {
	geometry
	ctx    *ckks.Context
	ecd    *ckks.Encoder
	ev     *ckks.Evaluator
	points [][]float64
	// pointPts[v][j] is ciphertext j of variant v's point layout, encoded
	// at a fresh upload's level and the preset's default scale on first
	// use (pointPlain). A server runs one session at a time and a query
	// touches each (v, j) from one goroutine, so the slots need no lock.
	pointPts [][]*ckks.Plaintext
	// maskScale is the low encoding scale of collapse masks. A mask
	// multiplies a squared distance already rescaled to level 1 at
	// scale ≈ 2^40, so the masked product, at ≈ 2^70, fits q0·q1 ≈ 2^90
	// for any distance under 2^19, and the final rescale leaves it at
	// ≈ 2^30 on the 50-bit q0 alone.
	maskScale float64
}

// NewServer builds the server over the aggregated point set.
func NewServer(params ckks.Parameters, points [][]float64) (*Server, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("distance: empty point set")
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	g, err := newGeometry(ctx.Params.Slots(), len(points), len(points[0]))
	if err != nil {
		return nil, err
	}
	// A non-finite coordinate would fail every query's encoding inside
	// ServeOne; refuse it here, where the caller can still act on it.
	for i, p := range points {
		if len(p) != g.rawD {
			return nil, fmt.Errorf("distance: ragged point set")
		}
		for k, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("distance: point %d coordinate %d is %v", i, k, x)
			}
		}
	}
	s := &Server{
		geometry:  g,
		ctx:       ctx,
		ecd:       ckks.NewEncoder(ctx),
		points:    points,
		pointPts:  make([][]*ckks.Plaintext, len(Variants())),
		maskScale: math.Ldexp(1, 30),
	}
	// No variant lays its points out over more ciphertexts than one per
	// point (point-major) or one per dimension (dimension-major).
	for v := range s.pointPts {
		s.pointPts[v] = make([]*ckks.Plaintext, max(g.m, g.rawD))
	}
	return s, nil
}

// Geometry returns (points, padded dims, dims) — published to clients so
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

// Serve is a whole session: the client's keys, then its queries until it
// hangs up between two of them (nil). A session that fails tells the
// client why, best effort, so it does not wait for a reply that will not
// come. This is the server half of the in-process form — run it in a
// goroutine on one end of a protocol.Pipe.
func (s *Server) Serve(t protocol.Transport) error {
	err := s.AcceptSetup(t)
	for err == nil {
		_, err = s.ServeOne(t)
	}
	if errors.Is(err, io.EOF) {
		return nil
	}
	_ = t.Send(protocol.MarshalSessionError(err.Error()))
	return err
}

// ServeOne handles one query: the request frame, the variant's query
// ciphertexts in, its result ciphertexts out (geometry.cost says how many
// of each). Returns the server operation counts. io.EOF means the client
// hung up before the request; hanging up inside one is an error.
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
	cost, err := s.cost(variant)
	if err != nil {
		return ops, err
	}

	ups := make([]*ckks.Ciphertext, cost.UpCts)
	for j := range ups {
		raw, err := t.Recv()
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return ops, fmt.Errorf("distance: %v upload %d of %d: %w", variant, j+1, len(ups), err)
		}
		if ups[j], err = protocol.UnmarshalAnyCKKS(s.ctx, raw); err != nil {
			return ops, err
		}
	}

	var downs []*ckks.Ciphertext
	if variant == DimensionMajor || variant == StackedDimMajor {
		var res *ckks.Ciphertext
		res, err = s.dimensionMajor(ups, variant, &ops)
		downs = []*ckks.Ciphertext{res}
	} else {
		downs, err = s.pointMajor(ups[0], variant, &ops)
	}
	if err != nil {
		return ops, err
	}
	for _, ct := range downs {
		if err := t.Send(protocol.MarshalCKKS(ct)); err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// pointPlain is ciphertext j of the variant's point layout as a plaintext
// at (level, scale). The points are the server's own constants, so the
// encoding an honest client's fresh upload needs is kept; the client
// chooses its uploads' level and scale, and any other pair is encoded for
// that query alone — no client can make the server hold more than its
// point set once per variant.
func (s *Server) pointPlain(v Variant, j, level int, scale float64) (*ckks.Plaintext, error) {
	keep := level == s.ctx.Params.MaxLevel() && scale == s.ctx.Params.DefaultScale()
	if keep && s.pointPts[v][j] != nil {
		return s.pointPts[v][j], nil
	}
	pt, err := s.ecd.EncodeFloats(s.layout(v, j, func(i int) []float64 { return s.points[i] }), level, scale)
	if err == nil && keep {
		s.pointPts[v][j] = pt
	}
	return pt, err
}

// squaredDiff is (q − ciphertext j of the variant's point layout)².
func (s *Server) squaredDiff(q *ckks.Ciphertext, v Variant, j int, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	pt, err := s.pointPlain(v, j, q.Level, q.Scale)
	if err != nil {
		return nil, err
	}
	diff, err := s.ev.SubPlain(q, pt)
	if err != nil {
		return nil, err
	}
	ops.CtMults++
	return s.ev.MulRelin(diff, diff)
}

// reduce sums groups of span slots that lie stride apart via
// rotate-and-add; the first slot of each group ends up holding its sum.
// Its callers rescale first, so on PresetDistance every rotation
// key-switches at level 1: two digits over three rows, where the top
// level would take three over four. The tree stays serial on purpose: every rotation acts on the
// freshly accumulated sum, so there is never more than one rotation per
// operand to hoist — and flattening to span-1 hoisted rotations of the
// input loses to the log₂(span)-deep tree for every realistic span.
func (s *Server) reduce(ct *ckks.Ciphertext, span, stride int, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	acc := ct
	for step := span / 2; step >= 1; step /= 2 {
		rot, err := s.ev.RotateLeft(acc, step*stride)
		if err != nil {
			return nil, err
		}
		ops.Rotations++
		if acc, err = s.ev.Add(acc, rot); err != nil {
			return nil, err
		}
		ops.Adds++
	}
	return acc, nil
}

// dimensionMajor sums the squared differences of the uploads — one per
// dimension, which takes no rotation at all, or, stacked, a single one
// holding every dimension as a block, which is then reduced across
// blocks. The sum is rescaled once, whatever the dimension count, before
// any rotation. Both leave one dense result ciphertext a level below the
// uploads ("dimension-major inputs produce point-major outputs").
func (s *Server) dimensionMajor(qs []*ckks.Ciphertext, v Variant, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	var acc *ckks.Ciphertext
	for j, q := range qs {
		sq, err := s.squaredDiff(q, v, j, ops)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = sq
			continue
		}
		if acc, err = s.ev.Add(acc, sq); err != nil {
			return nil, err
		}
		ops.Adds++
	}
	acc, err := s.ev.Rescale(acc)
	if err != nil || v != StackedDimMajor {
		return acc, err
	}
	return s.reduce(acc, s.d, nextPow2(s.m), ops)
}

// pointMajor answers the one uploaded query — replicated into every
// block, it serves all groups — with one ciphertext per group of perCt
// points (one point per group for plain point-major, slots/D stacked),
// or, collapsed, with the groups folded into a single dense ciphertext
// at extra server cost (§5.4's client-optimal choice). Groups are
// independent and fan out across the worker pool; the fold runs serially
// in group order (ciphertext addition is exact modular arithmetic, so
// any schedule of the same adds is bit-identical).
func (s *Server) pointMajor(q *ckks.Ciphertext, v Variant, ops *core.OpCounts) ([]*ckks.Ciphertext, error) {
	perCt := s.perCt(v)
	outs := make([]*ckks.Ciphertext, (s.m+perCt-1)/perCt)
	groupOps := make([]core.OpCounts, len(outs))
	errs := make([]error, len(outs))
	par.For(len(outs), func(g int) {
		outs[g], errs[g] = s.group(q, v, g, &groupOps[g])
	})
	for g := range outs {
		if errs[g] != nil {
			return nil, errs[g]
		}
		ops.Add(groupOps[g])
	}
	if v != CollapsedPointMajor {
		return outs, nil
	}
	acc := outs[0]
	for _, o := range outs[1:] {
		var err error
		if acc, err = s.ev.Add(acc, o); err != nil {
			return nil, err
		}
		ops.Adds++
	}
	final, err := s.ev.Rescale(acc)
	return []*ckks.Ciphertext{final}, err
}

// group computes group g's squared distances, each at the head of its
// point's block; they are rescaled before the in-block reduction rotates
// them. Collapsed, it then moves point i's to slot i and masks everything
// else away. Rotation commutes with masking (φ(mask ⊙ x) =
// φ(mask) ⊙ φ(x), and a one-hot mask encodes identically at either slot
// position), so the server rotates first: every repositioning then acts
// on the same reduced ciphertext, and the group's whole rotation set
// shares one hoisted decomposition.
func (s *Server) group(q *ckks.Ciphertext, v Variant, g int, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	sq, err := s.squaredDiff(q, v, g, ops)
	if err != nil {
		return nil, err
	}
	if sq, err = s.ev.Rescale(sq); err != nil {
		return nil, err
	}
	red, err := s.reduce(sq, s.d, 1, ops)
	if err != nil || v != CollapsedPointMajor {
		return red, err
	}
	first := g * s.perCt(v)
	steps := make([]int, min(s.perCt(v), s.m-first))
	for b := range steps {
		steps[b] = s.collapseStep(first + b)
		if steps[b] != 0 {
			ops.Rotations++
		}
	}
	rots, err := s.ev.RotateLeftHoisted(red, steps)
	if err != nil {
		return nil, err
	}
	var acc *ckks.Ciphertext
	for b, pos := range rots {
		mask := make([]float64, s.slots)
		mask[first+b] = 1
		mpt, err := s.ecd.EncodeFloats(mask, pos.Level, s.maskScale)
		if err != nil {
			return nil, err
		}
		masked, err := s.ev.MulPlain(pos, mpt)
		if err != nil {
			return nil, err
		}
		ops.PlainMults++
		if acc == nil {
			acc = masked
			continue
		}
		if acc, err = s.ev.Add(acc, masked); err != nil {
			return nil, err
		}
		ops.Adds++
	}
	return acc, nil
}
