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
	// pointPts[v][j] is ciphertext j of variant v's point layout as the
	// pair expandedSquare needs, encoded for a fresh upload's level and
	// scale on first use (pointPlain). A server runs one session at a time
	// and a query touches each (v, j) from one goroutine, so the slots
	// need no lock.
	pointPts [][]pointPair
	// maskScale is the low encoding scale of collapse masks. A mask
	// multiplies a reply value ‖q‖² − d² already rescaled to level 1 at
	// scale ≈ 2^40, so the masked product, at ≈ 2^70, fits q0·q1 ≈ 2^90
	// for any value under 2^19 — any query whose ‖q‖² and d² both stay
	// under it, as |‖q‖² − d²| ≤ max(‖q‖², d²) — and the final rescale
	// leaves it at ≈ 2^30 on the 50-bit q0 alone.
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
		pointPts:  make([][]pointPair, len(Variants())),
		maskScale: math.Ldexp(1, maskLogScale),
	}
	// No variant lays its points out over more ciphertexts than one per
	// point (point-major) or one per dimension (dimension-major).
	for v := range s.pointPts {
		s.pointPts[v] = make([]pointPair, max(g.m, g.rawD))
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

// pointPair is ciphertext j of a variant's point layout as the two
// plaintexts of the expanded square: 2p, readied for MulPlain (in the
// NTT domain, with Shoup companions) at the preset's default scale, and
// p² at the scale of q ⊙ 2p.
type pointPair struct{ twoP, sq *ckks.Plaintext }

// pointPlain is the pair of ciphertext j of the variant's point layout
// for an upload at (level, scale). The points are the server's own
// constants, so the pair an honest client's fresh upload needs is kept;
// the client chooses its uploads' level and scale, and any other pair is
// encoded for that query alone — no client can make the server hold more
// than its point set once per variant.
func (s *Server) pointPlain(v Variant, j, level int, scale float64) (pointPair, error) {
	def := s.ctx.Params.DefaultScale()
	keep := level == s.ctx.Params.MaxLevel() && scale == def
	if keep && s.pointPts[v][j].twoP != nil {
		return s.pointPts[v][j], nil
	}
	twoP := s.layout(v, j, func(i int) []float64 { return s.points[i] })
	sq := make([]float64, len(twoP))
	for k, x := range twoP {
		twoP[k], sq[k] = 2*x, x*x
	}
	var pp pointPair
	var err error
	if pp.twoP, err = s.ecd.EncodeFloats(twoP, level, def); err != nil {
		return pp, err
	}
	s.ctx.PrepareMulPlain(pp.twoP)
	if pp.sq, err = s.ecd.EncodeFloats(sq, level, scale*def); err != nil {
		return pp, err
	}
	if keep {
		s.pointPts[v][j] = pp
	}
	return pp, nil
}

// expandedSquare is q² − (q − p)² = 2pq − p² slotwise, p ciphertext j of
// the variant's point layout: a plaintext multiply and a plaintext
// subtraction, no ciphertext product and no relinearization. The client
// holds q and adds ‖q‖² back (Client.Query). Every later step — the
// rescale, reduce's rotate-and-add, the collapse — is linear, so a reply
// slot, partial sums included, is q's squared norm over the slot's
// dimensions less the squared distance it stood for. A client that knows
// q can turn either into the other, so it learns nothing it did not.
func (s *Server) expandedSquare(q *ckks.Ciphertext, v Variant, j int, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	pp, err := s.pointPlain(v, j, q.Level, q.Scale)
	if err != nil {
		return nil, err
	}
	prod, err := s.ev.MulPlain(q, pp.twoP)
	if err != nil {
		return nil, err
	}
	ops.PlainMults++
	return s.ev.SubPlain(prod, pp.sq)
}

// reduce sums each point's D-slot block via rotate-and-add; the first
// slot of each block ends up holding its sum. Its callers rescale first,
// so on PresetDistance every rotation key-switches at level 1: two
// digits over three rows, where the top level would take three over
// four. The tree stays serial on purpose: every rotation acts on the
// freshly accumulated sum, so there is never more than one rotation per
// operand to hoist — and flattening to D−1 hoisted rotations of the
// input loses to the log₂(D)-deep tree for every realistic D.
func (s *Server) reduce(ct *ckks.Ciphertext, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	acc := ct
	for step := s.d / 2; step >= 1; step /= 2 {
		rot, err := s.ev.RotateLeft(acc, step)
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

// dimensionMajor sums the expanded squares of the uploads — one per
// dimension, or, stacked, one holding every dimension as a block — and
// rescales the sum once. It rotates nothing: the client adds a stacked
// reply's blocks after it decrypts (§5.4). Both leave one result
// ciphertext a level below the uploads.
func (s *Server) dimensionMajor(qs []*ckks.Ciphertext, v Variant, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	var acc *ckks.Ciphertext
	for j, q := range qs {
		sq, err := s.expandedSquare(q, v, j, ops)
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
	return s.ev.Rescale(acc)
}

// pointMajor answers the one uploaded query — replicated into every
// block, it serves all groups — with one ciphertext per group of perCt
// points (one point per group for plain point-major, slots/D stacked),
// or, collapsed, with a single dense ciphertext at extra server cost
// (§5.4's client-optimal choice): newGeometry keeps m·d within the slots,
// so collapsed is always one group. Groups are independent and fan out
// across the worker pool.
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
	return outs, nil
}

// group computes group g's expanded squares, each point's sum at the head
// of its block; they are rescaled before the in-block reduction rotates
// them. Collapsed, the one group then runs collapsePlan on core's
// executor — its babies off one decomposition of the reduced ciphertext
// and resident in the key ring, one rounding per inner sum, the giants
// folded under one mod-down, the one-hot masks at maskScale its
// plaintexts — and rescales the masked sum.
func (s *Server) group(q *ckks.Ciphertext, v Variant, g int, ops *core.OpCounts) (*ckks.Ciphertext, error) {
	sq, err := s.expandedSquare(q, v, g, ops)
	if err != nil {
		return nil, err
	}
	if sq, err = s.ev.Rescale(sq); err != nil {
		return nil, err
	}
	red, err := s.reduce(sq, ops)
	if err != nil || v != CollapsedPointMajor {
		return red, err
	}
	out, o, err := core.ApplyCKKS(s.ev, s.ecd, red, nil, s.collapsePlan(), s.maskScale)
	if err != nil {
		return nil, err
	}
	ops.Add(o)
	return s.ev.Rescale(out)
}
