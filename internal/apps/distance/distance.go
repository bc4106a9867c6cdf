// Package distance implements the paper's distance-based applications
// (§5.1): encrypted squared-Euclidean distance kernels in CKKS with the
// five packing variants of Fig 9 (point-major, dimension-major, their
// stacked forms, and collapsed point-major), plus K-Nearest-Neighbors
// classification and K-Means clustering built on them. The client's
// query (or centroids) stay encrypted; the server holds the aggregated
// point set. The square root of the Euclidean distance is dropped —
// monotone, so the client's min() is unaffected (§5.1).
//
// There is one implementation, split the way it is deployed: Server is
// the untrusted side (the points and the client's evaluation keys),
// Client the trusted one (the secret key and the query). A process that
// wants both joins them with a protocol.Pipe and runs Server.Serve in a
// goroutine.
package distance

import (
	"fmt"
	"math"
	"slices"

	"choco/internal/ckks"
	"choco/internal/core"
)

// Variant selects the Fig 9 packing.
type Variant int

// The five packings of Fig 9.
const (
	PointMajor Variant = iota
	DimensionMajor
	StackedPointMajor
	StackedDimMajor
	CollapsedPointMajor
)

func (v Variant) String() string {
	switch v {
	case PointMajor:
		return "point-major"
	case DimensionMajor:
		return "dimension-major"
	case StackedPointMajor:
		return "stacked point-major"
	case StackedDimMajor:
		return "stacked dimension-major"
	case CollapsedPointMajor:
		return "collapsed point-major"
	}
	return "?"
}

// Variants lists all packings in Fig 9's order.
func Variants() []Variant {
	return []Variant{PointMajor, DimensionMajor, StackedPointMajor, StackedDimMajor, CollapsedPointMajor}
}

// replyLevel is the level the variant's replies leave the server at, on a
// chain whose top level is maxLevel: the server rescales every expanded
// square once, before any rotation, and a collapsed reply once more
// after its masks. The client refuses a reply at any other level.
func (v Variant) replyLevel(maxLevel int) int {
	if v == CollapsedPointMajor {
		return maxLevel - 2
	}
	return maxLevel - 1
}

// maskLogScale is log2 of the encoding scale of the collapse masks
// (Server.maskScale).
const maskLogScale = 30

// headroomBits is log2 of the largest reply value the variant's replies
// carry without wrapping, on the parameter set p: the bits of the primes
// a reply leaves the server with, less its scale (2^LogScale, or a
// collapsed reply's mask scale) and a sign bit. PresetDistance gives
// 2^49 at two primes and 2^19 for a collapsed reply.
func (v Variant) headroomBits(p ckks.Parameters) int {
	bits := -p.LogScale - 1
	if v == CollapsedPointMajor {
		bits = -maskLogScale - 1
	}
	for _, b := range p.QBits[:v.replyLevel(p.MaxLevel())+1] {
		bits += b
	}
	return bits
}

// PresetDistance returns the production parameter set for the distance
// kernels, within 128-bit security at N = 8192: a three-prime data chain
// whose top 40-bit prime the server spends rescaling each expanded square
// q² − (q − p)² before it rotates it, and whose second the collapsed
// variant spends rescaling its masked product (the masks encode at 2^30).
// The other variants' replies stay at two primes: at scale 2^40 they
// leave 2^49 of headroom where the 50-bit q0 alone would leave 2^9, and a
// larger value would wrap silently. A reply value is ‖q‖² − d², and
// |‖q‖² − d²| ≤ max(‖q‖², d²): the headroom holds whenever both the
// query's squared norm and its squared distances stay under it.
func PresetDistance() ckks.Parameters {
	return ckks.Parameters{LogN: 13, QBits: []int{50, 40, 40}, PBits: 51, LogScale: 40, Sigma: 3.2}
}

// PresetDistanceTest is the fast-test analogue (small ring; security
// is out of scope for unit tests).
func PresetDistanceTest() ckks.Parameters {
	return ckks.Parameters{LogN: 11, QBits: []int{50, 40, 40}, PBits: 51, LogScale: 40, Sigma: 3.2}
}

func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// geometry is what both halves derive a packing from: the point count,
// the dimensionality as given and padded to a power of two, and the
// slot count of the parameter set.
type geometry struct {
	m, d, rawD, slots int
}

func newGeometry(slots, m, rawD int) (geometry, error) {
	g := geometry{m: m, d: nextPow2(rawD), rawD: rawD, slots: slots}
	if m == 0 || rawD == 0 {
		return g, fmt.Errorf("distance: empty point set")
	}
	if g.m*g.d > slots {
		return g, fmt.Errorf("distance: %d points × %d dims exceed %d slots", g.m, g.d, slots)
	}
	return g, nil
}

// cost is AnalyzeCost at this geometry — where both halves read how many
// frames a variant moves each way — or an error for a variant this
// geometry cannot pack. Only dimension-major sees the unpadded
// dimension count: it spends a ciphertext per dimension, and a padding
// dimension is zero on both sides.
func (g geometry) cost(v Variant) (Cost, error) {
	d := g.d
	switch {
	case v < PointMajor || v > CollapsedPointMajor:
		return Cost{}, fmt.Errorf("distance: unknown variant %d", int(v))
	case v == StackedDimMajor && nextPow2(g.m)*g.d > g.slots:
		return Cost{}, fmt.Errorf("distance: stacked dim-major needs %d slots", nextPow2(g.m)*g.d)
	case v == DimensionMajor:
		d = g.rawD
	}
	return AnalyzeCost(v, g.m, d, g.slots), nil
}

// perCt is how many points, one D-strided block each, a point-major
// variant packs into a ciphertext.
func (g geometry) perCt(v Variant) int {
	if v == PointMajor {
		return 1
	}
	return g.slots / g.d
}

// layout fills ciphertext j of a variant: the coordinates at(i) of point
// i go where that packing keeps them. The server lays out its points;
// the client lays out its query with at ≡ q, the query beside every
// point. Dimension-major ciphertext j holds dimension j across the point
// slots, stacked dimension-major holds every dimension as
// nextPow2(M)-strided blocks of one ciphertext, and the point-major
// family holds group j's points as D-strided blocks.
func (g geometry) layout(v Variant, j int, at func(i int) []float64) []float64 {
	vec := make([]float64, g.slots)
	switch v {
	case DimensionMajor:
		for i := 0; i < g.m; i++ {
			vec[i] = at(i)[j]
		}
	case StackedDimMajor:
		bm := nextPow2(g.m)
		for i := 0; i < g.m; i++ {
			for d, x := range at(i) {
				vec[d*bm+i] = x
			}
		}
	default:
		perCt := g.perCt(v)
		for b := 0; b < perCt && j*perCt+b < g.m; b++ {
			copy(vec[b*g.d:], at(j*perCt+b))
		}
	}
	return vec
}

// collapsePlan moves point i's distance from the head of its block, slot
// i·d, left by i(d−1) to slot i and masks everything else away, two
// levels deep: i = k + jB takes the baby k(d−1) and the giant jB(d−1),
// B = ⌈√m⌉. Rotation commutes with masking (φ(mask ⊙ x) = φ(mask) ⊙ φ(x),
// and a one-hot mask encodes identically at either slot position), so
// term (j, k) is a one-hot mask at the slot the baby leaves point i in,
// i + Giants[j] — rotated by −Giants[j] as BSGSPlan.Diag requires.
// newGeometry keeps m·d within the slots, so one plan covers every point.
func (g geometry) collapsePlan() core.BSGSPlan[float64] {
	b := int(math.Ceil(math.Sqrt(float64(g.m))))
	if g.d == 1 {
		b = g.m // every step is zero: one giant
	}
	var pl core.BSGSPlan[float64]
	for k := 0; k < b; k++ {
		pl.Babies = append(pl.Babies, k*(g.d-1))
	}
	for j := 0; j*b < g.m; j++ {
		pl.Giants = append(pl.Giants, j*b*(g.d-1))
	}
	pl.Diag = func(j, k int) []float64 {
		if k+j*b >= g.m {
			return nil
		}
		mask := make([]float64, g.slots)
		mask[k+j*b+pl.Giants[j]] = 1
		return mask
	}
	return pl
}

// rotationSteps lists, once each, the steps the served variants rotate
// by: the in-block reduction's 1…d/2 and the collapse plan's.
func (g geometry) rotationSteps() []int {
	var steps []int
	for s := 1; s < g.d; s <<= 1 {
		steps = append(steps, s)
	}
	steps = append(steps, g.collapsePlan().RotationSteps()...)
	slices.Sort(steps)
	return slices.Compact(steps)
}

// PlainDistances is the cleartext reference.
func PlainDistances(points [][]float64, q []float64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		var s float64
		for d := range q {
			diff := q[d] - p[d]
			s += diff * diff
		}
		out[i] = s
	}
	return out
}
