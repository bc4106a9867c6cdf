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

	"choco/internal/ckks"
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

// dense reports whether a reply carries point i's distance in slot i.
// Point-major replies that are not collapsed keep it at the head of the
// point's block instead.
func (v Variant) dense() bool { return v != PointMajor && v != StackedPointMajor }

// replyLevel is the level the variant's replies leave the server at, on a
// chain whose top level is maxLevel: the server rescales every squared
// distance once, before it rotates it, and a collapsed reply once more
// after its masks. The client refuses a reply at any other level.
func (v Variant) replyLevel(maxLevel int) int {
	if v == CollapsedPointMajor {
		return maxLevel - 2
	}
	return maxLevel - 1
}

// PresetDistance returns the production parameter set for the distance
// kernels, within 128-bit security at N = 8192: a three-prime data chain
// whose top 40-bit prime the server spends rescaling each squared
// distance before it rotates it, and whose second the collapsed variant
// spends rescaling its masked product (the masks encode at 2^30). The
// other variants' replies stay at two primes: at scale 2^40 the 50-bit q0
// alone would leave 2^9 of headroom, and a larger distance would wrap
// silently.
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

// collapseStep is the left rotation that carries point i's distance from
// the head of its block to slot i of the dense reply.
func (g geometry) collapseStep(i int) int {
	b := i % (g.slots / g.d)
	return ((b*g.d-i)%g.slots + g.slots) % g.slots
}

// rotationSteps lists the rotations the five variants need keys for:
// every power of two (in-block and cross-block reductions) and the
// collapse repositionings.
func (g geometry) rotationSteps() []int {
	stepSet := map[int]bool{}
	for s := 1; s < g.slots; s <<= 1 {
		stepSet[s] = true
	}
	for i := 0; i < g.m; i++ {
		if s := g.collapseStep(i); s != 0 {
			stepSet[s] = true
		}
	}
	steps := make([]int, 0, len(stepSet))
	for s := range stepSet {
		steps = append(steps, s)
	}
	return steps
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
