package distance

import "choco/internal/core"

// Cost is the analytic operation/traffic model of one distance query
// under a packing variant — the quantities behind Fig 11's three bars
// (server time, client time, communication), evaluated for arbitrary
// point counts and dimensionalities without running the kernel.
type Cost struct {
	Variant Variant
	UpCts   int
	DownCts int
	Server  core.OpCounts
}

// AnalyzeCost computes the cost model for m points of (padded)
// dimension d with the given slot count. Each expanded square is one
// plaintext multiply: no variant multiplies two ciphertexts.
func AnalyzeCost(variant Variant, m, d, slots int) Cost {
	log2 := func(v int) int {
		n := 0
		for 1<<uint(n) < v {
			n++
		}
		return n
	}
	perCt := slots / d
	groupsStacked := (m + perCt - 1) / perCt
	c := Cost{Variant: variant}
	switch variant {
	case PointMajor:
		// One point per ciphertext: M expanded squares (a plaintext
		// multiply each) and in-block reductions, M sparse result
		// ciphertexts.
		c.UpCts = 1
		c.DownCts = m
		c.Server = core.OpCounts{PlainMults: m, Rotations: m * log2(d), Adds: m * log2(d)}
	case DimensionMajor:
		// One ciphertext per dimension; no rotations at all.
		c.UpCts = d
		c.DownCts = 1
		c.Server = core.OpCounts{PlainMults: d, Adds: d - 1}
	case StackedPointMajor:
		c.UpCts = 1
		c.DownCts = groupsStacked
		c.Server = core.OpCounts{PlainMults: groupsStacked, Rotations: groupsStacked * log2(d), Adds: groupsStacked * log2(d)}
	case StackedDimMajor:
		// All dimensions in one ciphertext when m·d ≤ slots, else in
		// ceil(m·d/slots); the client adds a reply's blocks: no rotation.
		cts := (m*d + slots - 1) / slots
		c.UpCts = cts
		c.DownCts = cts
		c.Server = core.OpCounts{PlainMults: cts}
	case CollapsedPointMajor:
		// Stacked computation plus the two-level collapse plan, a masked
		// term per point — extra server work for a single dense download.
		c.UpCts = 1
		c.DownCts = 1
		c.Server = core.OpCounts{
			Rotations:  groupsStacked*log2(d) + len(geometry{m: m, d: d, slots: slots}.collapsePlan().RotationSteps()),
			PlainMults: groupsStacked + m,
			Adds:       groupsStacked*log2(d) + m - 1,
		}
	}
	return c
}

// TotalCts returns the ciphertexts crossing the link.
func (c Cost) TotalCts() int { return c.UpCts + c.DownCts }
