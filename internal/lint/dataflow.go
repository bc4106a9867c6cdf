package lint

// Forward fixpoint solver over the per-function CFG in cfg.go. The
// solver is deliberately tiny: analyzers supply a lattice via FlowFact
// (Clone + destructive Join) and a transfer function over one block;
// the solver iterates a worklist until block-entry facts stop growing.
//
// Termination argument: Join must be monotone — once information is in
// a fact it stays (may-analyses like secretflow use set union; must-
// analyses like goroleak use intersection, where "information" is the
// *removal* of members, which is equally monotone). Each lattice
// here has finite height (bounded by the identifiers in one function),
// so every block re-enters the worklist at most height-many times.

// FlowFact is one lattice element: the dataflow state at a program
// point.
type FlowFact interface {
	// Clone returns an independent copy; the solver mutates clones
	// when pushing facts along edges.
	Clone() FlowFact
	// Join merges other into the receiver, returning whether the
	// receiver changed. Join must be monotone.
	Join(other FlowFact) bool
}

// ForwardSolve runs transfer over cfg to a fixpoint and returns the
// fact at entry to each block, indexed by Block.Index. entry seeds the
// CFG entry block. transfer must not retain or mutate its input beyond
// returning it (returning the mutated input is the common case).
// Unreachable blocks get a nil entry fact; analyzers skip them.
func ForwardSolve(cfg *CFG, entry FlowFact, transfer func(b *Block, in FlowFact) FlowFact) []FlowFact {
	in := make([]FlowFact, len(cfg.Blocks))
	in[cfg.Entry.Index] = entry.Clone()

	work := []*Block{cfg.Entry}
	queued := make([]bool, len(cfg.Blocks))
	queued[cfg.Entry.Index] = true

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false

		out := transfer(b, in[b.Index].Clone())
		for _, s := range b.Succs {
			changed := false
			if in[s.Index] == nil {
				in[s.Index] = out.Clone()
				changed = true
			} else {
				changed = in[s.Index].Join(out)
			}
			if changed && !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return in
}
