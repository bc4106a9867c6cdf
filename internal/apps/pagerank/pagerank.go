// Package pagerank implements the paper's encrypted PageRank (§5.1,
// §5.6) in both BFV and CKKS — the first encrypted implementation of
// the algorithm per the paper. The damped transition matrix lives on
// the server in plaintext; the rank vector stays encrypted. The
// algorithm is pure linear algebra, so any number of iterations can
// run back-to-back in encrypted space — limited only by the noise
// budget (BFV) or level chain (CKKS) — or the client can periodically
// decrypt and re-encrypt to refresh, trading communication for smaller
// parameters (the Fig 13 exploration).
package pagerank

import (
	"fmt"
	"math"

	"choco/internal/core"
	"choco/internal/protocol"
	"choco/internal/sampling"
)

// Graph holds the damped, column-stochastic PageRank matrix
// G = α·M + (1-α)/n (dangling nodes teleport uniformly), so one
// iteration is r ← G·r.
type Graph struct {
	N int
	// G[row][col], dense.
	G [][]float64
	// Damping factor used to build G.
	Damping float64
}

// Synthesize builds a deterministic random directed graph of n nodes
// with the given mean out-degree and returns its damped matrix.
func Synthesize(n int, meanOutDegree float64, damping float64, seed [32]byte) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("pagerank: need at least 2 nodes")
	}
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("pagerank: damping must be in (0,1)")
	}
	src := sampling.NewSource(seed, "pagerank-graph")
	out := make([][]bool, n) // out[j][i]: edge j → i
	outDeg := make([]int, n)
	p := meanOutDegree / float64(n-1)
	for j := 0; j < n; j++ {
		out[j] = make([]bool, n)
		for i := 0; i < n; i++ {
			if i != j && src.Float64() < p {
				out[j][i] = true
				outDeg[j]++
			}
		}
	}
	g := &Graph{N: n, Damping: damping}
	g.G = make([][]float64, n)
	for i := range g.G {
		g.G[i] = make([]float64, n)
	}
	teleport := (1 - damping) / float64(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var m float64
			if outDeg[j] == 0 {
				m = 1 / float64(n) // dangling node
			} else if out[j][i] {
				m = 1 / float64(outDeg[j])
			}
			g.G[i][j] = damping*m + teleport
		}
	}
	return g, nil
}

// PlainRank runs iters float iterations from the uniform vector — the
// cleartext reference.
func (g *Graph) PlainRank(iters int) []float64 {
	r := make([]float64, g.N)
	for i := range r {
		r[i] = 1 / float64(g.N)
	}
	next := make([]float64, g.N)
	for it := 0; it < iters; it++ {
		for i := 0; i < g.N; i++ {
			var s float64
			for j := 0; j < g.N; j++ {
				s += g.G[i][j] * r[j]
			}
			next[i] = s
		}
		r, next = next, r
	}
	return r
}

// Normalize scales a vector to sum to one (the client-side step after
// each refresh).
func Normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x
	}
	if s == 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}

// L1Distance returns the ℓ1 distance between rank vectors.
func L1Distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// halves is one scheme's part of the refresh loop (run): the client's
// upload of the rank vector, the server's encrypted iterations and the
// client's refresh — the parts a separate server and client would each
// wrap.
type halves interface {
	upload(rank []float64) ([]byte, error)
	iterations(upload []byte, set int, ops *core.OpCounts) ([]byte, error)
	refresh(reply []byte, set int, rank []float64) error
}

// run executes totalIters iterations of an n-node graph in encrypted sets
// of setSize (at most maxSet, the scheme's capacity) from the uniform
// vector, the client renormalizing between sets, and returns the final
// ranks and the client's stats.
func run(h halves, n, totalIters, setSize, maxSet int, capacity string, clientEnd, serverEnd protocol.Transport) ([]float64, core.Stats, error) {
	if setSize < 1 || totalIters < 1 {
		return nil, core.Stats{}, fmt.Errorf("pagerank: invalid schedule (%d, %d)", totalIters, setSize)
	}
	if setSize > maxSet {
		return nil, core.Stats{}, fmt.Errorf("pagerank: set size %d exceeds %s (max %d)", setSize, capacity, maxSet)
	}
	var stats core.Stats
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for remaining := totalIters; remaining > 0; remaining -= setSize {
		set := min(setSize, remaining)
		// Client: encrypt and upload (+4: the frame's length prefix).
		up, err := h.upload(rank)
		if err != nil {
			return nil, stats, err
		}
		stats.Encryptions++
		if err := clientEnd.Send(up); err != nil {
			return nil, stats, err
		}
		stats.UpCiphertexts++
		stats.UpBytes += int64(len(up)) + 4

		// Server: set consecutive encrypted iterations, then reply.
		if up, err = serverEnd.Recv(); err != nil {
			return nil, stats, err
		}
		down, err := h.iterations(up, set, &stats.Server)
		if err != nil {
			return nil, stats, err
		}
		if err := serverEnd.Send(down); err != nil {
			return nil, stats, err
		}
		stats.DownCiphertexts++
		stats.DownBytes += int64(len(down)) + 4

		// Client: download, decrypt, renormalize (the refresh).
		if down, err = clientEnd.Recv(); err != nil {
			return nil, stats, err
		}
		if err := h.refresh(down, set, rank); err != nil {
			return nil, stats, err
		}
		stats.Decryptions++
		Normalize(rank)
	}
	return rank, stats, nil
}
