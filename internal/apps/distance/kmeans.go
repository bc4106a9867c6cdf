package distance

import (
	"fmt"
	"math"

	"choco/internal/core"
	"choco/internal/protocol"
)

// KMeans clusters the server's point set around client-held centroids:
// each iteration sends the (encrypted) centroids to the server for
// distance evaluation, the client decrypts, assigns points by min()
// — the non-linear step HE cannot do — recomputes centroids, and
// repeats until convergence (§5.1: "K-Means iterates client-server
// interaction until convergence").
//
// Centroid recomputation needs the coordinates of assigned points; the
// server reveals its (non-sensitive, per the §3.1 threat model) point
// set to the client for that step — Run takes it as an argument — while
// the client's evolving centroids, derived from its private
// initialization, stay encrypted in transit.
type KMeans struct {
	client *Client
	// Assignments after the last iteration.
	Assignments []int
	// Iterations actually executed.
	Iterations int
}

// NewKMeans wraps a client.
func NewKMeans(client *Client) *KMeans {
	return &KMeans{client: client}
}

// Run clusters points with the given initial centroids until assignments
// stabilize or maxIters is reached, one encrypted distance query per
// centroid and iteration over t, returning final centroids and the
// aggregate client statistics.
func (km *KMeans) Run(points, init [][]float64, maxIters int, variant Variant, t protocol.Transport) ([][]float64, core.Stats, error) {
	var stats core.Stats
	if len(init) == 0 {
		return nil, stats, fmt.Errorf("distance: no initial centroids")
	}
	if len(points) != km.client.m {
		return nil, stats, fmt.Errorf("distance: %d points to average, the server holds %d", len(points), km.client.m)
	}
	var centroids [][]float64
	var err error
	centroids, km.Assignments, km.Iterations, err = lloyd(points, init, maxIters, func(c []float64) ([]float64, error) {
		d, s, err := km.client.Query(c, variant, t)
		stats.Merge(s)
		return d, err
	})
	return centroids, stats, err
}

// PlainKMeans is the cleartext reference (identical update rule).
func PlainKMeans(points [][]float64, init [][]float64, maxIters int) ([][]float64, []int) {
	centroids, assign, _, _ := lloyd(points, init, maxIters, func(c []float64) ([]float64, error) {
		return PlainDistances(points, c), nil
	})
	return centroids, assign
}

// lloyd is the iteration both share: distances from every centroid,
// argmin assignment, centroid update (an empty cluster's centroid stays
// in place), until no assignment changes. It returns the centroids, the
// assignments and the iterations run.
func lloyd(points, init [][]float64, maxIters int, dist func(centroid []float64) ([]float64, error)) ([][]float64, []int, int, error) {
	centroids := make([][]float64, len(init))
	for c := range init {
		centroids[c] = append([]float64(nil), init[c]...)
	}
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	iters := 0
	for iters < maxIters {
		iters++
		dists := make([][]float64, len(centroids))
		for c := range centroids {
			var err error
			if dists[c], err = dist(centroids[c]); err != nil {
				return nil, nil, iters, err
			}
		}
		changed := false
		sums := make([][]float64, len(centroids))
		counts := make([]int, len(centroids))
		for c := range sums {
			sums[c] = make([]float64, len(centroids[c]))
		}
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if dists[c][i] < bestD {
					best, bestD = c, dists[c][i]
				}
			}
			changed = changed || best != assign[i]
			assign[i] = best
			counts[best]++
			for d := range sums[best] {
				sums[best][d] += p[d]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue
			}
			for d := range centroids[c] {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
		if !changed && iters > 1 {
			break
		}
	}
	return centroids, assign, iters, nil
}
