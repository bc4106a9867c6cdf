package distance

import (
	"fmt"
	"sort"

	"choco/internal/core"
	"choco/internal/protocol"
)

// KNN is an encrypted K-Nearest-Neighbors classifier: the server holds
// the point set (aggregated across clients — the centralized advantage
// of §5.1); classifying a client's new point takes a single encrypted
// interaction. The client decrypts the distances and applies the
// non-linear min()/vote locally, against the labels it holds.
type KNN struct {
	client *Client
	labels []int
}

// NewKNN builds a classifier over a client and the labels of the
// server's points.
func NewKNN(client *Client, labels []int) (*KNN, error) {
	if len(labels) != client.m {
		return nil, fmt.Errorf("distance: %d labels for %d points", len(labels), client.m)
	}
	return &KNN{client: client, labels: labels}, nil
}

// Classify returns the majority label of the k nearest neighbors of q,
// queried over t.
func (c *KNN) Classify(q []float64, k int, variant Variant, t protocol.Transport) (int, core.Stats, error) {
	if k <= 0 || k > len(c.labels) {
		return 0, core.Stats{}, fmt.Errorf("distance: invalid k=%d", k)
	}
	dists, stats, err := c.client.Query(q, variant, t)
	if err != nil {
		return 0, stats, err
	}
	return vote(dists, c.labels, k), stats, nil
}

// PlainKNN is the cleartext reference classifier.
func PlainKNN(points [][]float64, labels []int, q []float64, k int) int {
	return vote(PlainDistances(points, q), labels, k)
}

// vote returns the label most common among the k smallest distances; of
// two labels with as many votes, the one that got there first.
func vote(dists []float64, labels []int, k int) int {
	order := make([]int, len(dists))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
	votes := map[int]int{}
	best, bestVotes := labels[order[0]], 0
	for _, i := range order[:k] {
		votes[labels[i]]++
		if votes[labels[i]] > bestVotes {
			best, bestVotes = labels[i], votes[labels[i]]
		}
	}
	return best
}
