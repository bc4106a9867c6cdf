// Package fabric is the distributed serving tier in front of
// internal/serve: a front router that terminates client TCP
// connections, consistent-hashes session IDs onto backend shards, and
// splices frames bidirectionally; an eval-key replication path so a
// reconnect routed to a shard that never saw the session fetches the
// cached bundle from the owning shard instead of re-uploading from the
// client; health/drain-aware membership; and fleet-wide stats
// aggregation. It is the first step from the single-process worker
// pool of internal/serve to a tier that can absorb fleet traffic —
// the deployment the paper's offloading model assumes (§1: many small
// clients, one shared compute tier).
package fabric

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring with virtual nodes. Each shard is
// hashed onto the ring at VirtualNodes points; a key's owner is the
// first shard clockwise from the key's hash. Virtual nodes smooth the
// load split (the spread of a v-node ring tightens as ~1/√(v·n)), and
// consistent hashing bounds churn: adding a shard only reassigns the
// keys that now hash between an existing owner and the new shard's
// points — every other session keeps its owner, and with it its
// cached evaluation keys.
//
// Ring is not safe for concurrent use; the Router guards it with its
// membership lock.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	shards map[string]bool
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds an empty ring with the given virtual-node count per
// shard (values ≤ 0 select 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, shards: map[string]bool{}}
}

// ringHash is fnv-1a with a murmur3-style finalizer. Plain fnv-1a on
// the short strings hashed here (shard names, session IDs) leaves the
// high bits — which ring ordering is most sensitive to — poorly
// avalanched, and the ring splits visibly unevenly (5%/55% splits on a
// 4-shard ring in practice). The finalizer's xor-shift-multiply rounds
// give full avalanche at negligible cost.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a shard's virtual nodes. Re-adding is a no-op.
func (r *Ring) Add(shard string) {
	if r.shards[shard] {
		return
	}
	r.shards[shard] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{
			hash:  ringHash(shard + "#" + strconv.Itoa(v)),
			shard: shard,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a shard's virtual nodes; its ring segments flow to
// the clockwise successors.
func (r *Ring) Remove(shard string) {
	if !r.shards[shard] {
		return
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports the number of shards on the ring.
func (r *Ring) Len() int { return len(r.shards) }

// Owner returns the shard owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	seq := r.Sequence(key)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns every shard in ring order starting at key's hash
// point, each shard once: the owner first, then the fallbacks a
// bounded-load or health-aware router walks when the owner cannot take
// the session.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= ringHash(key)
	})
	seen := make(map[string]bool, len(r.shards))
	out := make([]string, 0, len(r.shards))
	for i := 0; i < len(r.points) && len(out) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
