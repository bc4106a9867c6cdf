package fabric

import (
	"fmt"
	"testing"
)

// TestRingOwnerStable checks the consistent-hashing contract: adding a
// shard only moves keys onto the new shard. Every other session keeps
// its owner — and with it, its shard-side cached evaluation keys.
func TestRingOwnerStable(t *testing.T) {
	r := NewRing(64)
	r.Add("a")
	r.Add("b")
	r.Add("c")

	const n = 2000
	before := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("session-%d", i)
		before[k] = r.Owner(k)
	}

	r.Add("d")
	moved := 0
	for k, was := range before {
		now := r.Owner(k)
		if now != was {
			moved++
			if now != "d" {
				t.Fatalf("key %q moved %s→%s on Add(d): churn must only flow to the new shard", k, was, now)
			}
		}
	}
	if moved == 0 || moved > n/2 {
		t.Errorf("Add(d) moved %d/%d keys; want a roughly ~1/4 share", moved, n)
	}
}

// TestRingSequence checks the fallback walk: distinct shards, owner
// first, all members covered.
func TestRingSequence(t *testing.T) {
	r := NewRing(32)
	for _, s := range []string{"s1", "s2", "s3", "s4"} {
		r.Add(s)
	}
	seq := r.Sequence("some-session")
	if len(seq) != 4 {
		t.Fatalf("sequence covers %d shards, want 4: %v", len(seq), seq)
	}
	seen := map[string]bool{}
	for _, s := range seq {
		if seen[s] {
			t.Fatalf("shard %s repeated in sequence %v", s, seq)
		}
		seen[s] = true
	}
	if seq[0] != r.Owner("some-session") {
		t.Errorf("sequence head %s is not the owner %s", seq[0], r.Owner("some-session"))
	}
}

// TestRingBalance checks virtual nodes spread load: with 64 v-nodes and
// 4 shards, no shard should own more than twice its fair share.
func TestRingBalance(t *testing.T) {
	r := NewRing(64)
	for _, s := range []string{"s1", "s2", "s3", "s4"} {
		r.Add(s)
	}
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for s, c := range counts {
		if c > n/2 {
			t.Errorf("shard %s owns %d/%d keys — ring badly unbalanced", s, c, n)
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d shards own keys, want 4", len(counts))
	}
}

// TestRingEmpty checks the degenerate cases.
func TestRingEmpty(t *testing.T) {
	r := NewRing(8)
	if o := r.Owner("x"); o != "" {
		t.Errorf("empty ring owner %q", o)
	}
	if s := r.Sequence("x"); s != nil {
		t.Errorf("empty ring sequence %v", s)
	}
	if r.Len() != 0 || len(r.points) != 0 {
		t.Errorf("empty ring: len=%d points=%d", r.Len(), len(r.points))
	}
}
