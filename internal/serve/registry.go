package serve

import (
	"sync"
	"time"

	"choco/internal/nn"
)

// registry caches installed evaluation-key sessions by client-chosen
// session ID, so a reconnecting client skips re-uploading its key
// bundle — the one-time setup cost the paper calls out in §3.3/Table 3.
// A served session's bundle is its public key alone (73 764 B for
// LeNet-Sm at bfv-B), since a bundle with Galois or relinearization
// keys is refused. The raw serialized bundle is retained alongside the
// parsed session: it is what the byte budget counts, and
// Server.LookupKeyFrame returns it.
//
// Capacity is bounded two ways: an entry count and a byte budget over
// the retained bundles (a count cap alone would let a registry of
// large-preset bundles grow with the preset). Least-recently-used
// entries are evicted beyond either bound; the newest entry is
// always kept, even if it alone exceeds the byte budget — availability
// over strictness, since refusing to cache would re-incur the upload
// on every reconnect. Evaluation keys are public material, so caching
// them does not extend the server's trust assumptions; a client that
// claims another's session ID can only waste server cycles producing
// ciphertexts it cannot decrypt (see DESIGN.md §3).
type registry struct {
	mu        sync.Mutex
	capCount  int
	capBytes  int64
	bytes     int64
	evictions int64
	entries   map[string]*regEntry
}

type regEntry struct {
	sess     *nn.ServerSession
	raw      []byte // serialized key bundle, as uploaded
	lastUsed time.Time
}

func newRegistry(capCount int, capBytes int64) *registry {
	return &registry{capCount: capCount, capBytes: capBytes, entries: make(map[string]*regEntry)}
}

// lookup returns the cached session for id, refreshing its LRU stamp.
func (r *registry) lookup(id string) *nn.ServerSession {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil
	}
	e.lastUsed = time.Now()
	return e.sess
}

// lookupFrame returns the raw serialized key bundle for id. It does not
// refresh the LRU stamp: reading the bundle is not evidence the
// session will reconnect.
func (r *registry) lookupFrame(id string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, false
	}
	return e.raw, true
}

// store caches a freshly installed session with its raw bundle,
// evicting least-recently-used entries until both the count cap and
// the byte budget hold again (the new entry itself is never evicted).
func (r *registry) store(id string, sess *nn.ServerSession, raw []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.entries[id]; ok {
		r.bytes -= int64(len(old.raw))
	}
	r.entries[id] = &regEntry{sess: sess, raw: raw, lastUsed: time.Now()}
	r.bytes += int64(len(raw))
	for len(r.entries) > 1 && (len(r.entries) > r.capCount || r.bytes > r.capBytes) {
		var oldest string
		var oldestAt time.Time
		for k, e := range r.entries {
			if k == id {
				continue
			}
			if oldest == "" || e.lastUsed.Before(oldestAt) {
				oldest, oldestAt = k, e.lastUsed
			}
		}
		if oldest == "" {
			break
		}
		r.bytes -= int64(len(r.entries[oldest].raw))
		delete(r.entries, oldest)
		r.evictions++
	}
}

func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// usage reports held bytes and the lifetime eviction count.
func (r *registry) usage() (bytes, evictions int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes, r.evictions
}
