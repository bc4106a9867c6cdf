package serve

import (
	"errors"
	"sort"
	"sync"
)

// Per-tenant quota admission. Sessions may declare a tenant identity in
// the hello frame; the server tracks each tenant's in-flight sessions,
// inferences, and traffic, and rejects a tenant exceeding its
// concurrent-session quota with a busy ack carrying a retry-after hint
// — so one greedy tenant queues behind its own quota instead of
// head-of-line blocking everyone else in the worker pool. Tenantless
// sessions bypass quota and are accounted under the pool alone.

// ErrTenantOverQuota reports a session rejected because its tenant
// already runs its full quota of concurrent sessions.
var ErrTenantOverQuota = errors.New("serve: tenant over session quota")

type tenantEntry struct {
	active     int64
	total      int64
	rejected   int64
	inferences int64
	bytesUp    int64
	bytesDown  int64
}

// tenantTable tracks per-tenant counters. A plain mutex suffices: it is
// touched once per session open/close/rejection and once per inference,
// all noise against the HE kernels the sessions spend their time in.
type tenantTable struct {
	mu sync.Mutex
	m  map[string]*tenantEntry
}

func (tt *tenantTable) entry(tenant string) *tenantEntry {
	if tt.m == nil {
		tt.m = map[string]*tenantEntry{}
	}
	e := tt.m[tenant]
	if e == nil {
		e = &tenantEntry{}
		tt.m[tenant] = e
	}
	return e
}

// admit claims one in-flight session for tenant, or (when the tenant
// already holds maxSessions) records the rejection and reports false.
// maxSessions <= 0 means unlimited.
func (tt *tenantTable) admit(tenant string, maxSessions int) bool {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	e := tt.entry(tenant)
	if maxSessions > 0 && e.active >= int64(maxSessions) {
		e.rejected++
		return false
	}
	e.active++
	e.total++
	return true
}

// release returns a session's slot and folds its traffic totals in.
func (tt *tenantTable) release(tenant string, bytesUp, bytesDown int64) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	e := tt.entry(tenant)
	e.active--
	e.bytesUp += bytesUp
	e.bytesDown += bytesDown
}

func (tt *tenantTable) addInference(tenant string) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	tt.entry(tenant).inferences++
}

// TenantStats is one tenant's counters in a Stats snapshot.
type TenantStats struct {
	Tenant         string
	ActiveSessions int64
	SessionsTotal  int64
	// SessionsRejected counts quota rejections (busy ack + retry-after),
	// not worker-pool saturation.
	SessionsRejected int64
	Inferences       int64
	BytesUp          int64
	BytesDown        int64
}

// snapshot returns per-tenant counters sorted by tenant ID, so stats
// output is stable across calls.
func (tt *tenantTable) snapshot() []TenantStats {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if len(tt.m) == 0 {
		return nil
	}
	out := make([]TenantStats, 0, len(tt.m))
	for tenant, e := range tt.m {
		out = append(out, TenantStats{
			Tenant:           tenant,
			ActiveSessions:   e.active,
			SessionsTotal:    e.total,
			SessionsRejected: e.rejected,
			Inferences:       e.inferences,
			BytesUp:          e.bytesUp,
			BytesDown:        e.bytesDown,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
