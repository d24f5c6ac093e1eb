package server

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
)

// ContextRegistry is the server's cross-user context cache plus the
// last-written-location memory, sharded N ways by hash(userID) so that
// ingest workers handling distinct users never contend on one lock. All
// context entries for a user live on that user's shard, which makes a
// per-user group of writes (one item's classified value plus its carried
// context snapshot) atomic with respect to readers: a cross-user filter
// evaluation can never observe a torn half of one item's update.
type ContextRegistry struct {
	shards []ctxShard

	locationWrites *obs.Counter
	locationSkips  *obs.Counter
}

// ctxShard holds the state of the users hashing onto it.
type ctxShard struct {
	mu sync.Mutex
	// users maps userID -> context modality -> value.
	users map[string]map[string]string
	// loc maps userID -> the location last written to the document store,
	// letting the ingest path skip no-op registry writes.
	loc map[string]lastLocation
}

// lastLocation remembers the most recent successful registry write.
type lastLocation struct {
	pt   geo.Point
	city string
}

// NewContextRegistry builds a registry with n shards (non-positive falls
// back to the pipeline default). Counters register against metrics (the
// families sensocial_context_*); nil metrics uses a private registry so
// the counters always exist.
func NewContextRegistry(n int, metrics *obs.Registry) *ContextRegistry {
	if n <= 0 {
		n = 8
	}
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	r := &ContextRegistry{shards: make([]ctxShard, n)}
	for i := range r.shards {
		r.shards[i].users = make(map[string]map[string]string)
		r.shards[i].loc = make(map[string]lastLocation)
	}
	r.locationWrites = metrics.Counter("sensocial_context_location_writes_total",
		"Location documents actually written to the user registry.")
	r.locationSkips = metrics.Counter("sensocial_context_location_skips_total",
		"Location updates elided because point and city were unchanged.")
	metrics.GaugeFunc("sensocial_context_users",
		"Users with at least one context entry in the cache.",
		func() float64 {
			total := 0
			for i := range r.shards {
				sh := &r.shards[i]
				sh.mu.Lock()
				total += len(sh.users)
				sh.mu.Unlock()
			}
			return float64(total)
		})
	return r
}

// shardOf returns the shard owning a user.
//
//sensolint:hotpath
func (r *ContextRegistry) shardOf(userID string) *ctxShard {
	h := uint32(2166136261)
	for i := 0; i < len(userID); i++ {
		h ^= uint32(userID[i])
		h *= 16777619
	}
	return &r.shards[h%uint32(len(r.shards))]
}

// Set records one context value for a user.
func (r *ContextRegistry) Set(userID, modality, value string) {
	if userID == "" {
		return
	}
	sh := r.shardOf(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.setLocked(userID, modality, value)
}

func (sh *ctxShard) setLocked(userID, modality, value string) {
	m := sh.users[userID]
	if m == nil {
		m = make(map[string]string)
		sh.users[userID] = m
	}
	m[modality] = value
}

// ApplyItem folds one item's context contribution into the registry under a
// single shard lock: the classified value (re-keyed by the producing
// sensor's context modality) and every same-user entry of the carried
// context snapshot land atomically.
//
//sensolint:hotpath
func (r *ContextRegistry) ApplyItem(item core.Item) {
	if item.UserID == "" {
		return
	}
	classifiedMod := ""
	if item.Granularity == core.GranularityClassified && item.Classified != "" {
		if ctxMod, err := core.ContextForSensor(item.Modality); err == nil {
			classifiedMod = ctxMod
		}
	}
	if classifiedMod == "" && len(item.Context) == 0 {
		return
	}
	sh := r.shardOf(item.UserID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if classifiedMod != "" {
		//lint:ignore hotpath setLocked's inlined map init runs once per new user, never steady-state
		sh.setLocked(item.UserID, classifiedMod, item.Classified)
	}
	for k, v := range item.Context {
		// Only same-user context entries (plain modality keys) are re-keyed
		// under the item's user.
		if core.ValidContextModality(k) {
			//lint:ignore hotpath setLocked's inlined map init runs once per new user, never steady-state
			sh.setLocked(item.UserID, k, v)
		}
	}
}

// SnapshotUsers copies the context entries of the given users into a
// cross-user keyed core.Context. Each user's entries are copied under that
// user's shard lock, so per-user groups are internally consistent.
func (r *ContextRegistry) SnapshotUsers(userIDs []string) core.Context {
	out := make(core.Context, len(userIDs)*2)
	for _, u := range userIDs {
		sh := r.shardOf(u)
		sh.mu.Lock()
		for mod, v := range sh.users[u] {
			out[core.Key(u, mod)] = v
		}
		sh.mu.Unlock()
	}
	return out
}

// SnapshotAll merges every shard into one cross-user keyed core.Context.
func (r *ContextRegistry) SnapshotAll() core.Context {
	out := make(core.Context)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for u, mods := range sh.users {
			for mod, v := range mods {
				out[core.Key(u, mod)] = v
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Users returns the users with any context entry, sorted (diagnostics).
func (r *ContextRegistry) Users() []string {
	var out []string
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for u := range sh.users {
			out = append(out, u)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// LocationUnchanged reports whether a pending registry write for the user
// matches the last successfully written point and city, i.e. would be a
// no-op. The skip is counted.
//
//sensolint:hotpath
func (r *ContextRegistry) LocationUnchanged(userID string, pt geo.Point, city string) bool {
	sh := r.shardOf(userID)
	sh.mu.Lock()
	last, ok := sh.loc[userID]
	sh.mu.Unlock()
	if ok && last.pt == pt && last.city == city {
		r.locationSkips.Inc()
		return true
	}
	return false
}

// RememberLocation records a successful registry write so subsequent
// identical fixes can be skipped.
func (r *ContextRegistry) RememberLocation(userID string, pt geo.Point, city string) {
	sh := r.shardOf(userID)
	sh.mu.Lock()
	sh.loc[userID] = lastLocation{pt: pt, city: city}
	sh.mu.Unlock()
	r.locationWrites.Inc()
}
