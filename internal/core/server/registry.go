package server

import (
	"fmt"
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
	// users maps userID -> that user's record: one entry per context
	// modality seen, at most eight, scanned linearly. A record is a single
	// small allocation; a map per user cost nearly four times as much to
	// hold one value (EXPERIMENTS.md "Context registry: records per user").
	users map[string][]ctxEntry
	// entries counts the (user, modality) values held in users.
	entries int
	// loc maps userID -> the location last written to the document store,
	// letting the ingest path skip no-op registry writes.
	loc map[string]lastLocation
}

// ctxEntry is one context value of a user's record.
type ctxEntry struct {
	value    string
	modality uint8 // core.ContextModalityIndex of the value's modality
}

// noModality stands for a name outside the context vocabulary: no entry
// carries it, so a lookup by it finds nothing.
const noModality = uint8(255)

// modalityIndex maps a context modality name to its entry tag.
func modalityIndex(name string) uint8 {
	if i, ok := core.ContextModalityIndex(name); ok {
		return uint8(i)
	}
	return noModality
}

// ctxCondition is a filter condition with its modality resolved once, at
// filter install time, to the tag evalUser compares entries by.
type ctxCondition struct {
	core.Condition
	modality uint8
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
		r.shards[i].users = make(map[string][]ctxEntry)
		r.shards[i].loc = make(map[string]lastLocation)
	}
	r.locationWrites = metrics.Counter("sensocial_context_location_writes_total",
		"Location documents actually written to the user registry.")
	r.locationSkips = metrics.Counter("sensocial_context_location_skips_total",
		"Location updates elided because point and city were unchanged.")
	metrics.GaugeFunc("sensocial_context_users",
		"Users with at least one context entry in the cache.",
		func() float64 { return float64(r.total(func(sh *ctxShard) int { return len(sh.users) })) })
	metrics.GaugeFunc("sensocial_context_entries",
		"Context values, one per (user, modality), held in the cache.",
		func() float64 { return float64(r.total(func(sh *ctxShard) int { return sh.entries })) })
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

// total sums a per-shard count, reading each shard under its lock.
func (r *ContextRegistry) total(count func(*ctxShard) int) int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += count(sh)
		sh.mu.Unlock()
	}
	return n
}

// Set records one context value for a user. A modality outside
// core.ContextModalities() is refused: no filter could ever read it back.
func (r *ContextRegistry) Set(userID, modality, value string) error {
	if userID == "" {
		return nil
	}
	mod := modalityIndex(modality)
	if mod == noModality {
		return fmt.Errorf("server: context of %q: unknown modality %q", userID, modality)
	}
	sh := r.shardOf(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.setLocked(userID, mod, value)
	return nil
}

func (sh *ctxShard) setLocked(userID string, modality uint8, value string) {
	rec := sh.users[userID]
	for i := range rec {
		if rec[i].modality == modality {
			rec[i].value = value
			return
		}
	}
	sh.users[userID] = append(rec, ctxEntry{value: value, modality: modality})
	sh.entries++
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
	classifiedMod := noModality
	if item.Granularity == core.GranularityClassified && item.Classified != "" {
		if ctxMod, err := core.ContextForSensor(item.Modality); err == nil {
			classifiedMod = modalityIndex(ctxMod)
		}
	}
	if classifiedMod == noModality && len(item.Context) == 0 {
		return
	}
	sh := r.shardOf(item.UserID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if classifiedMod != noModality {
		sh.setLocked(item.UserID, classifiedMod, item.Classified)
	}
	for k, v := range item.Context {
		// Only same-user context entries (plain modality keys) are re-keyed
		// under the item's user.
		if mod := modalityIndex(k); mod != noModality {
			sh.setLocked(item.UserID, mod, v)
		}
	}
}

// evalUser reports whether the user's context satisfies every condition,
// read in place under that user's shard lock: the conditions see one
// consistent record, never a half of one item's update, and nothing is
// copied out.
//
//sensolint:hotpath
func (r *ContextRegistry) evalUser(userID string, conds []ctxCondition) bool {
	sh := r.shardOf(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.users[userID]
	for i := range conds {
		got, ok := "", false
		for j := range rec {
			if rec[j].modality == conds[i].modality {
				got, ok = rec[j].value, true
				break
			}
		}
		if !conds[i].EvalValue(got, ok) {
			return false
		}
	}
	return true
}

// SnapshotUsers copies the context entries of the given users into a
// cross-user keyed core.Context. Each user's entries are copied under that
// user's shard lock, so per-user groups are internally consistent.
func (r *ContextRegistry) SnapshotUsers(userIDs []string) core.Context {
	names := core.ContextModalities()
	out := make(core.Context, len(userIDs)*2)
	for _, u := range userIDs {
		sh := r.shardOf(u)
		sh.mu.Lock()
		for _, e := range sh.users[u] {
			out[core.Key(u, names[e.modality])] = e.value
		}
		sh.mu.Unlock()
	}
	return out
}

// SnapshotAll merges every shard into one cross-user keyed core.Context.
func (r *ContextRegistry) SnapshotAll() core.Context {
	names := core.ContextModalities()
	out := make(core.Context)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for u, rec := range sh.users {
			for _, e := range rec {
				out[core.Key(u, names[e.modality])] = e.value
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// lastPoint returns the point of the user's last successful registry write,
// if one is remembered.
//
//sensolint:hotpath
func (r *ContextRegistry) lastPoint(userID string) (geo.Point, bool) {
	sh := r.shardOf(userID)
	sh.mu.Lock()
	last, ok := sh.loc[userID]
	sh.mu.Unlock()
	return last.pt, ok
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
