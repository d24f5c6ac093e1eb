package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// FilterTable holds the server-side filters and the coarse per-item hooks
// behind a copy-on-write snapshot: the ingest hot path reads the current
// snapshot with one atomic load and never takes a lock, so filter
// evaluation and listener dispatch proceed without serializing on writers.
// Writers (stream creation/destruction, hook registration) are rare; they
// serialize on a mutex and publish a fresh snapshot.
type FilterTable struct {
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[filterSnapshot]
}

// filterSnapshot is an immutable view of the table. Fields must never be
// mutated after publication.
type filterSnapshot struct {
	// filters holds, by stream id, what the server has to evaluate of the
	// stream's filter: its cross-user conditions, grouped by the user they
	// read so the hot path neither rescans conditions nor allocates. Empty
	// means nothing (same-user conditions were already enforced on the
	// mobile).
	filters map[string][]userConditions
	hooks   []func(core.Item)
}

// userConditions are the conditions of one filter on one other user's
// context; ContextRegistry.evalUser evaluates them in one visit.
type userConditions struct {
	userID string
	conds  []ctxCondition
}

// NewFilterTable returns an empty table.
func NewFilterTable() *FilterTable {
	t := &FilterTable{}
	t.snap.Store(&filterSnapshot{filters: map[string][]userConditions{}})
	return t
}

// Snapshot returns the current immutable view.
//
//sensolint:hotpath
func (t *FilterTable) Snapshot() *filterSnapshot { return t.snap.Load() }

// Set installs (or replaces) a stream's filter.
func (t *FilterTable) Set(streamID string, f core.Filter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.snap.Load()
	filters := make(map[string][]userConditions, len(cur.filters)+1)
	for k, v := range cur.filters {
		filters[k] = v
	}
	filters[streamID] = compileFilter(f)
	t.snap.Store(&filterSnapshot{filters: filters, hooks: cur.hooks})
}

// Delete removes a stream's filter.
func (t *FilterTable) Delete(streamID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.snap.Load()
	if _, ok := cur.filters[streamID]; !ok {
		return
	}
	filters := make(map[string][]userConditions, len(cur.filters)-1)
	for k, v := range cur.filters {
		if k != streamID {
			filters[k] = v
		}
	}
	t.snap.Store(&filterSnapshot{filters: filters, hooks: cur.hooks})
}

// AddHook appends a per-item hook.
func (t *FilterTable) AddHook(f func(core.Item)) {
	if f == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.snap.Load()
	hooks := make([]func(core.Item), len(cur.hooks)+1)
	copy(hooks, cur.hooks)
	hooks[len(cur.hooks)] = f
	t.snap.Store(&filterSnapshot{filters: cur.filters, hooks: hooks})
}

// Len reports how many streams have a filter installed.
func (t *FilterTable) Len() int { return len(t.snap.Load().filters) }

// compileFilter groups a filter's cross-user conditions by user, in order
// of first mention.
func compileFilter(f core.Filter) []userConditions {
	var groups []userConditions
	for _, c := range f.Conditions {
		if c.UserID == "" {
			continue
		}
		g := 0
		for g < len(groups) && groups[g].userID != c.UserID {
			g++
		}
		if g == len(groups) {
			groups = append(groups, userConditions{userID: c.UserID})
		}
		groups[g].conds = append(groups[g].conds, ctxCondition{Condition: c, modality: modalityIndex(c.Modality)})
	}
	return groups
}
