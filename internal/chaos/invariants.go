package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/netsim"
	"repro/internal/shard"
)

// maxViolations caps how many breach lines a run records; past the cap
// only the counter grows, so a systemic failure cannot balloon memory.
const maxViolations = 64

// checker accumulates invariant state from the server's item tap and
// asserts the mid-run and end-of-run invariants. The tap runs on ingest
// shard goroutines, so all state is mutex-guarded.
type checker struct {
	mu         sync.Mutex
	items      uint64
	lastTime   map[string]time.Time // per-user last ingested item time
	lastClass  map[string]string    // per-user last delivered classification
	seen       map[dupKey]int       // per (device, timestamp) delivery count
	violations []string
	suppressed int
}

type dupKey struct {
	device string
	nanos  int64
}

func newChecker() *checker {
	return &checker{
		lastTime:  make(map[string]time.Time),
		lastClass: make(map[string]string),
		seen:      make(map[dupKey]int),
	}
}

// tap observes every item the server ingests. Shards serialize items per
// user, so per-user ordering observed here is the order the registry and
// delivery hooks saw.
func (c *checker) tap(item core.Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items++
	if prev, ok := c.lastTime[item.UserID]; ok && !item.Time.After(prev) {
		c.violateLocked("ordering: user %s item at %v not after previous %v",
			item.UserID, item.Time, prev)
	}
	c.lastTime[item.UserID] = item.Time
	k := dupKey{device: item.DeviceID, nanos: item.Time.UnixNano()}
	c.seen[k]++
	if n := c.seen[k]; n > 1 {
		c.violateLocked("duplicate: device %s item at %v ingested %d times",
			item.DeviceID, item.Time, n)
	}
	if item.Granularity == core.GranularityClassified {
		if mod, err := core.ContextForSensor(item.Modality); err == nil && mod == core.CtxPhysicalActivity {
			c.lastClass[item.UserID] = item.Classified
		}
	}
}

// checkStaleness asserts, at quiesce, that the context registry owning
// each user holds exactly the last delivered classification — i.e.
// context snapshots are never staler than the newest ingested item.
// regOf resolves a user to its shard's registry (one shared registry on
// single-shard runs); returning nil skips the user (its owner was
// killed, so its snapshot is frozen, not stale).
func (c *checker) checkStaleness(regOf func(userID string) *server.ContextRegistry) {
	c.mu.Lock()
	want := make(map[string]string, len(c.lastClass))
	for u, cls := range c.lastClass {
		want[u] = cls
	}
	c.mu.Unlock()
	if len(want) == 0 {
		return
	}
	byReg := make(map[*server.ContextRegistry][]string)
	for u := range want {
		if reg := regOf(u); reg != nil {
			byReg[reg] = append(byReg[reg], u)
		}
	}
	for reg, users := range byReg {
		sort.Strings(users)
		snap := reg.SnapshotUsers(users)
		for _, u := range users {
			if got := snap[core.Key(u, core.CtxPhysicalActivity)]; got != want[u] {
				c.violate("staleness: user %s registry=%q, last delivered=%q", u, got, want[u])
			}
		}
	}
}

// checkConservation asserts the end-of-run accounting identities between
// the pool's sample ledger, the server ingest pipelines and the fault
// tallies, all read from the shards' registries. The ledger and the fabric's
// fault series are the deployment's, exported by shard 0; ingest is summed
// over the ring, dead shards included (a killed shard's pipeline drained on
// close, so its frozen counters still account for everything it accepted).
func (c *checker) checkConservation(shards []*shard.Shard, qos byte) {
	fleet := shards[0].Metrics
	samples := fleet.Sum("sensocial_sim_samples_total")
	published := fleet.Sum("sensocial_sim_items_published_total")
	ackLost := fleet.Sum("sensocial_sim_items_ack_lost_total")
	dropped := fleet.Sum("sensocial_sim_items_dropped_total")
	backlog := fleet.Sum("sensocial_sim_backlog")
	if samples != published+ackLost+dropped+backlog {
		c.violate("conservation: pool samples=%d != published=%d + ackLost=%d + dropped=%d + backlog=%d",
			samples, published, ackLost, dropped, backlog)
	}
	var enqueued, processed, rejected uint64
	for _, sh := range shards {
		enqueued += sh.Metrics.Sum("sensocial_ingest_enqueued_total")
		processed += sh.Metrics.Sum("sensocial_ingest_processed_total")
		rejected += sh.Metrics.Sum("sensocial_ingest_dropped_total")
	}
	if enqueued != processed {
		c.violate("conservation: ingest enqueued=%d != processed=%d at quiesce", enqueued, processed)
	}
	// Enqueued counts accepted items, dropped counts those a closing
	// pipeline refused; together they are every stream-data publish the
	// broker routed to the server.
	received := enqueued + rejected
	if qos >= 1 {
		// QoS 1 publishes only count once acked, and the broker acks
		// only after routing, so every published item reached ingest; the
		// ambiguous ack-lost ones may or may not have.
		if received < published || received > published+ackLost {
			c.violate("conservation: QoS1 ingest received=%d outside [published=%d, published+ackLost=%d]",
				received, published, published+ackLost)
		}
		return
	}
	// QoS 0 publishes count on write success; faults may discard them in
	// flight, so receipts can only fall short — and must match exactly on
	// a run in which no fault severed the fabric, reset a connection or
	// shaped a link.
	if received > published {
		c.violate("conservation: QoS0 ingest received=%d exceeds published=%d", received, published)
	}
	const faults = "sensocial_netsim_faults_total"
	disruptive := fleet.Sum("sensocial_netsim_conn_resets_total")
	for _, kind := range []netsim.FaultKind{netsim.FaultPartition, netsim.FaultCrash, netsim.FaultKill,
		netsim.FaultLatency, netsim.FaultBandwidth, netsim.FaultLoss} {
		disruptive += fleet.Sum(faults, kind.String())
	}
	if disruptive == 0 && received != published {
		c.violate("conservation: fault-free QoS0 run ingested %d of %d published", received, published)
	}
}

func (c *checker) violate(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violateLocked(format, args...)
}

func (c *checker) violateLocked(format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.suppressed++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// report returns the recorded violations and the item count.
func (c *checker) report() ([]string, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.violations...)
	if c.suppressed > 0 {
		out = append(out, fmt.Sprintf("... and %d more violations suppressed", c.suppressed))
	}
	return out, c.items
}
