package ingest

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// This file is a property test, not an example-based one: each seed
// generates a randomized pipeline shape (shards, queue depth, user count,
// ops per user, optional mid-run Close) and a randomized interleaving of
// producers, then asserts the pipeline's core contract:
//
//  1. per-user ordering — the processed sequence for a user is strictly
//     increasing, and the values accepted for a user are a prefix of its
//     submissions: a full queue waits, so only Close rejects, and without
//     a Close nothing is rejected;
//  2. no fabrication — every processed value was a successful Enqueue;
//  3. counter coherence — every Enqueue call lands in exactly one of
//     Enqueued/Dropped, and Processed matches the callback count;
//  4. accepted implies processed — exact, also when Close races the
//     producers.
//
// Failures are reproducible from the seed baked into the subtest name
// (`-run 'TestPipelinePerUserOrderingProperty/seed=17$'`) and are shrunk
// to a smaller failing configuration before reporting.

type propItem struct {
	user string
	seq  int
}

type propParams struct {
	seed     int64
	shards   int
	depth    int
	users    int
	opsEach  int
	midClose bool
}

func (p propParams) String() string {
	return fmt.Sprintf("seed=%d shards=%d depth=%d users=%d ops=%d midClose=%v",
		p.seed, p.shards, p.depth, p.users, p.opsEach, p.midClose)
}

func randParams(seed int64) propParams {
	rng := rand.New(rand.NewSource(seed))
	return propParams{
		seed:     seed,
		shards:   1 + rng.Intn(4),
		depth:    1 + rng.Intn(8),
		users:    1 + rng.Intn(6),
		opsEach:  20 + rng.Intn(180),
		midClose: rng.Intn(2) == 0,
	}
}

// runOrderingScenario executes one randomized interleaving and returns a
// description of the first property violation, or nil.
func runOrderingScenario(p propParams) error {
	rng := rand.New(rand.NewSource(p.seed))
	var mu sync.Mutex
	got := make(map[string][]int, p.users)
	reg := obs.NewRegistry()
	pl, err := New[propItem](p.shards, p.depth,
		func(it propItem) string { return it.user },
		func(it propItem) {
			mu.Lock()
			got[it.user] = append(got[it.user], it.seq)
			mu.Unlock()
		}, WithMetrics(reg))
	if err != nil {
		return err
	}

	totalOps := uint64(p.users * p.opsEach)
	var attempted, acceptedTotal atomic.Uint64
	accepted := make([][]int, p.users)

	// Optionally race a Close against the producers, triggered once a
	// random number of Enqueue calls have happened.
	var closeWG sync.WaitGroup
	if p.midClose {
		closeAt := uint64(1 + rng.Intn(int(totalOps)))
		closeWG.Add(1)
		go func() {
			defer closeWG.Done()
			for attempted.Load() < closeAt {
				runtime.Gosched()
			}
			pl.Close()
		}()
	}

	// One producer per user: per-user submission order is only defined
	// when a single goroutine enqueues that user's items.
	seeds := make([]int64, p.users)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	var wg sync.WaitGroup
	for u := 0; u < p.users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(seeds[u]))
			user := fmt.Sprintf("user-%d", u)
			for seq := 0; seq < p.opsEach; seq++ {
				if pl.Enqueue(propItem{user: user, seq: seq}) {
					accepted[u] = append(accepted[u], seq)
					acceptedTotal.Add(1)
				}
				attempted.Add(1)
				if prng.Intn(4) == 0 {
					runtime.Gosched()
				}
			}
		}(u)
	}
	wg.Wait()
	closeWG.Wait()
	pl.Close()

	enqueued := reg.Sum("sensocial_ingest_enqueued_total")
	if dropped := reg.Sum("sensocial_ingest_dropped_total"); enqueued+dropped != totalOps {
		return fmt.Errorf("counter leak: enqueued=%d + dropped=%d != %d Enqueue calls",
			enqueued, dropped, totalOps)
	}
	if enqueued != acceptedTotal.Load() {
		return fmt.Errorf("enqueued counter %d != %d accepted Enqueue calls",
			enqueued, acceptedTotal.Load())
	}
	var processedTotal uint64
	for u := 0; u < p.users; u++ {
		user := fmt.Sprintf("user-%d", u)
		seqs := got[user]
		processedTotal += uint64(len(seqs))
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				return fmt.Errorf("user %s: processed seq %d at index %d not after %d",
					user, seqs[i], i, seqs[i-1])
			}
		}
		for i, s := range accepted[u] {
			if s != i {
				return fmt.Errorf("user %s: accepted seq %d at index %d; a rejection came before Close",
					user, s, i)
			}
		}
		if !p.midClose && len(accepted[u]) != p.opsEach {
			return fmt.Errorf("user %s: accepted %d of %d items with no Close",
				user, len(accepted[u]), p.opsEach)
		}
		accSet := make(map[int]struct{}, len(accepted[u]))
		for _, s := range accepted[u] {
			accSet[s] = struct{}{}
		}
		for _, s := range seqs {
			if _, ok := accSet[s]; !ok {
				return fmt.Errorf("user %s: processed seq %d was never accepted", user, s)
			}
		}
		// Drained means every accepted item was processed — not merely a
		// subsequence — whether or not Close raced the producers.
		if len(seqs) != len(accepted[u]) {
			return fmt.Errorf("user %s: accepted %d items but processed %d",
				user, len(accepted[u]), len(seqs))
		}
	}
	if processed := reg.Sum("sensocial_ingest_processed_total"); processed != processedTotal {
		return fmt.Errorf("processed counter %d != %d callback invocations",
			processed, processedTotal)
	}
	return nil
}

// shrinkOrdering reduces a failing configuration one dimension at a time,
// keeping a mutation only if the scenario still fails (retried a few times
// since interleavings are nondeterministic). Returns the smallest failing
// params found and the violation it produced.
func shrinkOrdering(p propParams, firstErr error) (propParams, error) {
	const retries = 3
	stillFails := func(c propParams) error {
		for i := 0; i < retries; i++ {
			if err := runOrderingScenario(c); err != nil {
				return err
			}
		}
		return nil
	}
	cur, curErr := p, firstErr
	for progress := true; progress; {
		progress = false
		candidates := []propParams{}
		if cur.opsEach > 1 {
			c := cur
			c.opsEach /= 2
			if c.opsEach < 1 {
				c.opsEach = 1
			}
			candidates = append(candidates, c)
		}
		if cur.users > 1 {
			c := cur
			c.users--
			candidates = append(candidates, c)
		}
		if cur.shards > 1 {
			c := cur
			c.shards = 1
			candidates = append(candidates, c)
		}
		if cur.depth > 1 {
			c := cur
			c.depth = 1
			candidates = append(candidates, c)
		}
		if cur.midClose {
			c := cur
			c.midClose = false
			candidates = append(candidates, c)
		}
		for _, c := range candidates {
			if err := stillFails(c); err != nil {
				cur, curErr = c, err
				progress = true
				break
			}
		}
	}
	return cur, curErr
}

func TestPipelinePerUserOrderingProperty(t *testing.T) {
	const seeds = 40
	for seed := int64(1); seed <= seeds; seed++ {
		p := randParams(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if err := runOrderingScenario(p); err != nil {
				minP, minErr := shrinkOrdering(p, err)
				t.Fatalf("property violated with %v: %v\nshrunk to %v: %v",
					p, err, minP, minErr)
			}
		})
	}
}
