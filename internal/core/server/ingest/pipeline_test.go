package ingest_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core/server/ingest"
	"repro/internal/obs"
)

// The pipeline's counts are read where they live: the registry series.
const (
	enqueued  = "sensocial_ingest_enqueued_total"
	dropped   = "sensocial_ingest_dropped_total"
	processed = "sensocial_ingest_processed_total"
)

// keyed is the test payload: a partition key plus a sequence number.
type keyed struct {
	key string
	seq int
}

func keyOf(v keyed) string { return v.key }

func TestPipelineValidation(t *testing.T) {
	if _, err := ingest.New[keyed](4, 16, nil, func(keyed) {}); err == nil {
		t.Fatal("nil key function accepted")
	}
	if _, err := ingest.New[keyed](4, 16, keyOf, nil); err == nil {
		t.Fatal("nil process function accepted")
	}
	reg := obs.NewRegistry()
	p, err := ingest.New(0, 0, keyOf, func(keyed) {}, ingest.WithMetrics(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	if p.Shards() != ingest.DefaultShards {
		t.Fatalf("default shards = %d, want %d", p.Shards(), ingest.DefaultShards)
	}
	if got := reg.Sum("sensocial_ingest_queue_capacity"); got != ingest.DefaultShards*ingest.DefaultQueueDepth {
		t.Fatalf("default capacity = %d, want %d queues of %d", got, ingest.DefaultShards, ingest.DefaultQueueDepth)
	}
}

func TestPipelineShardForIsStable(t *testing.T) {
	p, err := ingest.New(4, 8, keyOf, func(keyed) {})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	for _, k := range []string{"", "alice", "bob", "carol"} {
		i := p.ShardFor(k)
		if i < 0 || i >= 4 {
			t.Fatalf("ShardFor(%q) = %d outside [0,4)", k, i)
		}
		if j := p.ShardFor(k); j != i {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", k, i, j)
		}
	}
}

// TestPipelinePerKeyOrdering floods the pipeline from one producer per key
// and asserts every key's values are processed exactly once, in submission
// order, even though keys share shards and shards run in parallel.
func TestPipelinePerKeyOrdering(t *testing.T) {
	const keys, perKey = 8, 1000
	var mu sync.Mutex
	got := make(map[string][]int, keys)
	reg := obs.NewRegistry()
	p, err := ingest.New(4, 4096, keyOf, func(v keyed) {
		mu.Lock()
		got[v.key] = append(got[v.key], v.seq)
		mu.Unlock()
	}, ingest.WithMetrics(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for seq := 0; seq < perKey; seq++ {
				for !p.Enqueue(keyed{key: key, seq: seq}) {
					runtime.Gosched() // backpressure: retry instead of losing order
				}
			}
		}(fmt.Sprintf("user-%d", k))
	}
	wg.Wait()
	p.Close() // drains the accepted backlog

	if p, e := reg.Sum(processed), reg.Sum(enqueued); p != e {
		t.Fatalf("processed %d != enqueued %d after Close", p, e)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("user-%d", k)
		seqs := got[key]
		if len(seqs) != perKey {
			t.Fatalf("key %s: %d values, want %d", key, len(seqs), perKey)
		}
		for i, s := range seqs {
			if s != i {
				t.Fatalf("key %s: position %d has seq %d — order broken", key, i, s)
			}
		}
	}
}

// TestPipelineOverflowDropsCounted blocks the single worker and overfills
// its depth-1 queue: the excess must be rejected and counted, never
// silently lost and never blocking the producer.
func TestPipelineOverflowDropsCounted(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	reg := obs.NewRegistry()
	p, err := ingest.New(1, 1, keyOf, func(keyed) {
		started <- struct{}{}
		<-gate
	}, ingest.WithMetrics(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const total = 20
	accepted := 0
	if !p.Enqueue(keyed{key: "u", seq: 0}) {
		t.Fatal("first enqueue rejected on an empty pipeline")
	}
	accepted++
	<-started // the worker now blocks inside process, queue is empty again
	for i := 1; i < total; i++ {
		if p.Enqueue(keyed{key: "u", seq: i}) {
			accepted++
		}
	}
	if reg.Sum(dropped) == 0 {
		t.Fatal("overfilling a depth-1 queue dropped nothing")
	}
	if e, d := reg.Sum(enqueued), reg.Sum(dropped); e+d != total {
		t.Fatalf("enqueued %d + dropped %d != sent %d", e, d, total)
	}
	close(gate)
	go func() {
		for range started { // release the remaining blocked process calls
		}
	}()
	p.Close()
	close(started)

	if p, e := reg.Sum(processed), reg.Sum(enqueued); p != e {
		t.Fatalf("processed %d != enqueued %d: accepted values were lost", p, e)
	}
}

// TestPipelineCloseDrainsBacklog: values accepted before Close are
// processed even if the workers have not reached them yet.
func TestPipelineCloseDrainsBacklog(t *testing.T) {
	var mu sync.Mutex
	n := 0
	reg := obs.NewRegistry()
	p, err := ingest.New(2, 128, keyOf, func(keyed) {
		mu.Lock()
		n++
		mu.Unlock()
	}, ingest.WithMetrics(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const total = 100
	for i := 0; i < total; i++ {
		if !p.Enqueue(keyed{key: fmt.Sprintf("u%d", i%5), seq: i}) {
			t.Fatalf("enqueue %d rejected below queue capacity", i)
		}
	}
	p.Close()
	if n != total {
		t.Fatalf("processed %d of %d accepted values after Close", n, total)
	}
	if p.Enqueue(keyed{key: "late"}) {
		t.Fatal("enqueue accepted after Close")
	}
	if got := reg.Sum(dropped); got != 1 {
		t.Fatalf("post-close drops = %d, want the one late enqueue counted", got)
	}
	p.Close() // idempotent
}

// TestPipelineParallelismAcrossKeys: with workers per shard, two keys on
// different shards make progress independently — a stalled key cannot
// starve the other. (Timing-free: we only require completion.)
func TestPipelineParallelismAcrossKeys(t *testing.T) {
	slowGate := make(chan struct{})
	done := make(chan string, 64)
	p, err := ingest.New(8, 64, keyOf, func(v keyed) {
		if v.key == "slow" {
			<-slowGate
		}
		done <- v.key
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	if !p.Enqueue(keyed{key: "slow"}) {
		t.Fatal("enqueue slow rejected")
	}
	// Find a fast key on a different shard so the blocked worker is not ours.
	fast := ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("fast-%d", i)
		if p.ShardFor(k) != p.ShardFor("slow") {
			fast = k
			break
		}
	}
	if fast == "" {
		t.Fatal("no key landed on a different shard")
	}
	if !p.Enqueue(keyed{key: fast}) {
		t.Fatal("enqueue fast rejected")
	}
	select {
	case k := <-done:
		if k != fast {
			t.Fatalf("first completion %q, want %q (slow is gated)", k, fast)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fast key starved by a stalled shard")
	}
	close(slowGate)
	<-done
}
