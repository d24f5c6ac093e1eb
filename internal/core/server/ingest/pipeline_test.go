package ingest_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core/server/ingest"
	"repro/internal/obs"
	"repro/internal/vclock"
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
	if got := reg.Sum("sensocial_ingest_queue_capacity"); got != ingest.DefaultShards*ingest.DefaultQueueDepth {
		t.Fatalf("default capacity = %d, want %d queues of %d", got, ingest.DefaultShards, ingest.DefaultQueueDepth)
	}
}

func TestPipelineShardForIsStable(t *testing.T) {
	for _, k := range []string{"", "alice", "bob", "carol"} {
		i := ingest.ShardIndex(k, 4)
		if i < 0 || i >= 4 {
			t.Fatalf("shardIndex(%q) = %d outside [0,4)", k, i)
		}
		if j := ingest.ShardIndex(k, 4); j != i {
			t.Fatalf("shardIndex(%q) unstable: %d then %d", k, i, j)
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

// TestPipelineQueueWaitApartFromProcess: an item that queues behind a
// stalled one reports the stall as queue wait, not as its own process
// time; each processed item is one observation in each histogram.
func TestPipelineQueueWaitApartFromProcess(t *testing.T) {
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	reg := obs.NewRegistry()
	p, err := ingest.New(1, 4, keyOf, func(v keyed) {
		started <- struct{}{}
		if v.seq == 0 {
			<-gate
		}
	}, ingest.WithMetrics(reg), ingest.WithClock(clock))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !p.Enqueue(keyed{key: "u", seq: 0}) {
		t.Fatal("enqueue 0 rejected")
	}
	<-started // seq 0 was taken off the queue at t0 and is stalled in process
	clock.Advance(time.Second)
	if !p.Enqueue(keyed{key: "u", seq: 1}) {
		t.Fatal("enqueue 1 rejected")
	}
	clock.Advance(2 * time.Second)
	close(gate)
	p.Close()

	histogram := func(name string) (count uint64, sum float64) {
		for _, f := range reg.Snapshot() {
			if f.Name == name {
				return f.Samples[0].Count, f.Samples[0].Sum
			}
		}
		t.Fatalf("%s not registered", name)
		return 0, 0
	}
	// seq 0: waited 0 s, processed for 3 s; seq 1: waited 2 s, processed in 0 s.
	if n, sum := histogram("sensocial_ingest_queue_wait_seconds"); n != 2 || sum != 2 {
		t.Fatalf("queue wait: %d observations summing %v s, want 2 summing 2 s", n, sum)
	}
	if n, sum := histogram("sensocial_ingest_process_duration_seconds"); n != 2 || sum != 3 {
		t.Fatalf("process time: %d observations summing %v s, want 2 summing 3 s", n, sum)
	}
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
		if ingest.ShardIndex(k, 8) != ingest.ShardIndex("slow", 8) {
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

// TestPipelineCloseRacesProducers: Close lands at a random point among
// producers that are mid-Enqueue. Every accepted value must still be
// processed, and the counts must be final once Close returns: a send that
// passed the closed check before Close set it is waited out, not stranded
// behind workers that already drained and exited.
func TestPipelineCloseRacesProducers(t *testing.T) {
	const rounds, producers, perProducer = 200, 4, 64
	for r := 0; r < rounds; r++ {
		reg := obs.NewRegistry()
		var calls atomic.Uint64
		p, err := ingest.New(2, 4, keyOf, func(keyed) { calls.Add(1) }, ingest.WithMetrics(reg))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < producers; i++ {
			wg.Add(1)
			go func(key string) {
				defer wg.Done()
				<-start
				for seq := 0; seq < perProducer; seq++ {
					p.Enqueue(keyed{key: key, seq: seq})
				}
			}(fmt.Sprintf("u%d", i))
		}
		close(start)
		for i := 0; i < r%16; i++ {
			runtime.Gosched()
		}
		p.Close()
		e, pr := reg.Sum(enqueued), reg.Sum(processed)
		wg.Wait()
		if e != pr {
			t.Fatalf("round %d: enqueued %d != processed %d when Close returned", r, e, pr)
		}
		if late := reg.Sum(enqueued); late != e {
			t.Fatalf("round %d: %d values accepted after Close returned", r, late-e)
		}
		if got := calls.Load(); got != pr {
			t.Fatalf("round %d: %d process calls, processed counter %d", r, got, pr)
		}
		if total := reg.Sum(enqueued) + reg.Sum(dropped); total != producers*perProducer {
			t.Fatalf("round %d: enqueued + dropped = %d, want %d", r, total, producers*perProducer)
		}
	}
}

// itemShaped has core.Item's size and pointer layout (176 B: six strings,
// a time, a byte slice, a map and a pointer) without its dependencies.
type itemShaped struct {
	stream, device, user, modality, granularity string
	at                                          time.Time
	raw                                         []byte
	classified                                  string
	context                                     map[string]string
	action                                      *int
	aggregate                                   string
}

// TestPipelineIdleRetainedBytes: an idle pipeline of the server's default
// shape holds its queue slots and counters, not shards × depth values. A
// slot is a pointer, so 8 × 1024 slots are 64 KiB; value slots of a
// 176-byte item were 1.44 MB.
func TestPipelineIdleRetainedBytes(t *testing.T) {
	if size := unsafe.Sizeof(itemShaped{}); size != 176 {
		t.Fatalf("itemShaped is %d bytes, want core.Item's 176", size)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	p, err := ingest.New(8, 1024, func(v itemShaped) string { return v.user }, func(itemShaped) {})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	retained := heap() - before
	p.Close()
	t.Logf("idle New(8, 1024) of a 176-B item retains %d B", retained)
	if retained > 128<<10 {
		t.Fatalf("idle pipeline retains %d B, want ≤ %d", retained, 128<<10)
	}
}

// referent is what an item points at; its finalizer reports collection.
type referent struct{ pad [64]byte }

// refItem references one referent and nothing else does.
type refItem struct {
	key string
	ref *referent
}

// newReferent allocates a referent whose finalizer closes collected, in its
// own frame so no caller's stack slot keeps it alive.
//
//go:noinline
func newReferent(collected chan struct{}) *referent {
	r := &referent{}
	runtime.SetFinalizer(r, func(*referent) { close(collected) })
	return r
}

// enqueueReferent enqueues an item holding a fresh referent and returns
// whether it was accepted and the channel its finalizer closes.
//
//go:noinline
func enqueueReferent(p *ingest.Pipeline[refItem]) (bool, chan struct{}) {
	collected := make(chan struct{})
	return p.Enqueue(refItem{key: "u", ref: newReferent(collected)}), collected
}

// awaitCollected runs one GC and waits for the referent's finalizer. One
// cycle only: a sync.Pool keeps its boxes through the first GC (as the
// victim cache), so a box that was recycled without being zeroed keeps the
// referent alive past it and the finalizer does not run.
func awaitCollected(t *testing.T, what string, collected chan struct{}) {
	t.Helper()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: the item's referent survived a GC; a recycled box still holds it", what)
	}
}

// TestProcessedValueNotRetained: once an item is processed, or dropped on
// overflow, nothing in the pipeline references what it referenced — the
// box it rode in was zeroed before it went back to the pool.
func TestProcessedValueNotRetained(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	reg := obs.NewRegistry()
	p, err := ingest.New(1, 1, func(v refItem) string { return v.key }, func(v refItem) {
		started <- struct{}{}
		if v.ref == nil {
			<-gate
		}
	}, ingest.WithMetrics(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	defer close(gate) // before Close, or a failure would wait on the parked worker

	ok, collected := enqueueReferent(p)
	if !ok {
		t.Fatal("enqueue rejected on an empty pipeline")
	}
	<-started
	for reg.Sum(processed) != 1 {
		runtime.Gosched()
	}
	awaitCollected(t, "processed", collected)

	// Park the worker on a gated item, fill the depth-1 queue, then overflow.
	if !p.Enqueue(refItem{key: "u"}) {
		t.Fatal("gated enqueue rejected")
	}
	<-started
	if !p.Enqueue(refItem{key: "u"}) {
		t.Fatal("filling enqueue rejected")
	}
	ok, collected = enqueueReferent(p)
	if ok {
		t.Fatal("enqueue on a full depth-1 queue accepted")
	}
	awaitCollected(t, "dropped", collected)
}

// BenchmarkPipelineEnqueueProcess times one core.Item-sized value's round
// trip: Enqueue, the worker taking it off the queue, and the process call
// signalling back.
func BenchmarkPipelineEnqueueProcess(b *testing.B) {
	done := make(chan struct{}, 1)
	p, err := ingest.New(1, 1024, func(v itemShaped) string { return v.user },
		func(itemShaped) { done <- struct{}{} })
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer p.Close()
	v := itemShaped{stream: "wifi-1", device: "alice-phone", user: "alice", raw: []byte(`{"ssids":3}`)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Enqueue(v) {
			b.Fatal("enqueue rejected on an idle pipeline")
		}
		<-done
	}
}
