// Package ingest provides the sharded, bounded intake pipeline the server
// Filter Manager runs items through. It is deliberately generic and free of
// middleware dependencies: a Pipeline is N independent worker shards, each
// owning a bounded queue, with items partitioned by a caller-supplied key so
// that all items sharing a key are processed in submission order by a single
// worker while distinct keys proceed in parallel.
//
// The overflow policy is explicit: Enqueue never blocks. When a shard's
// queue is full the item is rejected and counted, not silently lost and not
// buffered without bound — the caller decides whether to retry, drop, or
// surface backpressure. This mirrors how MOSDEN-style collaborative sensing
// platforms separate collection from processing with bounded hand-off
// buffers between the stages.
//
// A queue slot is a pointer to a box drawn from a per-pipeline sync.Pool,
// not a value: the boxes exist while items wait, so an idle pipeline holds
// shards × depth pointers rather than shards × depth values.
//
// The counters are obs registry series (families sensocial_ingest_*) and
// nothing else: read them with Registry.Sum or off a /metrics scrape.
package ingest

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// Default sizing used when the caller passes non-positive values.
const (
	DefaultShards     = 8
	DefaultQueueDepth = 1024
)

// config carries optional pipeline dependencies.
type config struct {
	metrics *obs.Registry
	clock   vclock.Clock
}

// Option customizes a Pipeline.
type Option func(*config)

// WithMetrics registers the pipeline's counters against reg instead of a
// private registry, making them visible on the deployment's /metrics.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// WithClock supplies the clock used to time queue waits and process
// invocations for the sensocial_ingest_{queue_wait,process_duration}_seconds
// histograms. Defaults to the real clock.
func WithClock(clock vclock.Clock) Option {
	return func(c *config) { c.clock = clock }
}

// Pipeline partitions values across sharded worker queues by key.
type Pipeline[T any] struct {
	key     func(T) string
	process func(T)
	clock   vclock.Clock
	procDur *obs.Histogram
	waitDur *obs.Histogram
	boxes   sync.Pool // of *box[T], zeroed
	shards  []*shard[T]
	quit    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// box carries one queued value and the instant it was accepted.
type box[T any] struct {
	v  T
	at time.Time
}

// shard is one worker's bounded queue plus its counters. The counters are
// obs registry series resolved once at construction, so the hot path is a
// single atomic add with no map lookups. inflight counts the Enqueue calls
// under way on the shard, for Close to wait out.
type shard[T any] struct {
	queue     chan *box[T]
	inflight  atomic.Int32
	enqueued  *obs.Counter
	dropped   *obs.Counter
	processed *obs.Counter
}

// New builds and starts a pipeline of nShards workers with bounded queues
// of the given depth. key partitions values (equal keys are processed in
// order by one worker); process is invoked once per accepted value from the
// owning worker goroutine. Non-positive sizes fall back to the defaults.
func New[T any](nShards, depth int, key func(T) string, process func(T), opts ...Option) (*Pipeline[T], error) {
	if key == nil {
		return nil, fmt.Errorf("ingest: nil key function")
	}
	if process == nil {
		return nil, fmt.Errorf("ingest: nil process function")
	}
	if nShards <= 0 {
		nShards = DefaultShards
	}
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.metrics == nil {
		cfg.metrics = obs.NewRegistry()
	}
	if cfg.clock == nil {
		cfg.clock = vclock.NewReal()
	}
	p := &Pipeline[T]{
		key:     key,
		process: process,
		clock:   cfg.clock,
		shards:  make([]*shard[T], nShards),
		quit:    make(chan struct{}),
	}
	enq := cfg.metrics.CounterVec("sensocial_ingest_enqueued_total",
		"Items accepted into a shard queue.", "shard")
	drop := cfg.metrics.CounterVec("sensocial_ingest_dropped_total",
		"Items rejected because the shard queue was full or the pipeline closed.", "shard")
	proc := cfg.metrics.CounterVec("sensocial_ingest_processed_total",
		"Items the shard worker finished processing.", "shard")
	p.procDur = cfg.metrics.Histogram("sensocial_ingest_process_duration_seconds",
		"Time spent in the process callback per item.", obs.LatencyBuckets)
	p.waitDur = cfg.metrics.Histogram("sensocial_ingest_queue_wait_seconds",
		"Time an accepted item waited in its shard queue before its worker took it.", obs.LatencyBuckets)
	p.boxes.New = func() any { return new(box[T]) }
	for i := range p.shards {
		label := strconv.Itoa(i)
		p.shards[i] = &shard[T]{
			queue:     make(chan *box[T], depth),
			enqueued:  enq.WithLabelValues(label),
			dropped:   drop.WithLabelValues(label),
			processed: proc.WithLabelValues(label),
		}
	}
	cfg.metrics.GaugeFunc("sensocial_ingest_backlog",
		"Items waiting in shard queues (all shards).",
		func() float64 {
			total := 0
			for _, sh := range p.shards {
				total += len(sh.queue)
			}
			return float64(total)
		})
	cfg.metrics.Gauge("sensocial_ingest_queue_capacity",
		"Slots across all shard queues; backlog over capacity is the pipeline's saturation.").
		Set(float64(nShards * depth))
	p.wg.Add(nShards)
	for _, sh := range p.shards {
		go p.worker(sh)
	}
	return p, nil
}

// Enqueue hands a value to its shard. It reports false — and counts the
// drop — when the shard's queue is full or the pipeline is closed; it never
// blocks.
func (p *Pipeline[T]) Enqueue(v T) bool {
	sh := p.shards[shardIndex(p.key(v), len(p.shards))]
	sh.inflight.Add(1)
	defer sh.inflight.Add(-1)
	if p.closed.Load() {
		sh.dropped.Inc()
		return false
	}
	b := p.boxes.Get().(*box[T])
	b.v, b.at = v, p.clock.Now()
	select {
	case sh.queue <- b:
		sh.enqueued.Inc()
		return true
	default:
		p.recycle(b)
		sh.dropped.Inc()
		return false
	}
}

// recycle zeroes a box, so the pool keeps nothing the value referenced
// alive, and returns it to the pool.
func (p *Pipeline[T]) recycle(b *box[T]) {
	*b = box[T]{}
	p.boxes.Put(b)
}

// worker processes one shard's queue until the pipeline closes, then drains
// whatever was already accepted so Enqueue=true implies processed.
func (p *Pipeline[T]) worker(sh *shard[T]) {
	defer p.wg.Done()
	for {
		select {
		case b := <-sh.queue:
			p.runOne(sh, b)
		case <-p.quit:
			for {
				select {
				case b := <-sh.queue:
					p.runOne(sh, b)
				default:
					return
				}
			}
		}
	}
}

// runOne takes the value out of its box, recycles the box, and times and
// counts the process invocation; the box's time until then is queue wait.
func (p *Pipeline[T]) runOne(sh *shard[T], b *box[T]) {
	start := p.clock.Now()
	p.waitDur.Observe(start.Sub(b.at).Seconds())
	v := b.v
	p.recycle(b)
	p.process(v)
	p.procDur.Observe(p.clock.Now().Sub(start).Seconds())
	sh.processed.Inc()
}

// Close stops accepting new values, drains the accepted backlog, and waits
// for the workers to exit. Idempotent. An Enqueue that read closed as false
// before Close set it may still be about to send; Close waits those out
// before signalling the workers, so every send that succeeds lands before
// the final drain and Enqueue=true still implies processed.
func (p *Pipeline[T]) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		p.wg.Wait()
		return
	}
	for _, sh := range p.shards {
		for sh.inflight.Load() != 0 {
			runtime.Gosched() // Enqueue never blocks, so the count falls
		}
	}
	close(p.quit)
	p.wg.Wait()
}

// shardIndex maps a key onto [0, n) with FNV-1a, allocation-free.
func shardIndex(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}
