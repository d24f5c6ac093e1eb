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
// The counters are obs registry series (families sensocial_ingest_*) and
// nothing else: read them with Registry.Sum or off a /metrics scrape.
package ingest

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

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

// WithClock supplies the clock used to time process invocations for the
// sensocial_ingest_process_duration_seconds histogram. Defaults to the
// real clock.
func WithClock(clock vclock.Clock) Option {
	return func(c *config) { c.clock = clock }
}

// Pipeline partitions values across sharded worker queues by key.
type Pipeline[T any] struct {
	key     func(T) string
	process func(T)
	clock   vclock.Clock
	procDur *obs.Histogram
	shards  []*shard[T]
	quit    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// shard is one worker's bounded queue plus its counters. The counters are
// obs registry series resolved once at construction, so the hot path is a
// single atomic add with no map lookups.
type shard[T any] struct {
	queue     chan T
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
	for i := range p.shards {
		label := strconv.Itoa(i)
		p.shards[i] = &shard[T]{
			queue:     make(chan T, depth),
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
	if p.closed.Load() {
		sh.dropped.Inc()
		return false
	}
	select {
	case sh.queue <- v:
		sh.enqueued.Inc()
		return true
	default:
		sh.dropped.Inc()
		return false
	}
}

// Shards returns the shard count.
func (p *Pipeline[T]) Shards() int { return len(p.shards) }

// ShardFor returns the shard index a key partitions to.
func (p *Pipeline[T]) ShardFor(key string) int { return shardIndex(key, len(p.shards)) }

// worker processes one shard's queue until the pipeline closes, then drains
// whatever was already accepted so Enqueue=true implies processed.
func (p *Pipeline[T]) worker(sh *shard[T]) {
	defer p.wg.Done()
	for {
		select {
		case v := <-sh.queue:
			p.runOne(sh, v)
		case <-p.quit:
			for {
				select {
				case v := <-sh.queue:
					p.runOne(sh, v)
				default:
					return
				}
			}
		}
	}
}

// runOne times and counts one process invocation.
func (p *Pipeline[T]) runOne(sh *shard[T], v T) {
	start := p.clock.Now()
	p.process(v)
	p.procDur.Observe(p.clock.Now().Sub(start).Seconds())
	sh.processed.Inc()
}

// Close stops accepting new values, drains the accepted backlog, and waits
// for the workers to exit. Idempotent.
func (p *Pipeline[T]) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		p.wg.Wait()
		return
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
