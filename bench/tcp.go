package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// tcp.go is what the three real-TCP workloads share: the built deployment
// with its client sessions, the per-operation log its observers fill, the
// stages a traced operation is cut into, and the rounds of an untraced run.

const (
	publishers = 2 // uplink publisher connections = nproc on the reference host
	// rounds is how many fresh deployments an untraced run builds and
	// measures; every timing is the median over them.
	rounds = 3
	// setupShare of an untraced run's length goes, before anything else, to
	// building and tearing down deployments just to time them (at least
	// minSetupSamples of them): setup_s is the median over these set-ups, of
	// well under 0.1 s each, and those of the rounds.
	setupShare      = 0.06
	minSetupSamples = 5
	// measuredShare of an untraced run's length goes to its timed phases; the
	// rest is for the set-ups, the warm-ups and the drains, so that the whole
	// pass takes about the length asked for.
	measuredShare = 0.9
)

// sut is a deployment with the client sessions of one pass: the publisher
// connections of an uplink workload or the device stubs of osn_trigger.
type sut struct {
	d       *deployment
	clients []*Client
}

func (s *sut) Close() error {
	var err error
	for _, c := range s.clients {
		if e := c.Close(); err == nil {
			err = e
		}
	}
	if e := s.d.Close(); err == nil {
		err = e
	}
	return err
}

// opLog holds the timestamps of one pass's operations and the observers that
// fill them. The arrays are indexed by operation, written by one goroutine
// each and read by others, so they are accessed atomically.
type opLog struct {
	users, total int
	traced       bool
	// start is the operation's reference time (its due time on the open-loop
	// grid, its send time in a closed loop); recv is when the listener got it.
	start, recv []int64
	// Traced pass only: the broker's tap on the stream topics and the OnItem
	// hook. tapNext counts the stream messages the tap has seen per device
	// (the first is the warm-up); lastHook is the hook's latest reading per
	// user — the listener runs right after it on the same ingest worker.
	tap, hook []int64
	tapNext   []int
	lastHook  []int64

	delivered atomic.Int64
	bad       atomic.Int64  // wrong content, duplicate, or out of per-user order
	sem       chan struct{} // closed loop: one token per operation in flight
}

func newOpLog(users, total, window int, traced bool) *opLog {
	l := &opLog{users: users, total: total, traced: traced,
		start: make([]int64, total), recv: make([]int64, total), sem: make(chan struct{}, max(window, 1))}
	if traced {
		l.tap, l.hook = make([]int64, total), make([]int64, total)
		l.tapNext, l.lastHook = make([]int, users), make([]int64, users)
	}
	return l
}

// countTap returns the operation a device's next tapped message belongs to
// (−1 for the warm-up). Taps correlate without decoding: one topic per device
// and FIFO per topic, so the k-th message after the warm-up is the user's
// k-th operation.
func countTap(next []int, users, u int) int {
	k := next[u]
	next[u]++
	if k == 0 {
		return -1
	}
	return u + (k-1)*users
}

// stampTap records now for the operation countTap attributes to user u.
func (l *opLog) stampTap(at []int64, next []int, u int, now int64) {
	if u < 0 || u >= l.users {
		return
	}
	if op := countTap(next, l.users, u); op >= 0 && op < l.total {
		atomic.StoreInt64(&at[op], now)
	}
}

func (l *opLog) onStreamTap(topic string) { l.stampTap(l.tap, l.tapNext, indexOfID(topic), nowNs()) }

func (l *opLog) onHook(it Item) {
	if u := indexOfID(it.UserID); u >= 0 && u < l.users {
		l.lastHook[u] = nowNs()
	}
}

// received records that the listener got operation op at now; a second
// arrival of the same operation is a duplicate.
func (l *opLog) received(op int, now int64) {
	if !atomic.CompareAndSwapInt64(&l.recv[op], 0, now) {
		l.bad.Add(1)
		return
	}
	if l.traced {
		atomic.StoreInt64(&l.hook[op], l.lastHook[op%l.users])
	}
	l.delivered.Add(1)
	select {
	case <-l.sem:
	default:
	}
}

// drain waits for the listener to have seen n operations in all. A short
// count is reported as failed operations, not as an error.
func (l *opLog) drain(n int) {
	_ = waitFor(5*time.Second, func() bool { return int(l.delivered.Load()+l.bad.Load()) >= n })
}

// latencies returns, for the delivered operations in [from, to) in operation
// order, the reference times and the listener-receipt latencies.
func (l *opLog) latencies(from, to int) (start, lat []int64) {
	for i := from; i < to; i++ {
		if r := l.recv[i]; r != 0 {
			start, lat = append(start, l.start[i]), append(lat, r-l.start[i])
		}
	}
	return start, lat
}

// stage is one interval of a traced operation: it ends at End[op] and begins
// where the stage before it ended (the first at start[op]), so the stages of
// an operation are contiguous and sum to its root. Span names the span in the
// trace file, Metric the per-layer metric that reports it.
type stage struct {
	Span, Metric string
	End          []int64
}

// spans renders the first limit fully traced operations as span trees: a root
// from reference time to listener receipt with one child per stage.
func (l *opLog) spans(root string, stages []stage, limit int) [][]span {
	var out [][]span
next:
	for i := 0; i < l.total && len(out) < limit; i++ {
		tr := []span{{Name: root, Parent: -1, Start: l.start[i], End: l.recv[i]}}
		from := l.start[i]
		for _, st := range stages {
			if st.End[i] == 0 {
				continue next
			}
			tr = append(tr, span{Name: st.Span, Start: from, End: st.End[i]})
			from = st.End[i]
		}
		out = append(out, tr)
	}
	return out
}

// tailStages are the stages every item goes through once a device has
// published it: the last of them ends at the listener.
func (l *opLog) tailStages() []stage {
	return []stage{
		{"mqtt.wire_route", "mqtt.wire_to_route_us", l.tap},
		{"ingest.route_to_hook", "ingest.route_to_hook_us", l.hook},
		{"server.hook_to_listener", "server.hook_to_listener_us", l.recv},
	}
}

// waitFor polls cond every millisecond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := nowNs() + int64(timeout)
	for !cond() {
		if nowNs() > deadline {
			return fmt.Errorf("timed out after %s", timeout)
		}
		sleepNs(1_000_000)
	}
	return nil
}

// phaseOutcome is what one timed phase measured.
type phaseOutcome struct {
	ops        int // delivered correct
	wallNs     int64
	cpuNs      int64
	from, to   resourceMark
	counters   map[string]float64 // registry deltas over the pass
	docs       int
	heapBefore float64
	heapAfter  float64
	backlogMax float64
}

func (p *phaseOutcome) close(from, to resourceMark, ops int) {
	p.from, p.to, p.ops = from, to, ops
	p.wallNs, p.cpuNs = to.wall-from.wall, to.cpu-from.cpu
}

// runValues collects what the untraced phases of a run measured, one value
// per round.
type runValues struct {
	setup, throughput, throughputP1, p50, p99, cpu, heap []float64
	ops, samples                                         int
}

// addTimings files one round's timings: throughput from closed, latency and
// CPU per operation from open (the same phase in the uplink workloads).
func (e *runValues) addTimings(open, closed phaseOutcome, start, lat []int64) {
	e.throughput = append(e.throughput, float64(closed.ops)/(float64(closed.wallNs)/1e9))
	e.cpu = append(e.cpu, float64(open.cpuNs)/1e3/float64(max(open.ops, 1)))
	e.p50 = append(e.p50, float64(medianInt(lat))/1e6)
	e.p99 = append(e.p99, float64(windowP99(start, lat))/1e6)
	e.ops += open.ops
	e.samples += len(lat)
}

// file reports the medians over the rounds: the gated end-to-end metrics
// under their own names, the timings under harness.* (metrics.go says why).
func (e *runValues) file(m *metricSet) {
	m.set("setup_s", medianFloat(e.setup), len(e.setup))
	m.set("live_heap_mb", medianFloat(e.heap), len(e.heap))
	m.set("harness.throughput_ops_s", medianFloat(e.throughput), e.ops)
	m.set("harness.cpu_us_per_op", medianFloat(e.cpu), e.ops)
	m.set("harness.latency_p50_ms", medianFloat(e.p50), e.samples)
	m.set("harness.latency_p99_ms", medianFloat(e.p99), e.samples)
	if len(e.throughputP1) > 0 {
		m.set("harness.throughput_p1_ops_s", medianFloat(e.throughputP1), len(e.throughputP1))
	}
}

// sampleSetups builds and tears down deployments for setupShare of the run's
// length, timing each set-up.
func (e *runValues) sampleSetups(seconds float64, setup func() (*sut, float64, error)) error {
	until := nowNs() + int64(seconds*setupShare*1e9)
	for r := 0; r < minSetupSamples || nowNs() < until; r++ {
		s, took, err := setup()
		if err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		e.setup = append(e.setup, took)
	}
	return nil
}
