package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// uplinkWorkload is one of the device→server workloads: items uploaded at
// QoS 0 over loopback TCP by two publisher connections, through the broker,
// the ingest pipeline, the registry and the filter, to a wildcard listener.
type uplinkWorkload struct {
	Name string
	Mix  itemMix
	// ConditionedShare is the per-mille share of activity streams gated by a
	// cross-user condition.
	ConditionedShare int
	Persist          bool
	// Rate > 0 makes the workload an open loop at Rate items/s for the run's
	// length. Otherwise it is a closed loop over fixed work with the backlog
	// pinned, measured at the default GOMAXPROCS (phase A) and once more on a
	// fresh deployment at GOMAXPROCS(1) (phase B).
	Rate int
}

const (
	uplinkUsers = 1000
	// capacityWindow bounds sent−delivered in the closed loop; it stays under
	// the 1024-deep ingest queues so that nothing may drop.
	capacityWindow = 512
	// capacityWorkPerSecond sizes the closed loop's fixed work: items per
	// second of requested run length, shared over the rounds. Fixed work, not
	// fixed time, so the live heap and every count repeat exactly.
	capacityWorkPerSecond = 20000
)

var uplinkWorkloads = []uplinkWorkload{
	{Name: "uplink_steady", Mix: mixClassified, ConditionedShare: 250, Rate: 10000},
	{Name: "uplink_capacity", Mix: mixCapacity, Persist: true},
}

// perSecond is the operations one second of run length stands for.
func (w *uplinkWorkload) perSecond() int {
	if w.Rate > 0 {
		return w.Rate
	}
	return capacityWorkPerSecond
}

// total is the number of operations a phase of the given length does: whole
// ticks and whole rounds over the publishers.
func (w *uplinkWorkload) total(seconds float64) int {
	n := int(seconds * float64(w.perSecond()))
	return max(n-n%100, 100)
}

// uplinkPhase is one timed pass of an uplink workload over a fresh
// deployment.
type uplinkPhase struct {
	*opLog
	w     *uplinkWorkload
	plan  *uplinkPlan
	codec *uplinkCodec
	// Traced pass only: encode start, publish start, publish return.
	enc, pub, pubEnd []int64
	// next[u] is the index of user u's next expected item; the listener for a
	// user always runs on that user's ingest shard worker.
	next []int
	lags [publishers][]int64
}

func newUplinkPhase(w *uplinkWorkload, plan *uplinkPlan, total int, traced bool) *uplinkPhase {
	ph := &uplinkPhase{opLog: newOpLog(plan.Users, total, capacityWindow, traced),
		w: w, plan: plan, codec: newUplinkCodec(plan), next: make([]int, plan.Users)}
	if traced {
		ph.enc, ph.pub, ph.pubEnd = make([]int64, total), make([]int64, total), make([]int64, total)
	}
	return ph
}

// stages cuts a traced item's life into contiguous intervals.
func (ph *uplinkPhase) stages() []stage {
	return append([]stage{
		{"harness.lag", "harness.burst_wait_us", ph.enc},
		{"core.encode", "core.encode_us", ph.pub},
		{"mqtt.publish", "mqtt.publish_call_us", ph.pubEnd},
	}, ph.tailStages()...)
}

// onItem is the application listener.
func (ph *uplinkPhase) onItem(it Item) {
	now := nowNs()
	at := stampOf(it.Time)
	if at < 0 {
		return // warm-up item
	}
	u := indexOfID(it.UserID)
	if u < 0 || u >= ph.users {
		ph.bad.Add(1)
		return
	}
	// The user's items arrive in order, so this is operation u + k·Users for
	// the first k not seen yet whose sample time matches. Operations passed
	// over were rejected by the filter or lost; the totals tell which.
	k := ph.next[u]
	for {
		i := u + k*ph.users
		if i >= ph.total {
			ph.bad.Add(1)
			return
		}
		s := atomic.LoadInt64(&ph.start[i])
		if s == at {
			break
		}
		if s == 0 || s > at {
			ph.bad.Add(1) // older than anything still expected: duplicate or reordered
			return
		}
		k++
	}
	i := u + k*ph.users
	ph.next[u] = k + 1
	if !ph.codec.Matches(&it, ph.plan.Spec(i)) {
		ph.bad.Add(1)
		return
	}
	ph.received(i, now)
}

// setup builds the deployment: users, devices and conditioned streams
// registered, publishers connected, and one untimed warm-up item per user
// delivered (anchors first) so every filter outcome is fixed before timing
// starts. It returns the wall seconds this took.
func (ph *uplinkPhase) setup() (*sut, float64, error) {
	began := nowNs()
	opts := deployOpts{Persist: ph.w.Persist, Listener: ph.onItem}
	if ph.traced {
		opts.StreamTap, opts.Hook = ph.onStreamTap, ph.onHook
	}
	d, err := newDeployment(opts)
	if err != nil {
		return nil, 0, err
	}
	s := &sut{d: d}
	fail := func(err error) (*sut, float64, error) {
		_ = s.Close() // the setup error is the one to report
		return nil, 0, err
	}
	if err := d.RegisterUplinkPlan(ph.plan); err != nil {
		return fail(err)
	}
	for p := 0; p < publishers; p++ {
		c, err := d.Dial(fmt.Sprintf("pub%d", p))
		if err != nil {
			return fail(err)
		}
		s.clients = append(s.clients, c)
	}
	sent := 0
	for _, anchors := range []bool{true, false} {
		for u := 0; u < ph.users; u++ {
			if (ph.plan.AnchorLabel[u] != "") != anchors {
				continue
			}
			warm := opSpec{User: u, Class: classActivity, Label: ph.plan.AnchorLabel[u], Place: cityNames[ph.plan.City(u)], Audio: audioLabels[0]}
			if warm.Label == "" {
				warm.Label = activityLabels[1]
			}
			if err := ph.codec.Publish(s.clients[u%publishers], warm, -1-int64(u), nil); err != nil {
				return fail(err)
			}
			sent++
		}
		if err := waitFor(5*time.Second, func() bool {
			return d.Counters()["sensocial_ingest_processed_total"] >= float64(sent)
		}); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	return s, float64(nowNs()-began) / 1e9, nil
}

// generate sends the phase's operations from the publisher goroutines and
// returns once all are sent (or ctx is done).
func (ph *uplinkPhase) generate(ctx context.Context, s *sut) error {
	if ph.users%publishers != 0 {
		return fmt.Errorf("users must divide over %d publishers", publishers)
	}
	perTick := ph.w.Rate * tickNs / 1_000_000_000
	startAt := nowNs() + 20_000_000
	errs := make([]error, publishers)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Operation i belongs to user i mod Users, and Users is even, so
			// publisher p sends exactly the operations of its own users and a
			// user's items stay on one connection, in order.
			send := func(i int, at int64) error {
				var between *int64
				if ph.traced {
					atomic.StoreInt64(&ph.enc[i], nowNs())
					between = &ph.pub[i]
				}
				atomic.StoreInt64(&ph.start[i], at)
				err := ph.codec.Publish(s.clients[p], ph.plan.Spec(i), at, between)
				if ph.traced {
					atomic.StoreInt64(&ph.pubEnd[i], nowNs())
				}
				return err
			}
			if ph.w.Rate > 0 {
				for t := 0; t*perTick < ph.total && ctx.Err() == nil; t++ {
					// The publishers share the grid but fire half a tick
					// apart, and yield after every send: the generator runs
					// in-process on the same two CPUs, and a device does not
					// hold the server's CPU while it writes. With both bursts
					// at one instant the broker could not read its first byte
					// before the last was written, and the median latency
					// fell into one of two modes 50% apart from run to run.
					due := startAt + int64(t)*tickNs + int64(p)*tickNs/publishers
					ph.lags[p] = append(ph.lags[p], waitUntil(due))
					for i := t*perTick + p; i < min((t+1)*perTick, ph.total); i += publishers {
						if errs[p] = send(i, due); errs[p] != nil {
							return
						}
						runtime.Gosched()
					}
				}
				return
			}
			for i := p; i < ph.total; i += publishers {
				select {
				case ph.sem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				if errs[p] = send(i, nowNs()); errs[p] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// run times one phase on a ready deployment.
func (ph *uplinkPhase) run(s *sut, expect uplinkExpect) (phaseOutcome, error) {
	var out phaseOutcome
	out.heapBefore = liveHeapMB()
	before := s.d.Counters()
	// Generous: a phase sized for S seconds gets 10·S+30 before it is
	// abandoned and its undelivered operations counted as failed.
	limit := time.Duration(ph.total)*time.Second/time.Duration(ph.w.perSecond())*10 + 30*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()

	var sampler sync.WaitGroup
	stopSampler := make(chan struct{})
	if ph.traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for {
				select {
				case <-stopSampler:
					return
				default:
				}
				if b := s.d.Counters()["sensocial_ingest_backlog"]; b > out.backlogMax {
					out.backlogMax = b
				}
				sleepNs(100_000_000) // 10 Hz
			}
		}()
	}

	from := markResources()
	genErr := ph.generate(ctx, s)
	ph.drain(expect.Delivered) // everything is sent; let the tail arrive
	out.close(from, markResources(), int(ph.delivered.Load()))
	close(stopSampler)
	sampler.Wait()
	if genErr != nil {
		return out, genErr
	}
	out.counters = counterDelta(before, s.d.Counters())
	out.docs = s.d.ItemDocs()
	out.heapAfter = liveHeapMB()
	return out, nil
}

// uplinkPass builds one fresh deployment and runs one phase on it; it also
// returns how long the set-up took.
func uplinkPass(w *uplinkWorkload, plan *uplinkPlan, total int, expect uplinkExpect, traced bool) (*uplinkPhase, phaseOutcome, float64, error) {
	ph := newUplinkPhase(w, plan, total, traced)
	s, setup, err := ph.setup()
	if err != nil {
		return nil, phaseOutcome{}, 0, err
	}
	out, err := ph.run(s, expect)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return ph, out, setup, err
}

// runUplink runs one uplink workload. An untraced run samples set-ups, then
// measures rounds fresh deployments, each doing a share of the run's work.
// A traced run spends a quarter of its length on one untraced reference
// phase, a quarter on the traced phase and the rest on the probes. Both run
// phase B of a closed-loop workload once.
func runUplink(w *uplinkWorkload, seed uint64, seconds float64, traced bool, probeMin time.Duration) (*result, error) {
	plan := newUplinkPlan(seed, uplinkUsers, w.Mix, w.ConditionedShare)
	res := newResult(w.Name, seed, traced)
	res.note("traffic crossed the host's loopback interface, not a link; %d publisher connections, %d users; generator CPU is included in harness.cpu_us_per_op", publishers, plan.Users)
	res.note("inputs digest %s", plan.Digest(2000))
	untracedPhases, share := rounds, rounds/measuredShare
	if traced {
		untracedPhases, share = 1, 4
	}
	total := w.total(seconds / share)
	expect := plan.Expect(total)
	pass := func(traced bool) (*uplinkPhase, phaseOutcome, float64, error) {
		ph, out, setup, err := uplinkPass(w, plan, total, expect, traced)
		if err == nil {
			uplinkChecks(res, ph, out, expect)
		}
		return ph, out, setup, err
	}

	var e runValues
	if !traced {
		if err := e.sampleSetups(seconds, newUplinkPhase(w, plan, 0, false).setup); err != nil {
			return nil, err
		}
	}
	var ref phaseOutcome
	for r := 0; r < untracedPhases; r++ {
		ph, out, setup, err := pass(false)
		if err != nil {
			return nil, err
		}
		start, lat := ph.latencies(0, total)
		e.setup, e.heap = append(e.setup, setup), append(e.heap, out.heapAfter)
		e.addTimings(out, out, start, lat)
		ref = out
	}
	if w.Rate == 0 {
		prev := runtime.GOMAXPROCS(1)
		_, out, _, err := pass(false)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		e.throughputP1 = append(e.throughputP1, float64(out.ops)/(float64(out.wallNs)/1e9))
	}
	e.file(res.Metrics)
	if !traced {
		return res, nil
	}

	ph, out, _, err := pass(true)
	if err != nil {
		return nil, err
	}
	uplinkPerLayer(res.Metrics, ph, out, ref)
	probes, cleanup, err := uplinkProbes(plan, w.Persist)
	if err != nil {
		return nil, err
	}
	runProbes(probes, probeMin, res.Metrics)
	if err := cleanup(); err != nil {
		return nil, err
	}
	return res, writeTrace(w.Name, ph.spans("item", ph.stages(), traceFileOps))
}

// uplinkChecks compares what arrived and what the registry counted with what
// the generator expects.
func uplinkChecks(res *result, ph *uplinkPhase, out phaseOutcome, expect uplinkExpect) {
	res.Attempted += ph.total
	res.Failed += ph.total - expect.Rejected - out.ops
	res.check("delivered", out.ops, expect.Delivered)
	res.check("wrong, duplicated or reordered", int(ph.bad.Load()), 0)
	c := out.counters
	res.check("sensocial_filter_rejected_total", int(c["sensocial_filter_rejected_total"]), expect.Rejected)
	res.check("sensocial_mqtt_published_total", int(c["sensocial_mqtt_published_total"]), ph.total)
	res.check("sensocial_ingest_enqueued_total", int(c["sensocial_ingest_enqueued_total"]), ph.total)
	res.check("sensocial_ingest_processed_total", int(c["sensocial_ingest_processed_total"]), ph.total)
	res.check("sensocial_ingest_dropped_total", int(c["sensocial_ingest_dropped_total"]), 0)
	res.check("sensocial_mqtt_fanout_dropped_total", int(c["sensocial_mqtt_fanout_dropped_total"]), 0)
	res.check("sensocial_context_location_writes_total", int(c["sensocial_context_location_writes_total"]), expect.LocWrites)
	res.check("sensocial_context_location_skips_total", int(c["sensocial_context_location_skips_total"]), expect.LocSkips)
	// The warm-up items are in the store too when persisting.
	persisted, warm := 0, 0
	if ph.w.Persist {
		persisted, warm = expect.Delivered, ph.users
	}
	res.check("sensocial_delivery_persisted_total", int(c["sensocial_delivery_persisted_total"]), persisted)
	res.check("items collection", out.docs, persisted+warm)
}

// uplinkPerLayer files the counts, the stage budget and the reconciliation of
// the traced phase; ref is the untraced reference phase before it.
func uplinkPerLayer(m *metricSet, ph *uplinkPhase, out, ref phaseOutcome) {
	c := out.counters
	fileSharedCounts(m, c, out.docs)
	m.set("ingest.backlog_max", out.backlogMax, int(out.wallNs/100_000_000))
	m.set("server.filter_rejected", c["sensocial_filter_rejected_total"], 1)
	m.set("server.registry_location_writes", c["sensocial_context_location_writes_total"], 1)
	m.set("server.registry_location_skips", c["sensocial_context_location_skips_total"], 1)
	if added := c["sensocial_delivery_persisted_total"]; added > 0 {
		m.set("docstore.heap_bytes_per_doc", (out.heapAfter-out.heapBefore)*1e6/added, int(added))
	}
	runtimeMetrics(m, out.from, out.to, out.ops)
	var lags []int64
	for _, l := range ph.lags {
		lags = append(lags, l...)
	}
	fileGenLag(m, lags)
	stageMetrics(m, ph.spans("item", ph.stages(), ph.total), ph.stages())
	fileTraceOverhead(m, out, ref)
}
