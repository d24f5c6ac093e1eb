package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The osn_trigger workload is the paper's core loop: an OSN action reaches
// the server, which looks the user's devices up in the document store and
// publishes a QoS 1 sense trigger; the device (a stub with its own TCP
// session) decodes it and uploads one item carrying the action; the listener
// receives the joined item.
const (
	triggerUsers       = 256
	triggerRate        = 2000 // phase A: open loop, actions/s
	triggerOutstanding = 64   // phase B: closed loop, actions in flight
	// triggerWorkPerSecond sizes phase B's fixed work per second of
	// requested run length; phase A gets triggerOpenShare of the length.
	triggerWorkPerSecond = 10000
	triggerOpenShare     = 0.45
)

// triggerPhase holds one pass over a fresh deployment: actions [0,nOpen) on
// the open-loop grid, then [nOpen,total) in the closed loop.
type triggerPhase struct {
	*opLog
	plan  *triggerPlan
	codec *triggerCodec
	nOpen int
	// Traced pass only: OnOSNAction call, trigger tap, device handler entry
	// and exit. trigNext counts the triggers the tap has seen per device.
	act, trigTap, devIn, devOut []int64
	trigNext                    []int

	warm    atomic.Int64
	lags    []int64
	failMu  sync.Mutex
	failure error
}

func newTriggerPhase(plan *triggerPlan, nOpen, total int, traced bool) *triggerPhase {
	ph := &triggerPhase{opLog: newOpLog(plan.Users, total, triggerOutstanding, traced),
		plan: plan, codec: newTriggerCodec(plan), nOpen: nOpen}
	if traced {
		ph.act, ph.trigTap, ph.devIn, ph.devOut = make([]int64, total), make([]int64, total), make([]int64, total), make([]int64, total)
		ph.trigNext = make([]int, plan.Users)
	}
	return ph
}

// stages cuts a traced action's life into contiguous intervals.
func (ph *triggerPhase) stages() []stage {
	return append([]stage{
		{"harness.lag", "harness.burst_wait_us", ph.act},
		{"server.trigger_dispatch", "server.trigger_dispatch_us", ph.trigTap},
		{"mqtt.trigger_deliver", "mqtt.trigger_deliver_us", ph.devIn},
		{"device.stub", "device.stub_us", ph.devOut},
	}, ph.tailStages()...)
}

func (ph *triggerPhase) fail(err error) {
	ph.failMu.Lock()
	if ph.failure == nil {
		ph.failure = err
	}
	ph.failMu.Unlock()
}

func (ph *triggerPhase) failed() error {
	ph.failMu.Lock()
	defer ph.failMu.Unlock()
	return ph.failure
}

// onItem is the application listener.
func (ph *triggerPhase) onItem(it Item) {
	now := nowNs()
	id, at := actionOf(&it)
	if strings.HasPrefix(id, "w") {
		ph.warm.Add(1)
		return
	}
	op := parseActionID(id)
	// Exactly once, not in order: the server dispatches every action on a
	// goroutine of its own, so two actions of one user may overtake each
	// other (the closed loop sees it when the scheduler parks one for a
	// whole 10 ms slice); the delivery contract promises no order there.
	if op < 0 || op >= ph.total || at != atomic.LoadInt64(&ph.start[op]) || !ph.codec.Matches(&it, ph.plan.Spec(op)) {
		ph.bad.Add(1)
		return
	}
	ph.received(op, now)
}

func (ph *triggerPhase) onTriggerTap(topic string) {
	// "sensocial/device/d00042/trigger"
	ph.stampTap(ph.trigTap, ph.trigNext, indexOfID(strings.TrimSuffix(topic, "/trigger")), nowNs())
}

func (ph *triggerPhase) onStub(op int, entry, exit int64) {
	if op >= 0 && op < ph.total {
		atomic.StoreInt64(&ph.devIn[op], entry)
		atomic.StoreInt64(&ph.devOut[op], exit)
	}
}

// setup builds the deployment: users and devices registered, every device
// session connected and subscribed, and one untimed warm-up action per user
// round-tripped. It returns the wall seconds this took.
func (ph *triggerPhase) setup() (*sut, float64, error) {
	began := nowNs()
	opts := deployOpts{Persist: true, Listener: ph.onItem}
	var observe func(int, int64, int64)
	if ph.traced {
		opts.StreamTap, opts.TriggerTap, opts.Hook = ph.onStreamTap, ph.onTriggerTap, ph.onHook
		observe = ph.onStub
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
	if err := d.RegisterTriggerPlan(ph.plan); err != nil {
		return fail(err)
	}
	for u := 0; u < ph.users; u++ {
		cl, err := ph.codec.StartStub(d, u, observe, ph.fail)
		if err != nil {
			return fail(err)
		}
		s.clients = append(s.clients, cl)
	}
	for u := 0; u < ph.users; u++ {
		ph.codec.Act(d, actionSpec{User: u, ID: fmt.Sprintf("w%05d", u), Type: actionTypes[0], Text: "warm-up"}, 0)
	}
	if err := waitFor(5*time.Second, func() bool { return int(ph.warm.Load()) >= ph.users }); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	return s, float64(nowNs()-began) / 1e9, nil
}

// perform does action i at harness time at.
func (ph *triggerPhase) perform(s *sut, i int, at int64) {
	atomic.StoreInt64(&ph.start[i], at)
	if ph.traced {
		atomic.StoreInt64(&ph.act[i], nowNs())
	}
	ph.codec.Act(s.d, ph.plan.Spec(i), at)
}

// openLoop performs actions [0,nOpen) on the 5 ms grid.
func (ph *triggerPhase) openLoop(ctx context.Context, s *sut) {
	perTick := triggerRate * tickNs / 1_000_000_000
	startAt := nowNs() + 20_000_000
	for t := 0; t*perTick < ph.nOpen && ctx.Err() == nil; t++ {
		due := startAt + int64(t)*tickNs
		ph.lags = append(ph.lags, waitUntil(due))
		for i := t * perTick; i < min((t+1)*perTick, ph.nOpen); i++ {
			ph.perform(s, i, due)
		}
	}
}

// closedLoop performs actions [nOpen,total) keeping triggerOutstanding in
// flight.
func (ph *triggerPhase) closedLoop(ctx context.Context, s *sut) {
	for i := ph.nOpen; i < ph.total; i++ {
		select {
		case ph.sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		ph.perform(s, i, nowNs())
	}
}

// triggerSizes returns the action counts of the two phases for a run length.
func triggerSizes(seconds float64) (nOpen, nClosed int) {
	round := func(n int) int { return max(n-n%1280, 1280) } // whole ticks and whole rounds over the users
	return round(int(seconds * triggerOpenShare * triggerRate)), round(int(seconds * triggerWorkPerSecond))
}

// triggerOutcome is what one pass measured.
type triggerOutcome struct {
	open, closed phaseOutcome // resource marks and ops of each loop
	counters     map[string]float64
	docs         int
	heapAfter    float64
}

func (ph *triggerPhase) run(s *sut) (triggerOutcome, error) {
	var out triggerOutcome
	before := s.d.Counters()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(ph.total/triggerRate*10+30)*time.Second)
	defer cancel()

	from := markResources()
	ph.openLoop(ctx, s)
	ph.drain(ph.nOpen)
	out.open.close(from, markResources(), int(ph.delivered.Load()))

	from = markResources()
	ph.closedLoop(ctx, s)
	ph.drain(ph.total)
	out.closed.close(from, markResources(), int(ph.delivered.Load())-out.open.ops)

	if err := ph.failed(); err != nil {
		return out, err
	}
	out.counters = counterDelta(before, s.d.Counters())
	out.docs = s.d.ItemDocs()
	out.heapAfter = liveHeapMB()
	return out, ctx.Err()
}

// triggerPass builds one fresh deployment and runs both loops on it; it also
// returns how long the set-up took.
func triggerPass(plan *triggerPlan, nOpen, nClosed int, traced bool) (*triggerPhase, triggerOutcome, float64, error) {
	ph := newTriggerPhase(plan, nOpen, nOpen+nClosed, traced)
	s, setup, err := ph.setup()
	if err != nil {
		return nil, triggerOutcome{}, 0, err
	}
	out, err := ph.run(s)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return ph, out, setup, err
}

// runTrigger runs osn_trigger. An untraced run samples set-ups, then measures
// rounds fresh deployments, each doing a share of the run's work — latency
// and CPU per action from the open loop, throughput from the closed loop. A
// traced run does one untraced reference pass, then a traced pass of the open
// loop alone, each open loop a quarter of the run's length, then the probes.
func runTrigger(seed uint64, seconds float64, traced bool, probeMin time.Duration) (*result, error) {
	plan := newTriggerPlan(seed, triggerUsers)
	res := newResult("osn_trigger", seed, traced)
	res.note("traffic crossed the host's loopback interface, not a link; %d device sessions; generator and device stubs' CPU is included in harness.cpu_us_per_op", triggerUsers)
	res.note("inputs digest %s", plan.Digest(2000))
	untracedPasses := rounds
	nOpen, nClosed := triggerSizes(seconds * measuredShare / rounds)
	if traced {
		untracedPasses = 1
		nOpen, _ = triggerSizes(seconds / 4 / triggerOpenShare)
	}
	pass := func(traced bool) (*triggerPhase, triggerOutcome, float64, error) {
		ph, out, setup, err := triggerPass(plan, nOpen, nClosed, traced)
		if err == nil {
			triggerChecks(res, ph, out)
		}
		return ph, out, setup, err
	}

	var e runValues
	if !traced {
		if err := e.sampleSetups(seconds, newTriggerPhase(plan, 0, 0, false).setup); err != nil {
			return nil, err
		}
	}
	var ref triggerOutcome
	for r := 0; r < untracedPasses; r++ {
		ph, out, setup, err := pass(false)
		if err != nil {
			return nil, err
		}
		start, lat := ph.latencies(0, nOpen)
		e.setup, e.heap = append(e.setup, setup), append(e.heap, out.heapAfter)
		e.addTimings(out.open, out.closed, start, lat)
		ref = out
	}
	e.file(res.Metrics)
	if !traced {
		return res, nil
	}

	nClosed = 0
	ph, out, _, err := pass(true)
	if err != nil {
		return nil, err
	}
	triggerPerLayer(res.Metrics, ph, out, ref)
	probes, cleanup, err := triggerProbes(plan)
	if err != nil {
		return nil, err
	}
	runProbes(probes, probeMin, res.Metrics)
	if err := cleanup(); err != nil {
		return nil, err
	}
	return res, writeTrace("osn_trigger", ph.spans("action", ph.stages(), traceFileOps))
}

func triggerChecks(res *result, ph *triggerPhase, out triggerOutcome) {
	got := out.open.ops + out.closed.ops
	res.Attempted += ph.total
	res.Failed += ph.total - got
	res.check("delivered", got, ph.total)
	res.check("wrong or duplicated", int(ph.bad.Load()), 0)
	c := out.counters
	res.check("sensocial_trigger_sent_total", int(c["sensocial_trigger_sent_total"]), ph.total)
	// No bulk traffic: the only uploads are the devices' answers.
	res.check("sensocial_mqtt_published_total", int(c["sensocial_mqtt_published_total"]), ph.total)
	res.check("sensocial_ingest_enqueued_total", int(c["sensocial_ingest_enqueued_total"]), ph.total)
	res.check("sensocial_ingest_dropped_total", int(c["sensocial_ingest_dropped_total"]), 0)
	res.check("sensocial_mqtt_fanout_dropped_total", int(c["sensocial_mqtt_fanout_dropped_total"]), 0)
	res.check("sensocial_delivery_persisted_total", int(c["sensocial_delivery_persisted_total"]), ph.total)
	res.check("items collection", out.docs, ph.total+ph.users)
}

// triggerPerLayer files the counts, the stage budget and the reconciliation
// of the traced pass; ref is the untraced reference pass before it.
func triggerPerLayer(m *metricSet, ph *triggerPhase, out, ref triggerOutcome) {
	fileSharedCounts(m, out.counters, out.docs)
	m.set("server.triggers_sent", out.counters["sensocial_trigger_sent_total"], 1)
	runtimeMetrics(m, out.open.from, out.open.to, out.open.ops)
	fileGenLag(m, ph.lags)
	stageMetrics(m, ph.spans("action", ph.stages(), ph.total), ph.stages())
	fileTraceOverhead(m, out.open, ref.open)
}
