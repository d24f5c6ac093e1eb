package sim

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sensing"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

// PoolOptions tunes the pooled device scheduler.
type PoolOptions struct {
	// Connections bounds the fabric connections shared by the whole pooled
	// fleet (default 8). Devices map to connections deterministically by
	// frame, so same-seed runs put every device on the same connection.
	Connections int
	// FrameSize is the number of devices ticked per scheduled event
	// (default 64). Frames are staggered across the sample interval so the
	// load on the broker is smooth rather than phase-locked.
	FrameSize int
	// SampleInterval is the virtual-time sampling cadence (default 1m).
	SampleInterval time.Duration
	// UploadBatch is how many classified samples a device buffers before
	// its frame publishes them (default 4), mirroring the mobile
	// middleware's store-and-forward batching.
	UploadBatch int
	// MaxBacklog caps a device's pending-upload backlog while its
	// connection is still handshaking or broken (default 64). Overflow is
	// dropped and counted, never allocated.
	MaxBacklog int
	// DutyCycle is the sampling duty cycle in (0,1] (default 1).
	DutyCycle float64
	// UploadQoS is the MQTT QoS pooled uploads publish at (0 or 1,
	// default 0). At QoS 1 a flush blocks on each PUBACK, so the broker's
	// receipt of every counted item is confirmed; publishes whose
	// acknowledgement is lost to a mid-flight fault are charged to
	// sensocial_sim_items_ack_lost_total and never resent (at-most-once —
	// resending could double-deliver, because the broker acks before
	// routing).
	UploadQoS byte
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.Connections <= 0 {
		o.Connections = 8
	}
	if o.FrameSize <= 0 {
		o.FrameSize = 64
	}
	if o.SampleInterval <= 0 {
		o.SampleInterval = time.Minute
	}
	if o.UploadBatch <= 0 {
		o.UploadBatch = 4
	}
	if o.MaxBacklog < o.UploadBatch {
		o.MaxBacklog = max(64, o.UploadBatch)
	}
	if o.DutyCycle <= 0 || o.DutyCycle > 1 {
		o.DutyCycle = 1
	}
	if o.UploadQoS > 1 {
		o.UploadQoS = 1
	}
	return o
}

// poolActivityCycle is the ground-truth activity schedule for pooled
// devices: a device's phase offsets a 30-minute rotation through the same
// labels the full-fidelity activity classifier emits.
var poolActivityLabels = [...]string{"still", "walking", "running"}

const (
	poolActivityPeriod = 30 * time.Minute
	poolModality       = sensors.ModalityAccelerometer
	poolStreamID       = "pool-activity"
)

func poolActivity(phase uint32, t time.Time) string {
	slot := uint64(t.UnixNano()/int64(poolActivityPeriod)) + uint64(phase)
	return poolActivityLabels[slot%3]
}

// fleetSeries are the sensocial_sim_* series on the fleet registry: the
// fleet's size, the cost of a pooled tick, and the pool's ledger of its
// samples, which is kept here and nowhere else. Every sample taken ends up
// in exactly one of published (confirmed written, and at QoS 1 acked),
// ackLost (QoS 1 publish whose ack was lost to a fault — delivery unknown,
// never resent), dropped (backlog-cap overflow or encode failure) or backlog
// (still buffered), so
//
//	samples == published + ackLost + dropped + backlog
//
// holds whenever no flush is mid-flight (always true at quiesce on a manual
// clock). The chaos harness asserts it as a conservation invariant, and a
// /metrics scrape of shard 0 is enough to recompute it.
type fleetSeries struct {
	devices *obs.Gauge     // full stacks and pooled rows
	tickDur *obs.Histogram // its count is the number of frame ticks

	samples     *obs.Counter
	published   []*obs.Counter // by ring shard the publish went through
	ackLost     *obs.Counter
	dropped     *obs.Counter
	publishErrs *obs.Counter
	backlog     *obs.Gauge
}

// newFleetSeries registers the series for a ring of the given size. sim.New
// calls it for every deployment, so the families (and one published series
// per shard) are on /metrics before any device exists.
func newFleetSeries(reg *obs.Registry, shards int) fleetSeries {
	l := fleetSeries{
		devices: reg.Gauge("sensocial_sim_devices",
			"Simulated devices currently running (full and pooled modes)."),
		tickDur: reg.Histogram("sensocial_sim_tick_duration_seconds",
			"Host CPU seconds spent executing one pooled frame tick.", obs.LatencyBuckets),
		samples: reg.Counter("sensocial_sim_samples_total",
			"Sensor samples taken by pooled devices."),
		ackLost: reg.Counter("sensocial_sim_items_ack_lost_total",
			"Pooled QoS 1 publishes whose acknowledgement was lost to a fault; delivery unknown, never resent."),
		dropped: reg.Counter("sensocial_sim_items_dropped_total",
			"Pooled samples dropped at the per-device backlog cap or on an encode failure."),
		publishErrs: reg.Counter("sensocial_sim_publish_errors_total",
			"Failed pooled dials, handshakes, encodes and publishes."),
		backlog: reg.Gauge("sensocial_sim_backlog",
			"Pooled samples buffered on devices awaiting upload."),
	}
	published := reg.CounterVec("sensocial_sim_items_published_total",
		"Items pooled devices published (at QoS 1: and saw acknowledged), by the ring shard they were sent to.", "shard")
	for i := 0; i < shards; i++ {
		l.published = append(l.published, published.WithLabelValues(ShardID(i)))
	}
	return l
}

// DevicePool runs a large fleet of simulated devices as scheduled events
// instead of parked goroutines.
//
// Per-device state lives in parallel struct-of-arrays slices: identity
// (substrings of one name arena per AddDevices call), sampler phase (the
// activity ground truth), ring shard and pending-upload backlog. Energy and
// CPU are charged to one fleet-wide device.BulkCharger, not per device.
// Devices are grouped into frames of FrameSize; each frame is one
// vclock event that fires once per sample interval, keeps the one sampling
// cadence all its devices share, scans its slice of the arrays, and re-arms
// itself. The clock must be an EventScheduler (vclock.Manual): frames run
// synchronously inside Advance in deterministic (deadline, sequence) order.
//
// Uploads preserve the wire protocol of the full path: classified items are
// encoded exactly like mobile's pipeline and published at UploadQoS to
// core.StreamDataTopic(deviceID) over MQTT, so the broker, the server
// ingest pipeline and every downstream consumer see pooled devices as
// indistinguishable from full ones. The whole fleet shares Connections
// fabric conns, one MQTT client per slot; per-device attribution rides in
// the topic.
type DevicePool struct {
	clock   vclock.Clock
	fabric  *netsim.Network
	charger device.BulkCharger

	// addrs/perShard form the pool's address ring: slot s dials
	// addrs[s/perShard], so each address owns a contiguous group of
	// perShard slots and a device on shard k uses slots
	// [k*perShard, (k+1)*perShard).
	addrs    []string
	perShard int
	shardOf  func(userID string) int

	opts PoolOptions // defaults applied

	series fleetSeries

	mu      sync.Mutex
	started bool
	closed  bool
	// conns holds each slot's latest fabric conn, so Close can unblock a
	// handshake still parked in a read; an established client owns (and
	// closes) its conn.
	conns []net.Conn
	// Struct-of-arrays device state. ids/users/phase/shard are written
	// only before Start; backlog is mutated under mu by frame ticks.
	ids     []string
	users   []string
	phase   []uint32
	shard   []int32
	backlog []uint16

	frames     []*poolFrame
	clients    []atomic.Pointer[mqtt.Client]
	connecting []atomic.Bool
	// ready is closed once every slot holds a client at the same time.
	ready     chan struct{}
	readyOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// poolFrame is one scheduled span [lo,hi) of the pool's device arrays. The
// flush scratch slices are reused every tick so the steady state does not
// allocate; frames are ticked serially inside Advance, so they need no
// locking.
type poolFrame struct {
	pool *DevicePool
	lo   int
	hi   int
	base int // slot offset inside each shard's connection group
	next time.Time
	ev   vclock.Event
	// cad is the sampling cadence of every device in the frame: they share
	// an anchor, interval and duty cycle and tick together, so one
	// schedule and one duty-cycle credit stand for all of them.
	cad sensing.Cadence

	sampled  bool          // this tick's cycle sampled every device in [lo,hi)
	flushIdx []int32       // device indices drained this tick
	flushCnt []uint16      // backlog depth drained per flushIdx entry
	byShard  []flushClient // per-shard client resolution, reset each flush
}

// flushClient caches one shard's client for the duration of a single frame
// flush: the client is resolved (or reconnected) at most once per flush,
// and a mid-flush failure poisons only that shard's remaining devices.
type flushClient struct {
	cli    *mqtt.Client
	tried  bool
	failed bool
	msgs   int
	bytes  int
}

// newDevicePool wires a pool into the deployment's fabric, ring and fleet
// registry. The Connections budget is split into one group of
// Connections/len(Shards) slots (min 1) per shard, and every device
// publishes only through its ring owner's group.
func newDevicePool(s *Simulation, opts PoolOptions) *DevicePool {
	opts = opts.withDefaults()
	addrs := make([]string, len(s.Shards))
	for i, sh := range s.Shards {
		addrs[i] = sh.BrokerAddr
	}
	perShard := max(1, opts.Connections/len(addrs))
	total := perShard * len(addrs)
	return &DevicePool{
		clock:   s.Clock,
		fabric:  s.Fabric,
		charger: device.NewBulkCharger(s.fleetMetrics),

		addrs:    addrs,
		perShard: perShard,
		shardOf:  s.Ring.OwnerIndex,

		opts: opts,

		series: s.series,

		conns:      make([]net.Conn, total),
		clients:    make([]atomic.Pointer[mqtt.Client], total),
		connecting: make([]atomic.Bool, total),
		ready:      make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Pooled device names: user "pool<idx>" with idx zero-padded to
// poolNameDigits, device "<user>-phone".
const (
	poolNamePrefix = "pool"
	poolNameSuffix = "-phone"
	poolNameDigits = 6
)

// poolNameLen is the byte length of device idx's name.
func poolNameLen(idx int) int {
	digits := 1
	for v := idx; v >= 10; v /= 10 {
		digits++
	}
	return len(poolNamePrefix) + max(digits, poolNameDigits) + len(poolNameSuffix)
}

// writePoolName appends device idx's name to b without allocating (b is
// pre-grown); it is byte-identical to fmt.Sprintf("pool%06d", idx)+"-phone".
func writePoolName(b *strings.Builder, idx int) {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(idx), 10)
	b.WriteString(poolNamePrefix)
	for pad := poolNameDigits - len(d); pad > 0; pad-- {
		b.WriteByte('0')
	}
	b.Write(d)
	b.WriteString(poolNameSuffix)
}

// AddDevices appends n pooled devices. Must be called before Start.
// Devices are named "pool<idx>" / "pool<idx>-phone", idx zero-padded to six
// digits, so ids sort lexically in index order up to 10^6 devices (beyond
// that "pool1000000" sorts before "pool200000"). Their activity ground truth
// is a phase-shifted rotation through the classifier labels.
//
// Set-up allocates per column, not per device: every column is grown once,
// and all n names are written into one string that ids and users slice.
func (p *DevicePool) AddDevices(n int) error {
	if n <= 0 {
		return fmt.Errorf("sim: device pool: AddDevices(%d)", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return fmt.Errorf("sim: device pool: AddDevices after Start")
	}
	base := len(p.ids)
	size := 0
	for idx := base; idx < base+n; idx++ {
		size += poolNameLen(idx)
	}
	var b strings.Builder
	b.Grow(size)
	for idx := base; idx < base+n; idx++ {
		writePoolName(&b, idx)
	}
	arena := b.String()

	p.ids = slices.Grow(p.ids, n)
	p.users = slices.Grow(p.users, n)
	p.phase = slices.Grow(p.phase, n)
	p.shard = slices.Grow(p.shard, n)
	p.backlog = append(p.backlog, make([]uint16, n)...)
	off := 0
	for idx := base; idx < base+n; idx++ {
		end := off + poolNameLen(idx)
		id := arena[off:end]
		user := id[:len(id)-len(poolNameSuffix)]
		p.ids = append(p.ids, id)
		p.users = append(p.users, user)
		p.phase = append(p.phase, uint32(idx%3))
		p.shard = append(p.shard, int32(p.shardOf(user)))
		off = end
	}
	p.series.devices.Add(float64(n))
	return nil
}

// Start carves the device arrays into frames, schedules them, and begins
// connecting the shared MQTT clients in the background (mqtt.Connect blocks
// until the CONNACK is delivered through the fabric, so it cannot run on
// the caller's goroutine under a manual clock). Frames whose connection is
// not yet ready keep sampling and buffer a bounded backlog; the first tick
// after the CONNACK drains it with backdated timestamps. The pool's clock
// must be a vclock.EventScheduler.
func (p *DevicePool) Start() error {
	sched, ok := p.clock.(vclock.EventScheduler)
	if !ok {
		return fmt.Errorf("sim: device pool: clock %T does not schedule events", p.clock)
	}
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return fmt.Errorf("sim: device pool: already started")
	}
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("sim: device pool: closed")
	}
	if len(p.ids) == 0 {
		p.mu.Unlock()
		return fmt.Errorf("sim: device pool: no devices added")
	}
	p.started = true
	start := p.clock.Now()
	nFrames := (len(p.ids) + p.opts.FrameSize - 1) / p.opts.FrameSize
	p.frames = make([]*poolFrame, 0, nFrames)
	for j := 0; j < nFrames; j++ {
		lo := j * p.opts.FrameSize
		hi := min(lo+p.opts.FrameSize, len(p.ids))
		// Stagger frame anchors across one interval so broker load is
		// smooth: frame j fires at offset (j mod 64)/64 of the interval.
		offset := p.opts.SampleInterval * time.Duration(j%64) / 64
		anchor := start.Add(offset)
		f := &poolFrame{
			pool: p, lo: lo, hi: hi,
			base:     j % p.perShard,
			next:     anchor.Add(p.opts.SampleInterval),
			cad:      sensing.NewCadence(anchor, p.opts.SampleInterval),
			flushIdx: make([]int32, 0, hi-lo),
			flushCnt: make([]uint16, 0, hi-lo),
			byShard:  make([]flushClient, len(p.addrs)),
		}
		p.frames = append(p.frames, f)
	}
	frames := p.frames
	p.mu.Unlock()

	for slot := range p.clients {
		p.wg.Add(1)
		go func(slot int) {
			defer p.wg.Done()
			p.connectSlot(slot)
		}(slot)
	}

	for _, f := range frames {
		f.ev = sched.Schedule(f.next, f.fire)
	}
	return nil
}

// connectSlot dials the slot's fabric connection to its shard's broker and
// performs the MQTT handshake, publishing the client for frame flushes once
// the broker acknowledges. Errors are counted and the slot stays nil; its
// frames keep buffering (capped) until a later flush retries. The connecting
// guard keeps the initial background dial and a frame's synchronous
// reconnect from racing two handshakes for one slot.
func (p *DevicePool) connectSlot(slot int) {
	if !p.connecting[slot].CompareAndSwap(false, true) {
		return
	}
	defer p.connecting[slot].Store(false)
	select {
	case <-p.done:
		return
	default:
	}
	if p.clients[slot].Load() != nil {
		return
	}
	conn, err := p.fabric.Dial("device-pool", p.addrs[slot/p.perShard])
	if err != nil {
		p.series.publishErrs.Inc()
		return
	}
	p.mu.Lock()
	closed := p.closed
	p.conns[slot] = conn
	p.mu.Unlock()
	if closed {
		_ = conn.Close()
		return
	}
	cli, err := mqtt.Connect(conn, mqtt.ClientOptions{
		ClientID: fmt.Sprintf("device-pool-%d", slot),
		Clock:    p.clock,
	})
	if err != nil {
		p.series.publishErrs.Inc()
		_ = conn.Close()
		return
	}
	p.clients[slot].Store(cli)
	if p.readyCount() == len(p.clients) {
		p.readyOnce.Do(func() { close(p.ready) })
	}
}

// reconnectSlot redials a slot synchronously from a frame tick after its
// client was retired. The tick runs inside Advance, where a blocking
// handshake can only complete if the path delivers without any clock
// advance — so the attempt is skipped (devices keep buffering) until the
// fabric reports the broker path delay-free again, which is also what makes
// reconnect times deterministic.
func (p *DevicePool) reconnectSlot(slot int) *mqtt.Client {
	if !p.fabric.PathDelayFree("device-pool", p.addrs[slot/p.perShard]) {
		return nil
	}
	p.connectSlot(slot)
	return p.clients[slot].Load()
}

// retireClient drops a slot's broken client, closing its conn with it, so a
// later flush redials. The compare-and-swap keeps a racing frame on another
// goroutine from retiring a freshly dialed replacement.
func (p *DevicePool) retireClient(slot int, cli *mqtt.Client) {
	if p.clients[slot].CompareAndSwap(cli, nil) {
		_ = cli.Close()
	}
}

// restoreBacklog returns unpublished items to a device's backlog after a
// broken flush, dropping (and counting) whatever no longer fits the cap.
// Restored items keep per-device timestamp monotonicity: a backlog of
// depth d re-published at a later tick is backdated from that tick, and
// depth can never exceed the ticks elapsed since the last published
// sample, so backdated stamps stay strictly increasing.
func (p *DevicePool) restoreBacklog(i, count int) {
	if count <= 0 {
		return
	}
	p.mu.Lock()
	add := min(count, max(0, p.opts.MaxBacklog-int(p.backlog[i])))
	p.backlog[i] += uint16(add)
	p.mu.Unlock()
	p.series.backlog.Add(float64(add))
	if dropped := count - add; dropped > 0 {
		p.series.dropped.Add(uint64(dropped))
	}
}

// WaitReady blocks until every pooled connection has completed its MQTT
// handshake or the real-time timeout expires. Tests on
// a manual clock call this before advancing so that every flush lands at a
// deterministic virtual time; it needs a zero-latency link (the handshake
// completes without virtual-time advances) to terminate. The handshake that
// completes the set wakes it; there is no polling.
func (p *DevicePool) WaitReady(timeout time.Duration) error {
	//lint:ignore wallclock readiness spans real goroutine scheduling (background handshakes), independent of the virtual clock
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-p.ready:
		return nil
	case <-timer.C:
		return fmt.Errorf("sim: device pool: %d/%d connections ready after %v",
			p.readyCount(), len(p.clients), timeout)
	}
}

func (p *DevicePool) readyCount() int {
	n := 0
	for i := range p.clients {
		if p.clients[i].Load() != nil {
			n++
		}
	}
	return n
}

// fire is the scheduled-event entry point for one frame tick; it runs
// synchronously inside Advance and re-arms its own event.
func (f *poolFrame) fire(now time.Time) {
	p := f.pool
	select {
	case <-p.done:
		return
	default:
	}
	//lint:ignore wallclock tick duration is a real-cost metric (ns of host CPU per virtual tick), not simulated time
	t0 := time.Now()
	f.tick(now)
	f.flush(now)
	f.next = f.next.Add(p.opts.SampleInterval)
	if f.ev != nil {
		f.ev.Reschedule(f.next)
	}
	//lint:ignore wallclock see above: measuring host CPU cost of the tick
	p.series.tickDur.Observe(time.Since(t0).Seconds())
}

// tick advances the frame's cadence and, when the cycle samples, grows
// every device's backlog; it is the per-tick hot loop and must not
// allocate.
//
//sensolint:hotpath
func (f *poolFrame) tick(now time.Time) {
	p := f.pool
	f.sampled = f.cad.Tick(p.opts.DutyCycle)
	if !f.sampled {
		return
	}
	dropped := uint64(0)
	p.mu.Lock()
	for i := f.lo; i < f.hi; i++ {
		if int(p.backlog[i]) < p.opts.MaxBacklog {
			p.backlog[i]++
		} else {
			dropped++
		}
	}
	p.mu.Unlock()
	if dropped > 0 {
		p.series.dropped.Add(dropped)
	}
	n := uint64(f.hi - f.lo)
	p.series.samples.Add(n)
	p.series.backlog.Add(float64(n - dropped))
}

// flush charges the tick's sampling/classification energy and publishes
// ready backlogs over the frame's pooled connection. It runs off the hot
// path: item encoding and MQTT framing allocate, which is why uploads are
// batched per device rather than per sample.
func (f *poolFrame) flush(now time.Time) {
	p := f.pool
	if f.sampled {
		// The cost model prices poolModality, so neither call can fail,
		// and the per-device prices they return have no battery to drain.
		n := f.hi - f.lo
		_, _ = p.charger.ChargeSamples(poolModality, n)
		_, _ = p.charger.ChargeClassifications(poolModality, n)
	}

	f.flushIdx = f.flushIdx[:0]
	f.flushCnt = f.flushCnt[:0]
	taken := 0
	p.mu.Lock()
	for i := f.lo; i < f.hi; i++ {
		if int(p.backlog[i]) >= p.opts.UploadBatch {
			f.flushIdx = append(f.flushIdx, int32(i))
			f.flushCnt = append(f.flushCnt, p.backlog[i])
			taken += int(p.backlog[i])
			p.backlog[i] = 0
		}
	}
	p.mu.Unlock()
	if len(f.flushIdx) == 0 {
		return
	}
	// Whatever a broken flush could not send comes back via restoreBacklog.
	p.series.backlog.Add(-float64(taken))

	// Devices in a frame can belong to different shards; each shard's
	// client is resolved at most once per flush, and a mid-flush failure
	// poisons only that shard's remaining devices (their backlogs are
	// restored for a later tick).
	for k := range f.byShard {
		f.byShard[k] = flushClient{}
	}
	for k, i := range f.flushIdx {
		depth := int(f.flushCnt[k])
		sh := p.shard[i]
		st := &f.byShard[sh]
		slot := int(sh)*p.perShard + f.base
		if !st.tried {
			st.tried = true
			st.cli = p.clients[slot].Load()
			if st.cli == nil {
				// Lazy reconnect: the first tick after the fabric path
				// heals redials and then drains the whole accumulated
				// backlog — the DTN batch-upload-on-reconnect behaviour.
				st.cli = p.reconnectSlot(slot)
			}
			st.failed = st.cli == nil
		}
		if st.failed {
			p.restoreBacklog(int(i), depth)
			continue
		}
		consumed := 0
		for j := 0; j < depth; j++ {
			// Backdate buffered samples to their acquisition ticks, the
			// same store-and-forward timestamping the mobile pipeline uses.
			ts := now.Add(-time.Duration(depth-1-j) * p.opts.SampleInterval)
			item := core.Item{
				StreamID:    poolStreamID,
				DeviceID:    p.ids[i],
				UserID:      p.users[i],
				Modality:    poolModality,
				Granularity: core.GranularityClassified,
				Time:        ts,
				Classified:  poolActivity(p.phase[i], ts),
			}
			payload, err := item.Encode()
			if err != nil {
				p.series.publishErrs.Inc()
				p.series.dropped.Inc()
				consumed++
				continue
			}
			err = st.cli.Publish(core.StreamDataTopic(p.ids[i]), payload, p.opts.UploadQoS, false)
			if err == nil {
				consumed++
				st.msgs++
				st.bytes += len(payload)
				continue
			}
			// Connection broke mid-flush: retire the client, re-buffer
			// whatever was not confirmed sent, and let a later tick redial.
			p.series.publishErrs.Inc()
			if errors.Is(err, mqtt.ErrAckUnknown) || errors.Is(err, mqtt.ErrAckTimeout) {
				// The PUBLISH reached the wire but its ack never came back:
				// the broker may or may not have routed it. Resending could
				// double-deliver, so the item is charged to ack-lost and
				// never re-buffered (at-most-once).
				p.series.ackLost.Inc()
				consumed++
			}
			st.failed = true
			p.retireClient(slot, st.cli)
			p.restoreBacklog(int(i), depth-consumed)
			break
		}
	}
	msgs, bytes := 0, 0
	for sh := range f.byShard {
		st := &f.byShard[sh]
		if st.msgs > 0 {
			msgs += st.msgs
			bytes += st.bytes
			p.series.published[sh].Add(uint64(st.msgs))
		}
	}
	p.charger.ChargeTransmissions(poolModality, msgs, bytes)
}

// Charger exposes the fleet-wide resource accountant.
func (p *DevicePool) Charger() *device.BulkCharger { return &p.charger }

// Frames returns how many scheduled frames the started fleet was carved
// into.
func (p *DevicePool) Frames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Connections returns the fleet's connection budget: one slot group per
// shard.
func (p *DevicePool) Connections() int { return len(p.clients) }

// Close stops every frame event, tears down the pooled connections and
// joins the background goroutines. Safe to call more than once.
func (p *DevicePool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	frames := p.frames
	devices := len(p.ids)
	conns := append([]net.Conn(nil), p.conns...)
	p.mu.Unlock()

	close(p.done)
	for _, f := range frames {
		if f.ev != nil {
			f.ev.Stop()
		}
	}
	for i := range p.clients {
		if cli := p.clients[i].Load(); cli != nil {
			_ = cli.Close()
		}
	}
	// Closing the conns unblocks any handshake still parked in a read; a
	// dial that lands after this snapshot sees closed and closes its own.
	for _, c := range conns {
		if c != nil {
			_ = c.Close()
		}
	}
	p.wg.Wait()
	p.series.devices.Add(-float64(devices))
}
