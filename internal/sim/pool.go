package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
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
	// slot has no connection or a broken one (default 64). Overflow is
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

func poolActivity(phase uint8, t time.Time) string {
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
// (an end offset into one string of ids per AddDevices call), sampler
// phase (the activity ground truth), ring shard and pending-upload backlog.
// Energy and CPU are charged to one fleet-wide device.BulkCharger, not per
// device.
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
	// Struct-of-arrays device state. names/ends/phase/shard are written
	// only before Start; backlog is mutated under mu by frame ticks. Device
	// i's id ends at ends[i] in the string of the AddDevices call that
	// added it, and starts where device i-1's ends, or at 0 for the call's
	// first device; its user is the id without poolNameSuffix.
	names   []poolNames
	ends    []uint32
	phase   []uint8
	shard   []int32
	backlog []uint16

	frames  []*poolFrame
	clients []atomic.Pointer[mqtt.Client]
	done    chan struct{}
}

// poolNames is the ids of the devices one AddDevices call added, from
// device lo on, back to back in one string.
type poolNames struct {
	lo  int
	ids string
}

// id returns device i's id.
func (p *DevicePool) id(i int) string {
	b := sort.Search(len(p.names), func(b int) bool { return p.names[b].lo > i }) - 1
	start := uint32(0)
	if i > p.names[b].lo {
		start = p.ends[i-1]
	}
	return p.names[b].ids[start:p.ends[i]]
}

// user returns the user of the device whose id is id.
func user(id string) string { return id[:len(id)-len(poolNameSuffix)] }

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

		clients: make([]atomic.Pointer[mqtt.Client], total),
		done:    make(chan struct{}),
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

// poolNamesLen is the byte length of the names of devices [lo, hi). Names
// are one length below 10^poolNameDigits and grow a byte at each later
// power of ten.
func poolNamesLen(lo, hi int) int {
	size := 0
	for longer := int(math.Pow10(poolNameDigits)); lo < hi; longer *= 10 {
		if lo < longer {
			end := min(hi, longer)
			size += (end - lo) * poolNameLen(lo)
			lo = end
		}
	}
	return size
}

// nextPoolName turns device idx's name into device idx+1's in place by
// incrementing its decimal digits. A carry out of the leading digit (idx+1
// is a power of ten past the padding) inserts a leading '1', growing the
// name by a byte within its capacity.
func nextPoolName(name []byte) []byte {
	digits := name[len(poolNamePrefix) : len(name)-len(poolNameSuffix)]
	for i := len(digits) - 1; i >= 0; i-- {
		if digits[i] != '9' {
			digits[i]++
			return name
		}
		digits[i] = '0'
	}
	name = append(name, 0)
	copy(name[len(poolNamePrefix)+1:], name[len(poolNamePrefix):])
	name[len(poolNamePrefix)] = '1'
	return name
}

// AddDevices appends n pooled devices. Must be called before Start.
// Devices are named "pool<idx>" / "pool<idx>-phone", idx zero-padded to six
// digits, so ids sort lexically in index order up to 10^6 devices (beyond
// that "pool1000000" sorts before "pool200000"). Their activity ground truth
// is a phase-shifted rotation through the classifier labels.
//
// Set-up allocates per column, not per device: every column is grown once,
// and all n ids are written into one string, with each id's end offset
// kept. Only the first name is formatted; each later one is its
// predecessor incremented in a stack buffer.
func (p *DevicePool) AddDevices(n int) error {
	if n <= 0 {
		return fmt.Errorf("sim: device pool: AddDevices(%d)", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return fmt.Errorf("sim: device pool: AddDevices after Start")
	}
	base := len(p.ends)
	size := poolNamesLen(base, base+n)
	if uint64(size) > math.MaxUint32 {
		return fmt.Errorf("sim: device pool: AddDevices(%d): %d bytes of ids", n, size)
	}
	var b strings.Builder
	b.Grow(size)
	writePoolName(&b, base)
	var buf [32]byte
	name := append(buf[:0], b.String()...)

	p.ends = slices.Grow(p.ends, n)
	p.phase = slices.Grow(p.phase, n)
	p.shard = slices.Grow(p.shard, n)
	p.backlog = append(p.backlog, make([]uint16, n)...)
	for idx := base; idx < base+n; idx++ {
		if idx > base {
			name = nextPoolName(name)
			b.Write(name)
		}
		// The builder only appends, so a string sliced from it now keeps
		// its bytes; pre-grown, it never reallocates either.
		id := b.String()[b.Len()-len(name):]
		p.ends = append(p.ends, uint32(b.Len()))
		p.phase = append(p.phase, uint8(idx%3))
		p.shard = append(p.shard, int32(p.shardOf(user(id))))
	}
	p.names = append(p.names, poolNames{lo: base, ids: b.String()})
	p.series.devices.Add(float64(n))
	return nil
}

// Start carves the device arrays into frames, connects every slot in slot
// order on the caller's goroutine (connect), and schedules the frames. On a
// delay-free link Start returns with every slot connected and the clock
// where it was. A slot that does not connect (a delayed or partitioned
// path, a refused dial) is retried by its frames' flushes; until then they
// keep sampling and buffer a bounded backlog, which the first flush on a
// connected slot drains with backdated timestamps. The pool's clock must be
// a vclock.EventScheduler.
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
	if len(p.ends) == 0 {
		p.mu.Unlock()
		return fmt.Errorf("sim: device pool: no devices added")
	}
	p.started = true
	start := p.clock.Now()
	nFrames := (len(p.ends) + p.opts.FrameSize - 1) / p.opts.FrameSize
	p.frames = make([]*poolFrame, 0, nFrames)
	for j := 0; j < nFrames; j++ {
		lo := j * p.opts.FrameSize
		hi := min(lo+p.opts.FrameSize, len(p.ends))
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
		p.connect(slot)
	}
	for _, f := range frames {
		f.ev = sched.Schedule(f.next, f.fire)
	}
	return nil
}

// connect dials the slot's fabric connection to its shard's broker and
// performs the MQTT handshake on the caller's goroutine, storing the client
// for frame flushes. mqtt.Connect blocks until the CONNACK arrives, which on
// the manual clock happens only if no delivery waits for the clock to move;
// so connect dials only when the fabric reports the broker path delay-free,
// and otherwise returns nil and leaves the slot for a later flush. That is
// also what makes connect times deterministic. Failed dials and handshakes
// are counted and leave the slot empty.
func (p *DevicePool) connect(slot int) *mqtt.Client {
	addr := p.addrs[slot/p.perShard]
	if !p.fabric.PathDelayFree("device-pool", addr) {
		return nil
	}
	conn, err := p.fabric.Dial("device-pool", addr)
	if err != nil {
		p.series.publishErrs.Inc()
		return nil
	}
	cli, err := mqtt.Connect(conn, mqtt.ClientOptions{
		ClientID: fmt.Sprintf("device-pool-%d", slot),
		Clock:    p.clock,
	})
	if err != nil {
		p.series.publishErrs.Inc()
		_ = conn.Close()
		return nil
	}
	p.clients[slot].Store(cli)
	select {
	case <-p.done:
		// Close ran during the handshake and may have missed the client.
		p.retireClient(slot, cli)
		return nil
	default:
	}
	return cli
}

// retireClient drops a slot's broken client, closing its conn with it, so a
// later flush redials. The compare-and-swap leaves a client that Close has
// already taken to Close, so each client is closed once.
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
				st.cli = p.connect(slot)
			}
			st.failed = st.cli == nil
		}
		if st.failed {
			p.restoreBacklog(int(i), depth)
			continue
		}
		id := p.id(int(i))
		consumed := 0
		for j := 0; j < depth; j++ {
			// Backdate buffered samples to their acquisition ticks, the
			// same store-and-forward timestamping the mobile pipeline uses.
			ts := now.Add(-time.Duration(depth-1-j) * p.opts.SampleInterval)
			item := core.Item{
				StreamID:    poolStreamID,
				DeviceID:    id,
				UserID:      user(id),
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
			err = st.cli.Publish(core.StreamDataTopic(id), payload, p.opts.UploadQoS, false)
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

// Close stops every frame event and tears down the pooled connections.
// Safe to call more than once.
func (p *DevicePool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	frames := p.frames
	devices := len(p.ends)
	p.mu.Unlock()

	close(p.done)
	for _, f := range frames {
		if f.ev != nil {
			f.ev.Stop()
		}
	}
	for i := range p.clients {
		if cli := p.clients[i].Swap(nil); cli != nil {
			_ = cli.Close()
		}
	}
	p.series.devices.Add(-float64(devices))
}
