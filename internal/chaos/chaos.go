// Package chaos runs simulated SenSocial deployments under scripted
// netsim fault schedules while continuously checking end-to-end
// invariants.
//
// A run builds a pooled-device simulation on a manual clock, arms a
// netsim.FaultEngine with the scenario's schedule, and advances virtual
// time in fixed steps. After every step the harness quiesces (waits, in
// real time, for the server ingest pipeline to drain what the step
// produced), sends QoS 1 probe publishes over a dedicated never-faulted
// client pair, and checks the mid-run invariants. At the end it checks
// global conservation: every sample the fleet ever took must be accounted
// for by exactly one of published / ack-lost / dropped / still-buffered.
//
// The invariants, in the order they are checked:
//
//  1. Ordering — per-user item timestamps observed by the server are
//     strictly increasing (store-and-forward backdating included).
//  2. No duplicate delivery — no (device, timestamp) item reaches the
//     server twice, and every acked QoS 1 probe is delivered exactly
//     once (unacked ones at most once: at-most-once semantics).
//  3. Bounded staleness — at quiesce, the server context registry equals
//     the last delivered classification for every user.
//  4. Conservation — pool samples == published + ackLost + dropped +
//     backlog, the ingest pipeline's enqueued == processed + dropped,
//     and server receipts bound the pool's publish counters (with strict
//     equality on fault-free runs).
//
// Schedules are deterministic: the same seed and schedule produce the
// same virtual-time fault sequence, so chaos runs are byte-replayable on
// the canonical /trace dump under the same pinned-ordering configuration
// the trace determinism tests use.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core/server"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// Options configures one chaos run.
type Options struct {
	// Devices is the pooled fleet size; required.
	Devices int
	// Shards is the deployment's ring size (sim.Options.Shards, default
	// 1): N brokers meshed by summary-gated bridges, the pool spreading
	// each device to its ring owner. Required (>= 2, and > the highest
	// killed shard index) for schedules containing kill faults; crash
	// faults are one-shard only (a larger ring loses shards permanently
	// via kill).
	Shards int
	// Schedule is the fault script driving the run; required.
	Schedule *netsim.Schedule
	// Duration is the virtual run length (default Schedule.Horizon + 10m).
	Duration time.Duration
	// Step is the virtual-time advance granularity; the harness quiesces
	// and probes between steps (default 1m).
	Step time.Duration
	// Seed makes the simulation deterministic (default 42).
	Seed int64
	// Pool tunes the pooled scheduler, including UploadQoS. Schedules
	// that shape latency/bandwidth/loss on the device-pool<->server path
	// are rejected at QoS 1: a QoS 1 flush blocks on PUBACKs inside a
	// scheduled frame, where virtual time cannot advance, so the pool
	// path must either work delay-free or fail fast (partition, churn).
	Pool sim.PoolOptions
	// DurableDir enables broker durability (see sim.Options.DurableDir).
	// Required for schedules containing crash faults: a crash kills the
	// broker mid-write and restarts it from its session journal, so there
	// must be a journal to recover from.
	DurableDir string
	// IngestShards sizes the server pipeline (default 1, which pins the
	// ingest ordering so trace dumps are byte-replayable).
	IngestShards int
	// TraceCapacity enables span tracing (0 = off).
	TraceCapacity int
	// Logf, when set, receives progress lines (fault applications, step
	// summaries).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Duration <= 0 {
		o.Duration = o.Schedule.Horizon() + 10*time.Minute
	}
	if o.Step <= 0 {
		o.Step = time.Minute
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.IngestShards <= 0 {
		o.IngestShards = 1
	}
	return o
}

// probe hosts are reserved for the harness's own QoS 1 delivery checks
// and must stay outside every scheduled fault's blast radius.
var probeHosts = []string{"chaos-probe", "chaos-watch"}

func validate(o Options) error {
	if o.Devices <= 0 {
		return fmt.Errorf("chaos: Devices must be positive")
	}
	if o.Schedule == nil {
		return fmt.Errorf("chaos: Schedule is required")
	}
	for _, f := range o.Schedule.Faults {
		if f.Kind == netsim.FaultCrash && o.DurableDir == "" {
			return fmt.Errorf("chaos: fault @%v crash needs Options.DurableDir: an in-memory broker has nothing to recover from", f.At)
		}
		if f.Kind == netsim.FaultCrash && o.Shards > 1 {
			return fmt.Errorf("chaos: fault @%v crash is single-shard only; cluster runs lose shards permanently via kill", f.At)
		}
		if f.Kind == netsim.FaultKill {
			if o.Shards < 2 {
				return fmt.Errorf("chaos: fault @%v kill needs a cluster (Options.Shards >= 2)", f.At)
			}
			// sim.KillShard takes any shard; shard0 is off limits here only
			// because this harness's probe and storm rigs connect to it.
			ok := false
			for k := 1; k < o.Shards; k++ {
				if len(f.A) == 1 && f.A[0] == sim.ShardID(k) {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("chaos: fault @%v kill %v: target must be shard1..shard%d (the probe and storm rigs connect to shard0)",
					f.At, f.A, o.Shards-1)
			}
			continue
		}
		if f.Kind == netsim.FaultStorm || f.Kind == netsim.FaultHeal || f.Kind == netsim.FaultCrash {
			continue
		}
		for _, pat := range append(append([]string{}, f.A...), f.B...) {
			for _, h := range probeHosts {
				if netsim.MatchHost(pat, h) {
					return fmt.Errorf("chaos: fault @%v %v pattern %q targets reserved probe host %q",
						f.At, f.Kind, pat, h)
				}
			}
		}
		if o.Pool.UploadQoS >= 1 {
			switch f.Kind {
			case netsim.FaultLatency, netsim.FaultBandwidth, netsim.FaultLoss:
				if touchesPoolPath(f) {
					return fmt.Errorf("chaos: fault @%v %v shapes the pool path; QoS 1 uploads need it delay-free — use partition or churn",
						f.At, f.Kind)
				}
			}
		}
	}
	return nil
}

// NeedsDurability reports whether the schedule contains crash faults and
// therefore requires Options.DurableDir.
func NeedsDurability(s *netsim.Schedule) bool {
	for _, f := range s.Faults {
		if f.Kind == netsim.FaultCrash {
			return true
		}
	}
	return false
}

func touchesPoolPath(f netsim.Fault) bool {
	for _, pat := range append(append([]string{}, f.A...), f.B...) {
		if netsim.MatchHost(pat, "device-pool") || netsim.MatchHost(pat, "server") {
			return true
		}
	}
	return false
}

// Result reports what a chaos run did and whether any invariant broke.
type Result struct {
	// Violations holds one line per invariant breach (empty on success).
	Violations []string
	// Items is how many stream items the server ingested end to end.
	Items uint64
	// Steps is how many virtual-time steps the run advanced.
	Steps int
	// ProbesSent/ProbesAcked/ProbesAmbiguous count the QoS 1 probe
	// publishes and how their acknowledgements resolved.
	ProbesSent      int
	ProbesAcked     int
	ProbesAmbiguous int
	// StormClients is how many flash-crowd subscribers joined.
	StormClients int
	// Metrics is shard 0's registry as the run left it. It carries what the
	// deployment owns — the fault tallies (sensocial_netsim_faults_total by
	// kind, sensocial_netsim_conn_resets_total by cause) and the pool ledger
	// (sensocial_sim_*) — beside shard 0's own broker and server series.
	Metrics *obs.Registry
	// Trace is the canonical span dump (nil unless TraceCapacity was set).
	Trace []byte
}

// Ok reports whether every invariant held.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// chaosEpoch anchors every run at the same virtual instant so schedules
// and traces are comparable across runs.
var chaosEpoch = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)

// quiesceTimeout bounds, in real time, how long the harness waits for
// background goroutines (broker sessions, ingest workers) to drain one
// step's traffic. Virtual time is parked while it waits.
const quiesceTimeout = 30 * time.Second

// Run executes one scenario under its fault schedule and checks every
// invariant. A non-nil error means the harness itself could not run; a
// completed run with broken invariants returns them in
// Result.Violations.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := validate(opts); err != nil {
		return nil, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	clock := vclock.NewManual(chaosEpoch)
	dep, err := sim.New(sim.Options{
		Clock:  clock,
		Seed:   opts.Seed,
		Shards: opts.Shards,
		// A delay-free base fabric: every impairment comes from the
		// schedule, which also keeps handshakes inside scheduled events
		// deterministic.
		MobileLink:    &netsim.Link{},
		Pool:          opts.Pool,
		IngestShards:  opts.IngestShards,
		TraceCapacity: opts.TraceCapacity,
		DurableDir:    opts.DurableDir,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer dep.Close()
	// The probe and storm rigs connect to shard 0 (see validate).
	fabric, brokerAddr := dep.Fabric, dep.Shards[0].BrokerAddr

	inv := newChecker()
	for _, sh := range dep.Shards {
		sh.Server.OnItem(inv.tap)
	}
	// regOf resolves a user to its owning shard's registry for staleness
	// checks; users owned by a killed shard are skipped (their snapshots
	// are frozen with the shard, not stale).
	regOf := func(userID string) *server.ContextRegistry {
		sh := dep.Owner(userID)
		if !sh.Alive() {
			return nil
		}
		return sh.Server.Registry()
	}
	if err := dep.AddDevices(opts.Devices); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if err := dep.StartPool(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if err := dep.Pool.WaitReady(quiesceTimeout); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}

	probes, err := newProbeRig(fabric, clock, brokerAddr)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer probes.close()
	storm := &stormRig{fabric: fabric, clock: clock, addr: brokerAddr}
	defer storm.close()

	// crashed is written only from fault events, which run synchronously
	// inside clock.Advance on the manual clock; the loop reads it between
	// advances, so no lock is needed.
	crashed := false
	eng, err := netsim.NewFaultEngine(fabric, clock, opts.Schedule, netsim.EngineOptions{
		OnStorm: storm.surge,
		OnCrash: func() {
			// Kill the broker mid-write and recover it from the session
			// journal (sim crashes the journal before reopening it).
			// One-shard only (validated), so shard 0 is the whole ring.
			if err := dep.Shards[0].RestartBroker(); err != nil {
				inv.violate("crash: broker recovery failed: %v", err)
				return
			}
			crashed = true
		},
		OnKill: func(shardID string) {
			// Permanent shard loss: bridge first, then broker and server.
			// Validation pinned the target to shard1..shardN-1.
			for i, sh := range dep.Shards {
				if sh.ID == shardID {
					if err := dep.KillShard(i); err != nil {
						inv.violate("kill: %v", err)
					}
					return
				}
			}
			inv.violate("kill: unknown shard %q", shardID)
		},
		OnFault: func(f netsim.Fault) { logf("fault @%v %v", f.At, f.Kind) },
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if err := eng.Start(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer eng.Stop()

	steps := int(opts.Duration / opts.Step)
	for i := 0; i < steps; i++ {
		clock.Advance(opts.Step)
		if err := dep.Quiesce(quiesceTimeout); err != nil {
			return nil, fmt.Errorf("chaos: step %d: %w", i+1, err)
		}
		if crashed {
			crashed = false
			// The probe clients died with the broker; reconnect them so the
			// recovered broker redelivers any unacked QoS 1 frames, then wait
			// for the in-flight set to drain before the next probe round.
			if err := probes.reconnect(); err != nil {
				return nil, fmt.Errorf("chaos: step %d: probe reconnect: %w", i+1, err)
			}
			drainInflight(dep.Shards[0], inv)
		}
		probes.round(inv)
		inv.checkStaleness(regOf)
	}
	eng.Stop()

	// Final settle: heal everything and advance one more cadence so
	// still-dark backlogs either drain or stay counted as backlog.
	fabric.Heal()
	clock.Advance(opts.Step)
	if err := dep.Quiesce(quiesceTimeout); err != nil {
		return nil, fmt.Errorf("chaos: final settle: %w", err)
	}
	inv.checkStaleness(regOf)

	res := &Result{
		Steps:        steps,
		Metrics:      dep.Shards[0].Metrics,
		StormClients: storm.joined(),
	}
	inv.checkConservation(dep.Shards, opts.Pool.UploadQoS)
	probes.finalCheck(inv)
	res.ProbesSent, res.ProbesAcked, res.ProbesAmbiguous = probes.counts()
	res.Violations, res.Items = inv.report()

	if opts.TraceCapacity > 0 {
		dep.Close()
		var buf writerBuf
		for _, sh := range dep.Shards {
			if len(dep.Shards) > 1 {
				fmt.Fprintf(&buf, "=== %s ===\n", sh.ID)
			}
			if err := sh.Tracer.WriteText(&buf); err != nil {
				return nil, fmt.Errorf("chaos: trace dump: %w", err)
			}
		}
		res.Trace = buf.b
	}
	logf("chaos: %d steps, %d items, %d violations", res.Steps, res.Items, len(res.Violations))
	return res, nil
}

// writerBuf is a minimal io.Writer so the package needs no bytes import
// on the hot path-free harness.
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// drainInflight waits, in real time, for the recovered broker's in-flight
// QoS 1 set to drain: redeliveries to the reconnected probe subscriber are
// acked on its read loop, so with the clock parked the count must fall to
// zero in bounded goroutine time.
func drainInflight(s *shard.Shard, inv *checker) {
	state := s.BrokerSessionStore()
	if state == nil {
		return
	}
	//lint:ignore wallclock redelivery acks are real goroutine progress while virtual time is parked
	deadline := time.Now().Add(quiesceTimeout)
	for state.InflightCount() > 0 {
		//lint:ignore wallclock see above
		if time.Now().After(deadline) {
			inv.violate("crash: %d in-flight QoS 1 frames undrained %v after recovery",
				state.InflightCount(), quiesceTimeout)
			return
		}
		//lint:ignore wallclock see above
		time.Sleep(time.Millisecond)
	}
}

// probeRig owns the QoS 1 probe path: a publisher and a subscriber on
// reserved hosts that no schedule may fault, used to check exactly-once
// delivery of acknowledged publishes end to end through the broker.
// Crash faults relax the contract to at-least-once (see finalCheck).
type probeRig struct {
	fabric *netsim.Network
	clock  vclock.Clock
	addr   string
	pub    *mqtt.Client
	watch  *mqtt.Client

	mu        sync.Mutex
	recv      map[uint64]int
	sent      uint64
	acked     map[uint64]bool
	ambiguous int
	// relaxed flips after a broker crash: redelivered frames may reach the
	// subscriber twice (at-least-once), so exactly-once becomes ≥ once.
	relaxed bool
}

func newProbeRig(fabric *netsim.Network, clock vclock.Clock, addr string) (*probeRig, error) {
	r := &probeRig{
		fabric: fabric,
		clock:  clock,
		addr:   addr,
		recv:   make(map[uint64]int),
		acked:  make(map[uint64]bool),
	}
	if err := r.connect(); err != nil {
		return nil, err
	}
	return r, nil
}

// connect dials the probe client pair; counters survive reconnects.
func (r *probeRig) connect() error {
	wc, err := r.fabric.Dial("chaos-watch", r.addr)
	if err != nil {
		return err
	}
	if r.watch, err = mqtt.Connect(wc, mqtt.ClientOptions{ClientID: "chaos-watch", Clock: r.clock}); err != nil {
		return err
	}
	err = r.watch.Subscribe("chaos/probe/#", 1, func(m mqtt.Message) {
		var seq uint64
		if _, err := fmt.Sscanf(string(m.Payload), "%d", &seq); err != nil {
			return
		}
		r.mu.Lock()
		r.recv[seq]++
		r.mu.Unlock()
	})
	if err != nil {
		_ = r.watch.Close()
		return err
	}
	pc, err := r.fabric.Dial("chaos-probe", r.addr)
	if err != nil {
		_ = r.watch.Close()
		return err
	}
	if r.pub, err = mqtt.Connect(pc, mqtt.ClientOptions{ClientID: "chaos-probe", Clock: r.clock}); err != nil {
		_ = r.watch.Close()
		return err
	}
	return nil
}

// reconnect replaces the probe clients after a broker crash. The durable
// broker redelivers unacked QoS 1 frames to the reconnected watch session,
// whose read loop acks them; from here on delivery counts are judged
// at-least-once.
func (r *probeRig) reconnect() error {
	r.close()
	r.mu.Lock()
	r.relaxed = true
	r.mu.Unlock()
	return r.connect()
}

// round sends one QoS 1 probe and, if it is acknowledged, waits for it
// to reach the watch subscriber. The probe path is delay-free by
// construction, so the wait is real-time goroutine progress only.
func (r *probeRig) round(inv *checker) {
	r.mu.Lock()
	seq := r.sent
	r.sent++
	r.mu.Unlock()
	topic := fmt.Sprintf("chaos/probe/%d", seq%8)
	err := r.pub.Publish(topic, fmt.Appendf(nil, "%d", seq), 1, false)
	switch {
	case err == nil:
		r.mu.Lock()
		r.acked[seq] = true
		r.mu.Unlock()
	case errors.Is(err, mqtt.ErrAckUnknown) || errors.Is(err, mqtt.ErrAckTimeout):
		r.mu.Lock()
		r.ambiguous++
		r.mu.Unlock()
		return
	default:
		// The probe path is never faulted, so a hard publish failure is
		// itself an invariant breach.
		inv.violate("probe: publish seq %d failed: %v", seq, err)
		return
	}
	//lint:ignore wallclock probe delivery is real goroutine progress over a delay-free path
	deadline := time.Now().Add(quiesceTimeout)
	for {
		r.mu.Lock()
		delivered := r.recv[seq] > 0
		r.mu.Unlock()
		if delivered {
			return
		}
		//lint:ignore wallclock see above
		if time.Now().After(deadline) {
			inv.violate("probe: acked seq %d undelivered after %v", seq, quiesceTimeout)
			return
		}
		//lint:ignore wallclock see above
		time.Sleep(time.Millisecond)
	}
}

// finalCheck asserts QoS 1 probe delivery counts: acked probes exactly
// once, unacked at most once. After a broker crash the durable redelivery
// contract is at-least-once (docs/DURABILITY.md), so acked probes must
// arrive one or more times and unacked counts are unconstrained.
func (r *probeRig) finalCheck(inv *checker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for seq := uint64(0); seq < r.sent; seq++ {
		got := r.recv[seq]
		switch {
		case r.acked[seq] && got == 0:
			inv.violate("probe: acked seq %d never delivered", seq)
		case r.acked[seq] && got != 1 && !r.relaxed:
			inv.violate("probe: acked seq %d delivered %d times, want exactly 1", seq, got)
		case !r.acked[seq] && got > 1 && !r.relaxed:
			inv.violate("probe: unacked seq %d delivered %d times, want at most 1", seq, got)
		}
	}
}

func (r *probeRig) counts() (sent, acked, ambiguous int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.sent), len(r.acked), r.ambiguous
}

func (r *probeRig) close() {
	_ = r.pub.Close()
	_ = r.watch.Close()
}

// stormRig implements flash-crowd join storms: each storm fault dials
// that many fresh subscriber clients synchronously at the scheduled
// virtual time. Clients stay connected (and churnable) until teardown.
type stormRig struct {
	fabric *netsim.Network
	clock  vclock.Clock
	addr   string

	mu      sync.Mutex
	clients []*mqtt.Client
	count   int
	errs    int
}

func (r *stormRig) surge(n int) {
	for i := 0; i < n; i++ {
		r.mu.Lock()
		id := fmt.Sprintf("storm-%05d", r.count)
		r.count++
		r.mu.Unlock()
		conn, err := r.fabric.Dial(id, r.addr)
		if err != nil {
			r.mu.Lock()
			r.errs++
			r.mu.Unlock()
			continue
		}
		cli, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: id, Clock: r.clock})
		if err != nil {
			r.mu.Lock()
			r.errs++
			r.mu.Unlock()
			continue
		}
		// Joining subscribers land on the broker's fan-out trie like any
		// real flash crowd; ignoring the messages keeps the rig cheap.
		if err := cli.Subscribe("chaos/storm/#", 0, func(mqtt.Message) {}); err != nil {
			_ = cli.Close()
			r.mu.Lock()
			r.errs++
			r.mu.Unlock()
			continue
		}
		r.mu.Lock()
		r.clients = append(r.clients, cli)
		r.mu.Unlock()
	}
}

func (r *stormRig) joined() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.clients)
}

func (r *stormRig) close() {
	r.mu.Lock()
	clients := r.clients
	r.clients = nil
	r.mu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
}
