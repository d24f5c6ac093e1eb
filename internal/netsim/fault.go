package netsim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/vclock"
)

// FaultKind enumerates the schedulable fabric faults.
type FaultKind int

const (
	// FaultPartition severs host groups A and B from each other.
	FaultPartition FaultKind = iota
	// FaultHeal clears every partition and link-fault override.
	FaultHeal
	// FaultLatency overrides latency (and optionally jitter) between A
	// and B.
	FaultLatency
	// FaultBandwidth caps bandwidth between A and B.
	FaultBandwidth
	// FaultLoss injects loss-retransmission penalties between A and B.
	FaultLoss
	// FaultChurn force-resets established connections whose endpoints
	// match the A patterns.
	FaultChurn
	// FaultStorm replays a flash-crowd join storm of Count clients (the
	// engine delegates to EngineOptions.OnStorm).
	FaultStorm
	// FaultCrash kills and restarts the broker process (the engine
	// delegates to EngineOptions.OnCrash; the harness decides what
	// durability the restarted broker recovers from).
	FaultCrash
	// FaultKill permanently removes one named cluster shard — no restart;
	// survivors must keep serving (the engine delegates to
	// EngineOptions.OnKill).
	FaultKill
)

// String names the kind the way the schedule DSL spells it.
func (k FaultKind) String() string {
	switch k {
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultLatency:
		return "latency"
	case FaultBandwidth:
		return "bandwidth"
	case FaultLoss:
		return "loss"
	case FaultChurn:
		return "churn"
	case FaultStorm:
		return "storm"
	case FaultCrash:
		return "crash"
	case FaultKill:
		return "kill"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one scheduled fabric action. A and B carry host patterns:
// partition groups for FaultPartition, src/dst endpoints for the link
// faults, the churn targets for FaultChurn.
type Fault struct {
	// At is the virtual-time offset from engine start.
	At   time.Duration
	Kind FaultKind
	A, B []string
	// Symmetric applies a link fault in both directions (the DSL's
	// "src dst" form; "src->dst" injects one direction only).
	Symmetric bool

	Latency      time.Duration
	Jitter       time.Duration
	BandwidthBps float64
	Loss         float64
	LossPenalty  time.Duration

	// Count is the storm size.
	Count int
}

// linkFault projects the fault's shaping parameters into override form.
func (f Fault) linkFault() LinkFault {
	var lf LinkFault
	switch f.Kind {
	case FaultLatency:
		lat, jit := f.Latency, f.Jitter
		lf.Latency, lf.Jitter = &lat, &jit
	case FaultBandwidth:
		bw := f.BandwidthBps
		lf.BandwidthBps = &bw
	case FaultLoss:
		loss, pen := f.Loss, f.LossPenalty
		lf.Loss = &loss
		if pen > 0 {
			lf.LossPenalty = &pen
		}
	}
	return lf
}

// Schedule is an ordered fault script. Faults fire in At order; ties keep
// source order.
type Schedule struct {
	Name   string
	Faults []Fault
}

// Horizon is the offset of the last fault in the schedule.
func (s *Schedule) Horizon() time.Duration {
	var h time.Duration
	for _, f := range s.Faults {
		if f.At > h {
			h = f.At
		}
	}
	return h
}

// ParseSchedule parses the textual fault-schedule DSL. Blank lines and
// lines starting with "#" are skipped; every other line is
// "@<offset> <verb> <args...>":
//
//	@10m partition device-pool | server
//	@40m heal
//	@5m  latency   device-* server 2s 500ms
//	@5m  bandwidth device-pool server 4096
//	@5m  loss      device-pool server 0.25 250ms
//	@20m churn     device-*
//	@15m storm     200
//	@25m crash
//	@30m kill      shard2
//
// Offsets are Go durations of virtual time from engine start. Link verbs
// take "src dst" (symmetric) or "src->dst" (that direction only); patterns
// are exact hosts, "*", or trailing-star prefixes. The partition verb
// separates two groups of patterns split by "|". Faults are sorted by
// offset (stable, so same-offset lines keep file order).
func ParseSchedule(name, text string) (*Schedule, error) {
	s := &Schedule{Name: name}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f, err := parseFaultLine(line)
		if err != nil {
			return nil, fmt.Errorf("netsim: schedule %s line %d: %w", name, lineNo+1, err)
		}
		s.Faults = append(s.Faults, f)
	}
	if len(s.Faults) == 0 {
		return nil, fmt.Errorf("netsim: schedule %s: no faults", name)
	}
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].At < s.Faults[j].At })
	return s, nil
}

func parseFaultLine(line string) (Fault, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "@") {
		return Fault{}, fmt.Errorf("want \"@<offset> <verb> ...\", got %q", line)
	}
	at, err := time.ParseDuration(strings.TrimPrefix(fields[0], "@"))
	if err != nil || at < 0 {
		return Fault{}, fmt.Errorf("bad offset %q", fields[0])
	}
	f := Fault{At: at}
	verb, args := fields[1], fields[2:]
	switch verb {
	case "partition":
		f.Kind = FaultPartition
		sep := -1
		for i, a := range args {
			if a == "|" {
				sep = i
				break
			}
		}
		if sep <= 0 || sep == len(args)-1 {
			return Fault{}, fmt.Errorf("partition wants \"<groupA...> | <groupB...>\"")
		}
		f.A, f.B = args[:sep], args[sep+1:]
	case "heal":
		f.Kind = FaultHeal
		if len(args) != 0 {
			return Fault{}, fmt.Errorf("heal takes no arguments")
		}
	case "latency":
		f.Kind = FaultLatency
		rest, err := parseEndpoints(&f, args, 1, 2)
		if err != nil {
			return Fault{}, err
		}
		if f.Latency, err = time.ParseDuration(rest[0]); err != nil {
			return Fault{}, fmt.Errorf("bad latency %q", rest[0])
		}
		if len(rest) == 2 {
			if f.Jitter, err = time.ParseDuration(rest[1]); err != nil {
				return Fault{}, fmt.Errorf("bad jitter %q", rest[1])
			}
		}
	case "bandwidth":
		f.Kind = FaultBandwidth
		rest, err := parseEndpoints(&f, args, 1, 1)
		if err != nil {
			return Fault{}, err
		}
		if f.BandwidthBps, err = strconv.ParseFloat(rest[0], 64); err != nil || f.BandwidthBps <= 0 {
			return Fault{}, fmt.Errorf("bad bandwidth %q (bytes/second)", rest[0])
		}
	case "loss":
		f.Kind = FaultLoss
		rest, err := parseEndpoints(&f, args, 1, 2)
		if err != nil {
			return Fault{}, err
		}
		if f.Loss, err = strconv.ParseFloat(rest[0], 64); err != nil || f.Loss <= 0 || f.Loss >= 1 {
			return Fault{}, fmt.Errorf("bad loss probability %q (want (0,1))", rest[0])
		}
		if len(rest) == 2 {
			if f.LossPenalty, err = time.ParseDuration(rest[1]); err != nil {
				return Fault{}, fmt.Errorf("bad loss penalty %q", rest[1])
			}
		}
	case "churn":
		f.Kind = FaultChurn
		if len(args) == 0 {
			return Fault{}, fmt.Errorf("churn wants at least one host pattern")
		}
		f.A = args
	case "storm":
		f.Kind = FaultStorm
		if len(args) != 1 {
			return Fault{}, fmt.Errorf("storm wants exactly one client count")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 || n > 65536 {
			return Fault{}, fmt.Errorf("bad storm size %q", args[0])
		}
		f.Count = n
	case "crash":
		f.Kind = FaultCrash
		if len(args) != 0 {
			return Fault{}, fmt.Errorf("crash takes no arguments")
		}
	case "kill":
		f.Kind = FaultKill
		if len(args) != 1 {
			return Fault{}, fmt.Errorf("kill wants exactly one shard id")
		}
		f.A = []string{args[0]}
	default:
		return Fault{}, fmt.Errorf("unknown verb %q", verb)
	}
	return f, nil
}

// parseEndpoints consumes the link-fault endpoint spec from args — either
// "src dst" (symmetric) or one "src->dst" token (directional) — and
// returns the remaining arguments, checked against [minRest, maxRest].
func parseEndpoints(f *Fault, args []string, minRest, maxRest int) ([]string, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("%s wants link endpoints", f.Kind)
	}
	var rest []string
	if src, dst, ok := strings.Cut(args[0], "->"); ok {
		if src == "" || dst == "" {
			return nil, fmt.Errorf("bad directional endpoints %q", args[0])
		}
		f.A, f.B, f.Symmetric = []string{src}, []string{dst}, false
		rest = args[1:]
	} else {
		if len(args) < 2 {
			return nil, fmt.Errorf("%s wants \"src dst\" or \"src->dst\"", f.Kind)
		}
		f.A, f.B, f.Symmetric = []string{args[0]}, []string{args[1]}, true
		rest = args[2:]
	}
	if len(rest) < minRest || len(rest) > maxRest {
		return nil, fmt.Errorf("%s: want between %d and %d parameters, got %d", f.Kind, minRest, maxRest, len(rest))
	}
	return rest, nil
}

// EngineOptions tunes fault application.
type EngineOptions struct {
	// OnStorm handles FaultStorm entries (the engine itself owns no
	// clients): the harness dials count flash-crowd joiners. Called
	// synchronously from the fault event; nil disables storms.
	OnStorm func(count int)
	// OnCrash handles FaultCrash entries: the harness kills and restarts
	// the broker (typically through its durable session state). Called
	// synchronously from the fault event; nil disables crashes.
	OnCrash func()
	// OnKill handles FaultKill entries: the harness removes the named
	// cluster shard for good. Called synchronously from the fault event;
	// nil disables kills.
	OnKill func(shardID string)
	// OnFault, when non-nil, observes every fault after it is applied.
	OnFault func(f Fault)
}

// FaultEngine drives a Schedule against a Network on the virtual clock,
// which must be a vclock.EventScheduler (vclock.Manual): faults run
// synchronously inside Advance in deterministic (deadline, sequence)
// order, which is what makes chaos runs byte-replayable.
type FaultEngine struct {
	net   *Network
	clock vclock.Clock
	sched *Schedule
	opts  EngineOptions

	mu      sync.Mutex
	started bool
	stopped bool
	events  []vclock.Event
}

// NewFaultEngine binds a schedule to a network. Start arms it.
func NewFaultEngine(n *Network, clock vclock.Clock, sched *Schedule, opts EngineOptions) (*FaultEngine, error) {
	if n == nil || clock == nil {
		return nil, fmt.Errorf("netsim: fault engine: nil network or clock")
	}
	if sched == nil || len(sched.Faults) == 0 {
		return nil, fmt.Errorf("netsim: fault engine: empty schedule")
	}
	return &FaultEngine{net: n, clock: clock, sched: sched, opts: opts}, nil
}

// Start arms every fault at now+At. Safe to call once; it fails on a
// clock that does not schedule events.
func (e *FaultEngine) Start() error {
	sched, ok := e.clock.(vclock.EventScheduler)
	if !ok {
		return fmt.Errorf("netsim: fault engine: clock %T does not schedule events", e.clock)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return fmt.Errorf("netsim: fault engine: already started")
	}
	e.started = true
	base := e.clock.Now()
	for _, f := range e.sched.Faults {
		f := f
		e.events = append(e.events, sched.Schedule(base.Add(f.At), func(time.Time) {
			e.apply(f)
		}))
	}
	return nil
}

// Stop disarms pending faults. Applied fault state (partitions, overrides)
// is left in place; call Network.Heal to clear it.
func (e *FaultEngine) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	events := e.events
	e.mu.Unlock()
	for _, ev := range events {
		ev.Stop()
	}
}

// apply executes one schedule entry. What it did is counted on the fabric's
// registry: sensocial_netsim_faults_total by kind here, and the connections
// a partition or churn reset on sensocial_netsim_conn_resets_total by cause
// inside Partition and ResetConns.
func (e *FaultEngine) apply(f Fault) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()

	e.net.countFault(f.Kind)
	switch f.Kind {
	case FaultPartition:
		e.net.Partition(f.A, f.B)
	case FaultHeal:
		e.net.Heal()
	case FaultLatency, FaultBandwidth, FaultLoss:
		lf := f.linkFault()
		for _, a := range f.A {
			for _, b := range f.B {
				e.net.ApplyLinkFault(a, b, lf)
				if f.Symmetric {
					e.net.ApplyLinkFault(b, a, lf)
				}
			}
		}
	case FaultChurn:
		for _, pat := range f.A {
			e.net.ResetConns(pat)
		}
	case FaultStorm:
		if e.opts.OnStorm != nil {
			e.opts.OnStorm(f.Count)
		}
	case FaultCrash:
		if e.opts.OnCrash != nil {
			e.opts.OnCrash()
		}
	case FaultKill:
		if e.opts.OnKill != nil && len(f.A) == 1 {
			e.opts.OnKill(f.A[0])
		}
	}

	if e.opts.OnFault != nil {
		e.opts.OnFault(f)
	}
}
