// Package netsim provides an in-memory network fabric with configurable link
// conditions (latency, jitter, bandwidth, loss). The SenSocial evaluation
// depends on network timing — Table 3 measures OSN-to-server and
// OSN-to-mobile notification delays over "an uncongested WiFi network" — so
// the simulator carries every byte between mobiles, server and OSN through
// netsim links whose delay profiles are explicit and reproducible.
//
// Connections implement net.Conn, so the same MQTT and HTTP code that runs
// over real TCP runs unmodified over simulated links.
//
// The fabric is also the substrate for hostile-network testing: partitions,
// link-shaping overrides and forced connection resets can be applied to host
// groups at runtime (see Partition, ApplyLinkFault, ResetConns) and driven
// from a scripted, virtual-time fault schedule (see Schedule and
// FaultEngine in fault.go). Fault state layers over the base Link profiles,
// so SetLink callers are untouched.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// Link describes one direction of a connection's conditions.
type Link struct {
	// Latency is the fixed one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per write.
	Jitter time.Duration
	// BandwidthBps throttles throughput in bytes/second; 0 means unlimited.
	BandwidthBps float64
	// Loss is the probability in [0,1) that a write is "lost". The fabric
	// carries ordered streams (TCP-like), so a lost write still arrives,
	// but pays LossPenalty of extra delay — a retransmission — and is
	// counted in sensocial_netsim_loss_retransmits_total.
	Loss float64
	// LossPenalty is the extra delay charged per lost write
	// (default 100ms).
	LossPenalty time.Duration
}

const defaultLossPenalty = 100 * time.Millisecond

// txTime is how long n bytes occupy the pipe at the link's bandwidth.
func (l Link) txTime(n int) time.Duration {
	if l.BandwidthBps <= 0 {
		return 0
	}
	return time.Duration(float64(n) / l.BandwidthBps * float64(time.Second))
}

// propDelay is the per-write propagation delay: latency plus jitter.
func (l Link) propDelay(rng func() float64) time.Duration {
	d := l.Latency
	if l.Jitter > 0 {
		d += time.Duration(rng() * float64(l.Jitter))
	}
	return d
}

func (l Link) lossPenalty() time.Duration {
	if l.LossPenalty > 0 {
		return l.LossPenalty
	}
	return defaultLossPenalty
}

// delayFree reports whether the link delivers writes with no delay at all:
// a handshake over such a link completes without any clock advance.
func (l Link) delayFree() bool {
	return l.Latency == 0 && l.Jitter == 0 && l.BandwidthBps <= 0 && l.Loss == 0
}

// ErrNetworkClosed is returned by operations on a closed Network.
var ErrNetworkClosed = errors.New("netsim: network closed")

// ErrConnectionRefused is returned by Dial when no listener is bound.
var ErrConnectionRefused = errors.New("netsim: connection refused")

// ErrPartitioned is returned by Dial when an injected partition separates
// the two hosts.
var ErrPartitioned = errors.New("netsim: hosts partitioned")

// ErrConnReset is observed on both ends of a connection that fault
// injection forcibly reset (churn, or an established connection caught by a
// partition).
var ErrConnReset = errors.New("netsim: connection reset")

// Addr is a simulated network address.
type Addr struct{ Host string }

var _ net.Addr = Addr{}

// Network implements net.Addr.
func (Addr) Network() string { return "sim" }

// String implements net.Addr.
func (a Addr) String() string { return a.Host }

// Network is a fabric of named hosts. Listeners bind to "host:port" style
// names; dials connect through a Link profile.
type Network struct {
	clock    vclock.Clock
	counters atomic.Pointer[fabricCounters]

	mu        sync.Mutex
	rng       *rand.Rand
	listeners map[string]*listener
	links     map[string]Link // keyed by "src->dst"; "" key is the default
	closed    bool

	// Fault-injection state, layered over the base links above.
	cuts      []cut          // active partitions
	overrides []linkOverride // link-shaping faults, applied in order
	conns     map[uint64]*connPair
	connSeq   uint64
}

// cut severs traffic between hosts matching the a patterns and hosts
// matching the b patterns, in both directions.
type cut struct{ a, b []string }

// linkOverride layers a LinkFault onto the base link of every host pair
// matching the src→dst patterns.
type linkOverride struct {
	src, dst string
	fault    LinkFault
}

// connPair tracks one established connection for fault targeting.
type connPair struct {
	id               uint64
	srcHost, dstHost string
	client, server   *conn
}

func (p *connPair) abort(err error) {
	p.client.abort(err)
	p.server.abort(err)
}

// fabricCounters are the fabric-wide obs series; swapped wholesale when
// the network is re-instrumented.
type fabricCounters struct {
	dials           *obs.Counter
	txBytes         *obs.Counter
	faults          *obs.CounterVec // by fault kind, as the schedule DSL spells it
	connResets      *obs.CounterVec // by cause: "partition" or "churn"
	dialsRefused    *obs.Counter
	lossRetransmits *obs.Counter
	writeWaits      *obs.Counter
	queuedPeak      atomic.Int64 // most bytes one direction has held; see noteQueued
}

func newFabricCounters(reg *obs.Registry) *fabricCounters {
	return &fabricCounters{
		dials: reg.Counter("sensocial_netsim_dials_total",
			"Connections established through the simulated fabric."),
		txBytes: reg.Counter("sensocial_netsim_tx_bytes_total",
			"Bytes written into simulated links (both directions)."),
		faults: reg.CounterVec("sensocial_netsim_faults_total",
			"Fault-schedule entries applied to the fabric, by fault kind.", "kind"),
		connResets: reg.CounterVec("sensocial_netsim_conn_resets_total",
			"Established connections forcibly reset by fault injection, by cause (partition or churn).", "cause"),
		dialsRefused: reg.Counter("sensocial_netsim_dials_refused_total",
			"Dials refused because an injected partition separated the hosts."),
		lossRetransmits: reg.Counter("sensocial_netsim_loss_retransmits_total",
			"Writes that paid a simulated loss retransmission penalty."),
		writeWaits: reg.Counter("sensocial_netsim_write_waits_total",
			"Writes that waited for room in a full send window."),
	}
}

// noteQueued raises the queued-bytes peak to held, the bytes one direction
// holds after a write, if that is higher.
func (fc *fabricCounters) noteQueued(held int) {
	for {
		peak := fc.queuedPeak.Load()
		if int64(held) <= peak || fc.queuedPeak.CompareAndSwap(peak, int64(held)) {
			return
		}
	}
}

// NewNetwork creates a fabric using the given clock for link delays and a
// deterministic seed for jitter.
func NewNetwork(clock vclock.Clock, seed int64) *Network {
	n := &Network{
		clock:     clock,
		rng:       rand.New(rand.NewSource(seed)),
		listeners: make(map[string]*listener),
		links:     make(map[string]Link),
		conns:     make(map[uint64]*connPair),
	}
	n.counters.Store(newFabricCounters(obs.NewRegistry()))
	return n
}

// Instrument re-registers the fabric's counters (families
// sensocial_netsim_*) against the deployment registry so they appear on
// its /metrics. Call before traffic starts: connections resolve the
// counters at dial time.
func (n *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	fc := newFabricCounters(reg)
	n.counters.Store(fc)
	reg.GaugeFunc("sensocial_netsim_queued_bytes_max",
		"Most bytes one direction of one connection has held at once: at most the send window plus one write, unless the window's head was not yet deliverable or the other direction had a writer waiting.",
		func() float64 { return float64(fc.queuedPeak.Load()) })
	reg.GaugeFunc("sensocial_netsim_unread_bytes",
		"Bytes due at the receiving end of established connections that its reader has not taken, or took and has not come back from.",
		n.unreadBytes)
}

// unreadBytes is the fabric's saturation signal: data the link has finished
// carrying (its stamp has passed on the clock) that the receiving goroutine
// has not read yet, or has read and is still working through — a reader
// proves it is done with a chunk by calling Read again. Every endpoint keeps
// a reader parked in Read, so at rest it is zero; with a manual clock parked
// it is what tells "nothing more will arrive" from "the receiver is still
// catching up".
func (n *Network) unreadBytes() float64 {
	n.mu.Lock()
	pairs := n.collectLocked(func(*connPair) bool { return true })
	n.mu.Unlock()
	now, total := n.clock.Now(), 0
	for _, p := range pairs {
		total += p.client.in.due(now) + p.server.in.due(now)
	}
	return float64(total)
}

// SetDefaultLink sets the conditions applied to every connection without a
// more specific override.
func (n *Network) SetDefaultLink(l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[""] = l
}

// SetLink overrides conditions for traffic from src host to dst host
// (host part only, no port). Applies symmetrically unless the reverse
// direction is also overridden.
func (n *Network) SetLink(src, dst string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[src+"->"+dst] = l
	if _, ok := n.links[dst+"->"+src]; !ok {
		n.links[dst+"->"+src] = l
	}
}

func (n *Network) linkFor(src, dst string) Link {
	if l, ok := n.links[hostOf(src)+"->"+hostOf(dst)]; ok {
		return l
	}
	return n.links[""]
}

// effectiveLinkLocked resolves the base link for src→dst and layers every
// matching fault override onto it, in injection order.
func (n *Network) effectiveLinkLocked(src, dst string) Link {
	l := n.linkFor(src, dst)
	sh, dh := hostOf(src), hostOf(dst)
	for _, o := range n.overrides {
		if MatchHost(o.src, sh) && MatchHost(o.dst, dh) {
			l = o.fault.apply(l)
		}
	}
	return l
}

// MatchHost reports whether host matches a fault pattern: exact, "*", or a
// trailing-star prefix like "device-*". It is the one definition of the
// pattern language, shared by the fabric and schedule validation.
func MatchHost(pattern, host string) bool {
	if pattern == "*" {
		return true
	}
	if n := len(pattern); n > 0 && pattern[n-1] == '*' {
		return len(host) >= n-1 && host[:n-1] == pattern[:n-1]
	}
	return pattern == host
}

func matchAny(patterns []string, host string) bool {
	for _, p := range patterns {
		if MatchHost(p, host) {
			return true
		}
	}
	return false
}

func crossesCut(c cut, src, dst string) bool {
	return (matchAny(c.a, src) && matchAny(c.b, dst)) ||
		(matchAny(c.b, src) && matchAny(c.a, dst))
}

func hostOf(addr string) string {
	for i := 0; i < len(addr); i++ {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}

// Listen binds a listener to addr ("host:port").
func (n *Network) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("netsim: listen %q: %w", addr, ErrNetworkClosed)
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("netsim: listen %q: address in use", addr)
	}
	l := &listener{
		net:    n,
		addr:   Addr{Host: addr},
		accept: make(chan net.Conn, 16),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects from srcHost to the listener at dstAddr.
func (n *Network) Dial(srcHost, dstAddr string) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: dial %q: %w", dstAddr, ErrNetworkClosed)
	}
	if n.partitionedLocked(hostOf(srcHost), hostOf(dstAddr)) {
		fc := n.counters.Load()
		n.mu.Unlock()
		fc.dialsRefused.Inc()
		return nil, fmt.Errorf("netsim: dial %q from %q: %w", dstAddr, srcHost, ErrPartitioned)
	}
	l, ok := n.listeners[dstAddr]
	fwd := n.effectiveLinkLocked(srcHost, dstAddr)
	rev := n.effectiveLinkLocked(dstAddr, srcHost)
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netsim: dial %q from %q: %w", dstAddr, srcHost, ErrConnectionRefused)
	}

	fc := n.counters.Load()
	fc.dials.Inc()
	clientEnd, serverEnd := linkedPair(n.clock, n.randFloat, fwd, rev,
		Addr{Host: srcHost}, Addr{Host: dstAddr}, fc)
	n.registerPair(srcHost, dstAddr, clientEnd, serverEnd)

	select {
	case l.accept <- serverEnd:
		// The enqueue can race listener close: if close ran its stranded-conn
		// drain before the send landed, the server end would sit in the queue
		// forever. Re-checking closed under l.mu decides it — close holds the
		// same lock, so either its drain saw our conn, or we see closed here
		// and sweep the queue ourselves.
		l.mu.Lock()
		closed := l.closed
		l.mu.Unlock()
		if closed {
			for {
				select {
				case c := <-l.accept:
					_ = c.Close()
				default:
					_ = clientEnd.Close()
					return nil, fmt.Errorf("netsim: dial %q: %w", dstAddr, ErrConnectionRefused)
				}
			}
		}
		return clientEnd, nil
	case <-l.done:
		_ = clientEnd.Close()
		_ = serverEnd.Close()
		return nil, fmt.Errorf("netsim: dial %q: %w", dstAddr, ErrConnectionRefused)
	}
}

// registerPair indexes an established connection for fault targeting. The
// onClose hooks are wired before the pair becomes visible, so a concurrent
// Partition/ResetConns sweep can never abort a pair that then fails to
// deregister itself.
func (n *Network) registerPair(srcHost, dstAddr string, client, server *conn) {
	n.mu.Lock()
	n.connSeq++
	id := n.connSeq
	n.mu.Unlock()
	drop := func() { n.dropPair(id) }
	client.onClose = drop
	server.onClose = drop
	p := &connPair{
		id: id, srcHost: hostOf(srcHost), dstHost: hostOf(dstAddr),
		client: client, server: server,
	}
	n.mu.Lock()
	n.conns[id] = p
	n.mu.Unlock()
}

func (n *Network) dropPair(id uint64) {
	n.mu.Lock()
	delete(n.conns, id)
	n.mu.Unlock()
}

// Partition severs traffic between hosts matching the a patterns and hosts
// matching the b patterns: established connections crossing the cut are
// forcibly reset (both ends observe ErrConnReset) and new dials across it
// are refused with ErrPartitioned until Heal. Patterns are exact hosts,
// "*", or trailing-star prefixes ("device-*"). Returns the number of
// connections reset.
func (n *Network) Partition(a, b []string) int {
	c := cut{a: a, b: b}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0
	}
	n.cuts = append(n.cuts, c)
	victims := n.collectLocked(func(p *connPair) bool {
		return crossesCut(c, p.srcHost, p.dstHost)
	})
	fc := n.counters.Load()
	n.mu.Unlock()
	for _, p := range victims {
		p.abort(ErrConnReset)
	}
	if len(victims) > 0 {
		fc.connResets.WithLabelValues("partition").Add(uint64(len(victims)))
	}
	return len(victims)
}

// IsPartitioned reports whether an active partition separates the hosts.
func (n *Network) IsPartitioned(src, dst string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitionedLocked(hostOf(src), hostOf(dst))
}

func (n *Network) partitionedLocked(src, dst string) bool {
	for _, c := range n.cuts {
		if crossesCut(c, src, dst) {
			return true
		}
	}
	return false
}

// LinkFault overrides selected properties of the base link for matching
// host pairs; nil fields keep the base value.
type LinkFault struct {
	Latency      *time.Duration
	Jitter       *time.Duration
	BandwidthBps *float64
	Loss         *float64
	LossPenalty  *time.Duration
}

func (f LinkFault) apply(l Link) Link {
	if f.Latency != nil {
		l.Latency = *f.Latency
	}
	if f.Jitter != nil {
		l.Jitter = *f.Jitter
	}
	if f.BandwidthBps != nil {
		l.BandwidthBps = *f.BandwidthBps
	}
	if f.Loss != nil {
		l.Loss = *f.Loss
	}
	if f.LossPenalty != nil {
		l.LossPenalty = *f.LossPenalty
	}
	return l
}

// ApplyLinkFault layers f onto the base link for traffic from hosts
// matching the src pattern to hosts matching the dst pattern (one
// direction only — inject both directions for a symmetric fault).
// Established matching connections see the new profile on their next
// write; base profiles and SetLink callers are untouched, and Heal removes
// every override. Returns the number of established connections re-shaped.
func (n *Network) ApplyLinkFault(src, dst string, f LinkFault) int {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0
	}
	n.overrides = append(n.overrides, linkOverride{src: src, dst: dst, fault: f})
	updates, touched := n.linkUpdatesLocked()
	n.mu.Unlock()
	for _, u := range updates {
		u.c.setLink(u.l)
	}
	return touched
}

// Heal clears every partition and link-fault override, restoring the base
// link profiles on established connections. Connections already reset stay
// dead — healing the network does not resurrect sockets.
func (n *Network) Heal() {
	n.mu.Lock()
	n.cuts = nil
	n.overrides = nil
	updates, _ := n.linkUpdatesLocked()
	n.mu.Unlock()
	for _, u := range updates {
		u.c.setLink(u.l)
	}
}

type linkUpdate struct {
	c *conn
	l Link
}

// linkUpdatesLocked recomputes the effective per-direction links of every
// established connection, returning the updates to push (outside the lock)
// and how many pairs changed profile.
func (n *Network) linkUpdatesLocked() ([]linkUpdate, int) {
	updates := make([]linkUpdate, 0, 2*len(n.conns))
	touched := 0
	for _, p := range n.conns {
		fwd := n.effectiveLinkLocked(p.srcHost, p.dstHost)
		rev := n.effectiveLinkLocked(p.dstHost, p.srcHost)
		if fwd != *p.client.link.Load() || rev != *p.server.link.Load() {
			touched++
		}
		updates = append(updates, linkUpdate{p.client, fwd}, linkUpdate{p.server, rev})
	}
	return updates, touched
}

// ResetConns forcibly resets (RST) every established connection with an
// endpoint host matching pattern — connection churn. Both ends observe
// ErrConnReset; in-flight data is dropped. Returns the number reset.
func (n *Network) ResetConns(pattern string) int {
	n.mu.Lock()
	victims := n.collectLocked(func(p *connPair) bool {
		return MatchHost(pattern, p.srcHost) || MatchHost(pattern, p.dstHost)
	})
	fc := n.counters.Load()
	n.mu.Unlock()
	for _, p := range victims {
		p.abort(ErrConnReset)
	}
	if len(victims) > 0 {
		fc.connResets.WithLabelValues("churn").Add(uint64(len(victims)))
	}
	return len(victims)
}

// collectLocked snapshots the matching pairs so the caller can abort them
// after releasing n.mu (abort runs each conn's onClose, which re-enters the
// network to deregister).
func (n *Network) collectLocked(match func(*connPair) bool) []*connPair {
	var out []*connPair
	for _, p := range n.conns {
		if match(p) {
			out = append(out, p)
		}
	}
	return out
}

// PathDelayFree reports whether both directions between the hosts are
// currently delay-free (no latency, jitter, bandwidth cap or loss) and not
// partitioned: a blocking handshake across such a path completes without
// any virtual-clock advance, so it is safe to perform synchronously inside
// a scheduled event.
func (n *Network) PathDelayFree(src, dst string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitionedLocked(hostOf(src), hostOf(dst)) {
		return false
	}
	return n.effectiveLinkLocked(src, dst).delayFree() &&
		n.effectiveLinkLocked(dst, src).delayFree()
}

// countFault bumps the fault-action counter (one per applied schedule
// entry).
func (n *Network) countFault(kind FaultKind) {
	n.counters.Load().faults.WithLabelValues(kind.String()).Inc()
}

func (n *Network) randFloat() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64()
}

// Close shuts down all listeners; established connections keep working
// until closed individually.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	// Sweep the listeners outside n.mu: closing a queued server end runs
	// its onClose deregistration, which re-enters the network.
	ls := make([]*listener, 0, len(n.listeners))
	for addr, l := range n.listeners {
		ls = append(ls, l)
		delete(n.listeners, addr)
	}
	n.mu.Unlock()
	for _, l := range ls {
		l.close()
	}
	return nil
}

type listener struct {
	net    *Network
	addr   Addr
	accept chan net.Conn

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

var _ net.Listener = (*listener)(nil)

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("netsim: accept on %s: listener closed", l.addr)
	}
}

// Close implements net.Listener.
func (l *listener) Close() error {
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr.Host)
	l.net.mu.Unlock()
	l.close()
	return nil
}

func (l *listener) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.done)
		// Dialers that won the race into the accept queue before done
		// closed are still holding live client ends. Nothing will ever
		// Accept them now, so close the queued server ends: the peers
		// observe EOF instead of hanging until their read deadlines.
		for {
			select {
			case c := <-l.accept:
				_ = c.Close()
			default:
				return
			}
		}
	}
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return l.addr }
