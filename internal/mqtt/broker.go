package mqtt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mqtt/topictrie"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Message is an application-level MQTT message.
type Message struct {
	Topic   string
	Payload []byte
	QoS     byte
	Retain  bool
	// Origin identifies the cluster shard a bridged message was first
	// published on. It is in-process routing metadata — never encoded on
	// the wire — set by the cluster bridge when it re-injects a forwarded
	// publish, so the bridge can suppress re-forwarding (loop
	// prevention). Empty for everything published first-hand.
	Origin string
}

// BrokerOptions configures a Broker.
type BrokerOptions struct {
	// Clock supplies time (defaults to the real clock).
	Clock vclock.Clock
	// Logger receives connection lifecycle diagnostics; nil disables logging.
	Logger *slog.Logger
	// FanoutQueue bounds each session's outbound delivery queue (default
	// 256). A publish never blocks on a slow session: deliveries beyond
	// the bound are dropped and counted in
	// sensocial_mqtt_fanout_dropped_total.
	FanoutQueue int
	// Metrics registers the broker's counters (families sensocial_mqtt_*).
	// Nil uses a private registry; share the deployment registry to
	// surface the broker on /metrics.
	Metrics *obs.Registry
	// Tracer records an mqtt.route span per routed PUBLISH; nil disables.
	Tracer *obs.Tracer
	// State persists retained messages, subscriptions and the QoS 1
	// in-flight map across broker restarts (see SessionStore). Nil keeps
	// the broker purely in-memory. The broker preloads retained messages
	// from it on construction and restores a client's subscriptions and
	// unacked deliveries when that client id reconnects.
	State *SessionStore
}

// keepaliveGrace is a session's read deadline per second of client
// keepalive: one and a half keepalive periods, per MQTT 3.1.1.
const keepaliveGrace = 1500 * time.Millisecond

// Broker is a Mosquitto-equivalent MQTT broker. It can serve any number of
// listeners concurrently and routes PUBLISH packets among sessions with
// retained-message and wildcard support.
//
// Routing is built for fan-out scale: all subscriptions (network sessions
// and in-process handlers) share one copy-on-write topic trie, so matching
// a publish is lock-free and proportional to the matching population, not
// the session count; the PUBLISH frame is encoded once per message (one
// variant per effective QoS) and shared by every matched session; and each
// session drains its own bounded outbound queue on a dedicated writer, so
// one slow subscriber never stalls the publisher or its peers.
type Broker struct {
	clock       vclock.Clock
	logger      *slog.Logger
	fanoutQueue int
	tracer      *obs.Tracer
	state       *SessionStore // nil on non-durable brokers

	connects      *obs.Counter
	published     *obs.Counter
	delivered     *obs.Counter
	matchNodes    *obs.Counter
	fanoutDropped *obs.Counter
	routeSeconds  *obs.Histogram

	// subs indexes every subscription filter; it is internally
	// synchronized — route never takes b.mu.
	subs *topictrie.FilterTrie[subEntry]
	// retainMu guards retained, the retained messages by topic, and orders
	// a retained publish's store-and-fan-out against a SUBSCRIBE's replay,
	// so a subscriber never receives an older retained message after a
	// newer one on the same topic. Publishes without the retain flag never
	// take it.
	retainMu sync.Mutex
	retained map[string]Message

	// subListener, when set, observes network-session subscription
	// changes (see SetSubListener). Loaded per change, off the publish
	// hot path.
	subListener atomic.Pointer[func(filter string, delta int)]

	mu       sync.Mutex
	sessions map[string]*session
	// handshaking holds accepted connections whose CONNECT has not arrived
	// yet. They have no session to close, so Close must close them itself:
	// otherwise it waits on a read only the dialing side can end.
	handshaking map[net.Conn]struct{}
	closed      bool

	wg   sync.WaitGroup
	done chan struct{}
}

// NewBroker returns a running broker with no listeners attached.
func NewBroker(opts BrokerOptions) *Broker {
	clock := opts.Clock
	if clock == nil {
		clock = vclock.NewReal()
	}
	queue := opts.FanoutQueue
	if queue <= 0 {
		queue = 256
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	b := &Broker{
		clock:       clock,
		logger:      opts.Logger,
		fanoutQueue: queue,
		tracer:      opts.Tracer,
		state:       opts.State,
		subs:        topictrie.NewFilterTrie[subEntry](),
		retained:    make(map[string]Message),
		sessions:    make(map[string]*session),
		handshaking: make(map[net.Conn]struct{}),
		done:        make(chan struct{}),
	}
	if b.state != nil {
		// Recovered retained messages serve SUBSCRIBE replay immediately.
		for _, m := range b.state.RetainedMessages() {
			b.retained[m.Topic] = m
		}
	}
	b.connects = metrics.Counter("sensocial_mqtt_connects_total",
		"CONNECT packets accepted over the broker's lifetime.")
	b.published = metrics.Counter("sensocial_mqtt_published_total",
		"PUBLISH packets received from network clients.")
	b.delivered = metrics.Counter("sensocial_mqtt_delivered_total",
		"PUBLISH packets fanned out to subscribers (network sessions and local handlers).")
	b.matchNodes = metrics.Counter("sensocial_mqtt_match_nodes_total",
		"Subscription-trie nodes visited while matching published topics; per-publish work, independent of non-matching session count.")
	b.fanoutDropped = metrics.Counter("sensocial_mqtt_fanout_dropped_total",
		"Deliveries dropped because a session's bounded outbound queue was full.")
	b.routeSeconds = metrics.Histogram("sensocial_mqtt_route_duration_seconds",
		"Broker-side routing latency per publish: trie match, frame encode and fan-out enqueue (plus synchronous local handlers).",
		obs.LatencyBuckets)
	// Gauge funcs replace on re-registration, so a restarted broker
	// repoints the live gauges at itself.
	metrics.GaugeFunc("sensocial_mqtt_connections",
		"Currently connected clients.",
		func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return float64(len(b.sessions))
		})
	metrics.GaugeFunc("sensocial_mqtt_retained",
		"Retained messages held.",
		func() float64 {
			b.retainMu.Lock()
			defer b.retainMu.Unlock()
			return float64(len(b.retained))
		})
	metrics.GaugeFunc("sensocial_mqtt_match_filters",
		"Subscription filters currently indexed in the topic trie.",
		func() float64 { return float64(b.subs.Len()) })
	return b
}

// Serve accepts connections from l until l fails or the broker closes.
// It returns the listener error that terminated the loop; when the broker
// was closed it returns nil. Call it from a goroutine per listener.
func (b *Broker) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-b.done:
				return nil
			default:
				return fmt.Errorf("mqtt: accept: %w", err)
			}
		}
		// The Add must be gated on closed under b.mu: a bare wg.Add(1) here
		// races Close's wg.Wait — Add is not allowed to start the counter
		// from zero concurrently with Wait, and an accept sneaking in after
		// Close finished would leak an untracked session goroutine.
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		b.wg.Add(1)
		b.handshaking[conn] = struct{}{}
		b.mu.Unlock()
		go func() {
			defer b.wg.Done()
			b.handleConn(conn)
		}()
	}
}

// Close disconnects every client and waits for session goroutines to exit.
// Listeners passed to Serve must be closed by the caller (Serve observes the
// broker closing and returns nil).
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	close(b.done)
	sessions := make([]*session, 0, len(b.sessions))
	for _, s := range b.sessions {
		sessions = append(sessions, s)
	}
	for conn := range b.handshaking {
		_ = conn.Close()
	}
	b.mu.Unlock()
	for _, s := range sessions {
		s.close()
	}
	b.wg.Wait()
	return nil
}

// SubscribeLocal registers an in-process handler for a topic filter.
// Handlers run synchronously on the publishing goroutine and must be quick.
func (b *Broker) SubscribeLocal(filter string, h Handler) error {
	if err := ValidateTopicFilter(filter); err != nil {
		return err
	}
	if h == nil {
		return fmt.Errorf("mqtt: subscribe local %q: nil handler", filter)
	}
	b.subs.Subscribe(filter, subEntry{local: h})
	return nil
}

// SetSubListener installs fn to observe network-session subscription
// changes: it is called with delta +1 when a filter gains its first
// entry for a session and -1 when a session's entry is removed
// (unsubscribe or disconnect), once per (session, filter) pair. Local
// handlers registered with SubscribeLocal are not reported. The cluster
// bridge uses this to maintain the subscription summary it advertises
// to peer shards. Calls arrive on session goroutines, possibly
// concurrently; fn must synchronize itself. Passing nil uninstalls.
func (b *Broker) SetSubListener(fn func(filter string, delta int)) {
	if fn == nil {
		b.subListener.Store(nil)
		return
	}
	b.subListener.Store(&fn)
}

// notifySub reports one session-subscription change to the listener.
func (b *Broker) notifySub(filter string, delta int) {
	if fn := b.subListener.Load(); fn != nil {
		(*fn)(filter, delta)
	}
}

// SessionFilters snapshots the network sessions' subscription filters
// with the number of sessions holding each. The snapshot is taken
// per-session, so it can lag changes that race it; callers (the bridge,
// at attach time) reconcile through the sub listener afterwards.
func (b *Broker) SessionFilters() map[string]int {
	b.mu.Lock()
	sessions := make([]*session, 0, len(b.sessions))
	for _, s := range b.sessions {
		sessions = append(sessions, s)
	}
	b.mu.Unlock()
	out := make(map[string]int)
	for _, s := range sessions {
		s.mu.Lock()
		for f := range s.subs {
			out[f]++
		}
		s.mu.Unlock()
	}
	return out
}

// PublishLocal injects a message as if a connected client had published it.
// The server-side TriggerManager uses this to avoid a loopback connection
// when it is colocated with the broker.
func (b *Broker) PublishLocal(m Message) error {
	if err := ValidateTopicName(m.Topic); err != nil {
		return err
	}
	if m.QoS > 1 {
		return fmt.Errorf("mqtt: publish local: QoS %d unsupported", m.QoS)
	}
	b.route(m)
	return nil
}

// session is one connected client.
type session struct {
	broker   *Broker
	conn     net.Conn
	clientID string

	// out is the bounded delivery queue drained by writeLoop; done is
	// closed exactly once by close(). The queue itself is never closed —
	// stragglers enqueued after shutdown are dropped by refcount.
	out  chan *frame
	done chan struct{}

	// nextID and scratch belong to writeLoop alone: packet identifiers
	// are assigned where the frame is written, so a QoS 1 delivery takes
	// no session lock beyond writeMu.
	nextID  uint16
	scratch []byte

	writeMu sync.Mutex

	mu      sync.Mutex
	subs    map[string]byte // filter -> granted max qos
	closed  bool
	timeout time.Duration // read deadline window; 0 disables
}

func (b *Broker) handleConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()

	in := &packetReader{r: conn}
	pkt, err := in.read()
	b.mu.Lock()
	delete(b.handshaking, conn)
	b.mu.Unlock()
	if err != nil {
		b.logf("connect read failed", "err", err)
		return
	}
	if pkt.ptype != packetConnect {
		b.logf("first packet not CONNECT", "type", pkt.ptype)
		return
	}
	c, err := decodeConnect(pkt.body)
	if err != nil || c.clientID == "" {
		_ = writePacket(conn, packetConnack, 0, []byte{0, connRefusedBadClient})
		return
	}

	s := &session{
		broker:   b,
		conn:     conn,
		clientID: c.clientID,
		out:      make(chan *frame, b.fanoutQueue),
		done:     make(chan struct{}),
		subs:     make(map[string]byte),
	}
	if c.keepAliveSec > 0 {
		s.timeout = time.Duration(c.keepAliveSec) * keepaliveGrace
	}
	if b.state != nil {
		// Continue packet-id numbering past recovered in-flight ids. Must
		// happen before writeLoop starts: nextID belongs to that goroutine.
		s.nextID = b.state.MaxPID(c.clientID)
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	// A reconnect with the same client id evicts the old session (MQTT
	// clean-session takeover semantics).
	old := b.sessions[c.clientID]
	b.sessions[c.clientID] = s
	b.mu.Unlock()
	b.connects.Inc()
	if old != nil {
		old.close()
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		s.writeLoop()
	}()

	if err := writePacket(conn, packetConnack, 0, []byte{0, connAccepted}); err != nil {
		b.removeSession(s)
		return
	}
	if b.state != nil {
		b.restoreSession(s)
	}
	b.logf("client connected", "client", c.clientID)
	s.readLoop(in)
	b.removeSession(s)
	b.logf("client disconnected", "client", c.clientID)
}

// restoreSession reinstalls a reconnecting client's persistent
// subscriptions into the live trie and redelivers its unacked QoS 1
// publishes with the DUP flag set, in packet-id order. Runs on the
// session's handleConn goroutine after CONNACK, before the read loop, so
// redeliveries precede any new traffic to this client.
func (b *Broker) restoreSession(s *session) {
	for f, q := range b.state.Subs(s.clientID) {
		s.mu.Lock()
		_, had := s.subs[f]
		s.subs[f] = q
		s.mu.Unlock()
		if !had {
			b.subs.Subscribe(f, subEntry{sess: s, qos: q})
			b.notifySub(f, +1)
		}
	}
	for _, inf := range b.state.InflightFrames(s.clientID) {
		inf.Frame[0] |= 0x08 // DUP: this id may have been delivered already
		s.writeMu.Lock()
		_, err := s.conn.Write(inf.Frame)
		s.writeMu.Unlock()
		if err != nil {
			return
		}
		b.delivered.Inc()
	}
}

func (b *Broker) removeSession(s *session) {
	b.mu.Lock()
	if b.sessions[s.clientID] == s {
		delete(b.sessions, s.clientID)
	}
	b.mu.Unlock()
	s.close()
	// Trie cleanup runs on the session's own handleConn goroutine after
	// readLoop returned, so no further subscribes from this session can
	// race it back in.
	s.mu.Lock()
	filters := make([]string, 0, len(s.subs))
	for f := range s.subs {
		filters = append(filters, f)
	}
	s.mu.Unlock()
	for _, f := range filters {
		b.subs.Unsubscribe(f, func(e subEntry) bool { return e.sess == s })
		b.notifySub(f, -1)
	}
}

// readLoop handles the session's frames until the connection fails. in is
// the reader the CONNECT came through: frames pipelined behind it may
// already sit in its buffer.
func (s *session) readLoop(in *packetReader) {
	for {
		if s.timeout > 0 {
			//lint:ignore wallclock net.Conn read deadlines are wall-clock by the net contract; a virtual Now here would disarm (or instantly fire) the socket timeout
			_ = s.conn.SetReadDeadline(time.Now().Add(s.timeout))
		}
		pkt, err := in.read()
		if err != nil {
			return
		}
		switch pkt.ptype {
		case packetPublish:
			p, err := decodePublish(pkt.flags, pkt.body)
			if err != nil {
				s.broker.logf("bad publish", "client", s.clientID, "err", err)
				return
			}
			if err := ValidateTopicName(p.topic); err != nil {
				s.broker.logf("bad topic", "client", s.clientID, "err", err)
				return
			}
			if p.qos == 1 {
				if err := s.write(packetPuback, 0, encodeUint16Body(p.packetID)); err != nil {
					return
				}
			}
			s.broker.published.Inc()
			s.broker.route(Message{Topic: p.topic, Payload: p.payload, QoS: p.qos, Retain: p.retain})
		case packetSubscribe:
			p, err := decodeSubscribe(pkt.body, true)
			if err != nil {
				return
			}
			codes := make([]byte, len(p.filters))
			for i, f := range p.filters {
				if err := ValidateTopicFilter(f); err != nil {
					codes[i] = 0x80 // failure
					continue
				}
				q := p.qoss[i]
				if q > 1 {
					q = 1
				}
				s.mu.Lock()
				_, resub := s.subs[f]
				s.subs[f] = q
				s.mu.Unlock()
				if resub {
					// Re-subscribing replaces the granted QoS, so the old
					// trie entry must go before the new one lands.
					s.broker.subs.Unsubscribe(f, func(e subEntry) bool { return e.sess == s })
				}
				s.broker.subs.Subscribe(f, subEntry{sess: s, qos: q})
				if !resub {
					s.broker.notifySub(f, +1)
				}
				if s.broker.state != nil {
					s.broker.state.AddSub(s.clientID, f, q)
				}
				codes[i] = q
			}
			body := append(encodeUint16Body(p.packetID), codes...)
			if err := s.write(packetSuback, 0, body); err != nil {
				return
			}
			// Replay retained messages matching the new filters.
			s.broker.retainMu.Lock()
			for i, f := range p.filters {
				if codes[i] == 0x80 {
					continue
				}
				for _, m := range s.broker.retainedMatching(f) {
					s.deliver(m, codes[i])
				}
			}
			s.broker.retainMu.Unlock()
		case packetUnsubscribe:
			p, err := decodeSubscribe(pkt.body, false)
			if err != nil {
				return
			}
			for _, f := range p.filters {
				s.mu.Lock()
				_, had := s.subs[f]
				delete(s.subs, f)
				s.mu.Unlock()
				if had {
					s.broker.subs.Unsubscribe(f, func(e subEntry) bool { return e.sess == s })
					s.broker.notifySub(f, -1)
				}
				if s.broker.state != nil {
					s.broker.state.RemoveSub(s.clientID, f)
				}
			}
			if err := s.write(packetUnsuback, 0, encodeUint16Body(p.packetID)); err != nil {
				return
			}
		case packetPingreq:
			if err := s.write(packetPingresp, 0, nil); err != nil {
				return
			}
		case packetPuback:
			// QoS 1 delivery acknowledged. Live sessions do not retransmit;
			// a durable broker clears the in-flight record so a restart
			// will not redeliver this packet.
			if s.broker.state != nil && len(pkt.body) >= 2 {
				s.broker.state.Ack(s.clientID, binary.BigEndian.Uint16(pkt.body))
			}
		case packetDisconnect:
			return
		default:
			s.broker.logf("unexpected packet", "client", s.clientID, "type", pkt.ptype)
			return
		}
	}
}

// route fans a published message out to matching sessions and updates the
// retained store. It holds no broker-wide lock: matching walks the
// copy-on-write trie, the PUBLISH body is encoded at most once per
// effective QoS, and deliveries are handed to each session's bounded
// writer queue so a slow subscriber never blocks the publisher.
//
//sensolint:hotpath
func (b *Broker) route(m Message) {
	start := b.clock.Now()
	sp := obs.Span{}
	if len(m.Topic) == 0 || m.Topic[0] != '$' {
		// $-prefixed control topics (the cluster bridge's summaries and
		// wrapped forwards) are not part of the item path and arrive on peer
		// goroutine schedules, so tracing them would break the byte-identical
		// same-seed /trace guarantee.
		sp = b.tracer.Start("mqtt.route", 0)
		sp.SetAttr("topic", m.Topic)
	}
	if m.Retain {
		// Held until m is in every matching session's queue: a SUBSCRIBE
		// replay then either reads m, or has enqueued the message m replaces
		// before m's fan-out (see retainMu).
		b.retainMu.Lock()
		b.retain(m)
	}

	c := scratchPool.Get().(*routeScratch)
	var visited int
	c.entries, visited = b.subs.Match(m.Topic, c.entries[:0])
	b.matchNodes.Add(uint64(visited))
	c.split()

	if len(c.targets) > 0 {
		var byQoS [2]*frame // encode once per effective QoS actually needed
		for _, t := range c.targets {
			qos := m.QoS
			if t.qos < qos {
				qos = t.qos
			}
			f := byQoS[qos]
			if f == nil {
				f = newPublishFrame(m, qos)
				byQoS[qos] = f
			}
			t.s.enqueue(f)
		}
		for _, f := range byQoS {
			if f != nil {
				f.release()
			}
		}
	}
	if m.Retain {
		b.retainMu.Unlock()
	}
	fanout := len(c.targets) + len(c.locals)
	b.delivered.Add(uint64(fanout))
	if b.tracer != nil {
		sp.SetAttr("fanout", strconv.Itoa(fanout))
	}
	for _, h := range c.locals {
		h(m)
	}
	scratchPool.Put(c)
	b.routeSeconds.Observe(b.clock.Now().Sub(start).Seconds())
	sp.End()
}

// retain stores a retained publish, or clears its topic when the payload
// is empty, in memory and in the session journal. The caller holds
// retainMu.
func (b *Broker) retain(m Message) {
	if len(m.Payload) == 0 {
		delete(b.retained, m.Topic)
		if b.state != nil {
			b.state.Unretain(m.Topic)
		}
		return
	}
	b.retained[m.Topic] = m
	if b.state != nil {
		b.state.Retain(m)
	}
}

// retainedMatching returns the retained messages matching filter, sorted
// by topic so replay order is deterministic. A literal filter is one
// lookup; a wildcard filter scans the store, which in this system holds
// at most a shard's 64 cluster summary buckets (DESIGN.md §9). The caller
// holds retainMu.
func (b *Broker) retainedMatching(filter string) []Message {
	if !strings.ContainsAny(filter, "+#") {
		if m, ok := b.retained[filter]; ok {
			return []Message{m}
		}
		return nil
	}
	var out []Message
	for topic, m := range b.retained {
		if topictrie.Matches(filter, topic) {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
}

// deliver encodes m for this session alone (retained replay on SUBSCRIBE)
// and hands it to the session's writer queue, keeping it ordered with any
// concurrent route fan-out.
//
//sensolint:hotpath
func (s *session) deliver(m Message, subQoS byte) {
	qos := m.QoS
	if subQoS < qos {
		qos = subQoS
	}
	f := newPublishFrame(m, qos)
	s.enqueue(f)
	f.release()
}

// enqueue hands a shared frame to the session's writer, taking a
// reference. A full queue drops the delivery (counted) instead of
// blocking the publisher.
//
//sensolint:hotpath
func (s *session) enqueue(f *frame) {
	f.refs.Add(1)
	select {
	case s.out <- f:
	default:
		f.release()
		s.broker.fanoutDropped.Inc()
	}
}

// writeLoop is the session's only PUBLISH writer. It owns nextID and the
// scratch buffer: QoS 0 frames go to the wire as-is, QoS 1 frames are
// copied to scratch and get this session's packet identifier patched in,
// so the shared encode-once buffer stays immutable.
func (s *session) writeLoop() {
	for {
		select {
		case f := <-s.out:
			s.writeFrame(f)
			f.release()
		case <-s.done:
			for {
				select {
				case f := <-s.out:
					f.release()
				default:
					return
				}
			}
		}
	}
}

// writeFrame puts one delivery on the wire; failures surface as the
// session dying, exactly like the old synchronous path.
//
//sensolint:hotpath
func (s *session) writeFrame(f *frame) {
	buf := f.buf
	if f.qos == 1 {
		s.scratch = append(s.scratch[:0], f.buf...)
		s.nextID++
		if s.nextID == 0 {
			s.nextID = 1
		}
		binary.BigEndian.PutUint16(s.scratch[f.idOff:], s.nextID)
		buf = s.scratch
		if s.broker.state != nil {
			// Record before the wire write: a crash between the two
			// redelivers a frame the client never saw (at-least-once),
			// never the reverse.
			s.broker.state.RecordInflight(s.clientID, s.nextID, buf)
		}
	}
	s.writeMu.Lock()
	_, _ = s.conn.Write(buf)
	s.writeMu.Unlock()
}

func (s *session) write(ptype, flags byte, body []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return writePacket(s.conn, ptype, flags, body)
}

func (s *session) close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.done)
		_ = s.conn.Close()
	}
}

func (b *Broker) logf(msg string, args ...any) {
	if b.logger != nil {
		b.logger.Debug(msg, args...)
	}
}

// ErrBrokerClosed is returned by operations on a closed broker.
var ErrBrokerClosed = errors.New("mqtt: broker closed")
