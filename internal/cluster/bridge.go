package cluster

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mqtt"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Control-plane topics. The '$' prefix keeps them out of the summaries
// the shards exchange (a bridge's own subscriptions are never
// advertised), and application filters like streamdata/# can never match
// them because '$' topics only match filters that name them explicitly.
const (
	// summaryTopicPrefix + shardID carries that shard's subscription
	// summary: non-retained deltas plus a retained snapshot.
	summaryTopicPrefix = "$cluster/summary/"
	// syncTopicPrefix + shardID is where peers ask that shard for a
	// fresh snapshot (payload: requesting shard's ID).
	syncTopicPrefix = "$cluster/sync/"
	// bridgeTopicPrefix + originShard + "/" + topic wraps a forwarded
	// publish; the receiving bridge unwraps and re-injects it with the
	// origin recorded on the Message.
	bridgeTopicPrefix = "$cluster/bridge/"
)

// Peer names one remote shard and how to reach its broker.
type Peer struct {
	// ID is the remote shard's ID (its position in the ring).
	ID string
	// Dial opens a fresh transport connection to the remote broker.
	Dial func() (net.Conn, error)
}

// BridgeOptions configures a Bridge.
type BridgeOptions struct {
	// ShardID names the local shard; it tags forwarded publishes and the
	// local summary topic. Required.
	ShardID string
	// Broker is the local shard's broker. Required.
	Broker *mqtt.Broker
	// Peers are the other shards of the ring (full mesh, single hop).
	Peers []Peer
	// Clock drives reconnect backoff and ack timeouts (default real).
	Clock vclock.Clock
	// Metrics records the sensocial_cluster_* families; nil uses a
	// private registry via NewMetrics.
	Metrics *Metrics
	// QueueSize bounds each peer link's outbound forward queue (default
	// 256; overflow is dropped and counted, like session fan-out).
	QueueSize int
	// SnapshotEvery republishes the retained summary snapshot after this
	// many deltas (default 64), bounding how far a freshly replayed
	// retained snapshot can lag the live version.
	SnapshotEvery int
	// InitialBackoff / MaxBackoff tune the peer-link redialers.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
}

// Bridge links one shard's broker to its peers. It advertises the local
// broker's session-subscription summary on a retained control topic
// (deltas on change, snapshots on cadence and on demand), merges every
// peer's summary into a PeerIndex, and forwards each locally published
// message across exactly the links whose peer has a matching subscriber.
// Forwards travel wrapped as $cluster/bridge/<origin>/<topic>; the
// receiving bridge unwraps and re-injects them with the origin tag set,
// and never re-forwards a tagged message, so the single-hop mesh cannot
// loop. See DESIGN.md §12.
type Bridge struct {
	shardID    string
	broker     *mqtt.Broker
	metrics    *Metrics
	wrapPrefix string // bridgeTopicPrefix + shardID + "/"

	index   *PeerIndex
	links   []*peerLink
	scratch sync.Pool

	// sumMu orders local summary mutations with their control-topic
	// publishes, so deltas leave the broker in version order.
	sumMu           sync.Mutex
	local           *localSummary
	snapshotEvery   int
	deltasSinceSnap int

	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// bridgeMsg is one queued forward. The payload is copied at enqueue: the
// queue outlives the route invocation that produced the message.
type bridgeMsg struct {
	topic   string
	payload []byte
	qos     byte
}

// peerLink is one persistent connection to a peer shard's broker plus
// the peer's decoded summary state. Summary messages for a peer are
// applied by that link's single client dispatch goroutine; mu only
// covers the fields the redialer state callback shares with it.
type peerLink struct {
	b   *Bridge
	id  string
	ord int
	re  *mqtt.Redialer
	out chan bridgeMsg

	mu          sync.Mutex
	version     uint64
	synced      bool
	syncPending bool
	filters     map[string]struct{}
}

// NewBridge attaches a bridge to the local broker and starts its peer
// links. The local summary seeds from the broker's current session
// filters and tracks changes through the broker's subscription listener,
// so bridges may attach to brokers that already have live sessions.
func NewBridge(opts BridgeOptions) (*Bridge, error) {
	if opts.ShardID == "" {
		return nil, fmt.Errorf("cluster: bridge requires a shard ID")
	}
	if opts.Broker == nil {
		return nil, fmt.Errorf("cluster: bridge requires a broker")
	}
	clock := opts.Clock
	if clock == nil {
		clock = vclock.NewReal()
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = NewMetrics(obs.NewRegistry())
	}
	queue := opts.QueueSize
	if queue <= 0 {
		queue = 256
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = 64
	}
	b := &Bridge{
		shardID:       opts.ShardID,
		broker:        opts.Broker,
		metrics:       metrics,
		wrapPrefix:    bridgeTopicPrefix + opts.ShardID + "/",
		index:         NewPeerIndex(len(opts.Peers)),
		local:         newLocalSummary(),
		snapshotEvery: snapEvery,
		done:          make(chan struct{}),
	}
	b.scratch.New = func() any { return &MatchScratch{} }

	seen := map[string]struct{}{opts.ShardID: {}}
	for i, p := range opts.Peers {
		if p.ID == "" || p.Dial == nil {
			return nil, fmt.Errorf("cluster: peer %d needs an ID and a dial func", i)
		}
		if _, dup := seen[p.ID]; dup {
			return nil, fmt.Errorf("cluster: peer ID %q duplicates a ring member", p.ID)
		}
		seen[p.ID] = struct{}{}
		b.links = append(b.links, &peerLink{
			b:       b,
			id:      p.ID,
			ord:     i,
			out:     make(chan bridgeMsg, queue),
			filters: make(map[string]struct{}),
		})
	}

	// Local control handlers: the catch-all forward hook, the unwrapper
	// for inbound forwards, and the snapshot-on-demand responder.
	if err := b.broker.SubscribeLocal("#", b.onLocalPublish); err != nil {
		return nil, err
	}
	if err := b.broker.SubscribeLocal(bridgeTopicPrefix+"+/#", b.onBridged); err != nil {
		return nil, err
	}
	if err := b.broker.SubscribeLocal(syncTopicPrefix+b.shardID, b.onSyncRequest); err != nil {
		return nil, err
	}

	// Listener before seed: a subscribe racing the seed can at worst be
	// counted twice, which over-advertises (a spurious forward) rather
	// than under-advertises (a lost message).
	b.broker.SetSubListener(b.onSubChange)
	b.sumMu.Lock()
	for f, n := range b.broker.SessionFilters() {
		if !advertised(f) {
			continue
		}
		for i := 0; i < n; i++ {
			b.local.add(f)
		}
	}
	b.publishSnapshotLocked()
	b.sumMu.Unlock()

	for i, p := range opts.Peers {
		link := b.links[i]
		// The redialer may connect and call back before NewRedialer's
		// result is stored; holding link.mu makes requestSync wait for it.
		link.mu.Lock()
		re, err := mqtt.NewRedialer(p.Dial, mqtt.RedialerOptions{
			Client: mqtt.ClientOptions{
				ClientID: "$bridge/" + b.shardID,
				Clock:    clock,
			},
			InitialBackoff: opts.InitialBackoff,
			MaxBackoff:     opts.MaxBackoff,
			OnStateChange: func(connected bool) {
				if connected {
					link.requestSync()
				}
			},
		})
		link.re = re
		link.mu.Unlock()
		if err != nil {
			_ = b.Close()
			return nil, err
		}
		// The subscription is durable in the redialer: it is replayed on
		// every reconnect before the link reports connected, and the
		// peer broker replays its retained snapshot on each subscribe.
		if err := re.Subscribe(summaryTopicPrefix+link.id, 0, link.onSummary); err != nil && err != mqtt.ErrNotConnected {
			_ = b.Close()
			return nil, err
		}
		b.wg.Add(1)
		go link.writeLoop()
	}
	return b, nil
}

// ShardID returns the local shard's ID.
func (b *Bridge) ShardID() string { return b.shardID }

// Index exposes the merged peer-summary index (benchmarks and tests).
func (b *Bridge) Index() *PeerIndex { return b.index }

// Close detaches the subscription listener, stops the peer links and
// joins the writer goroutines. The local control handlers stay on the
// broker but become no-ops. Idempotent.
func (b *Bridge) Close() error {
	if !b.closed.CompareAndSwap(false, true) {
		return nil
	}
	b.broker.SetSubListener(nil)
	close(b.done)
	for _, l := range b.links {
		if l.re != nil {
			_ = l.re.Close()
		}
	}
	b.wg.Wait()
	return nil
}

// onLocalPublish is the broker-side forward hook, run synchronously on
// every routed publish: one PeerIndex walk decides which links (if any)
// the message crosses.
//
//sensolint:hotpath
func (b *Bridge) onLocalPublish(m mqtt.Message) {
	if strings.HasPrefix(m.Topic, "$cluster/") {
		return
	}
	if m.Origin != "" {
		// Already crossed one bridge hop; the origin shard forwarded it
		// to every interested peer directly.
		b.metrics.LoopSuppressed.Inc()
		return
	}
	if b.closed.Load() || len(b.links) == 0 {
		return
	}
	sc := b.scratch.Get().(*MatchScratch)
	peers := b.index.Match(m.Topic, sc)
	for _, ord := range peers {
		b.links[ord].enqueue(m)
	}
	suppressed := len(b.links) - len(peers)
	b.scratch.Put(sc)
	if suppressed > 0 {
		b.metrics.Suppressed.Add(uint64(suppressed))
	}
}

// onBridged unwraps an inbound forward and re-injects it locally with
// the origin tag set, so it fans out to this shard's subscribers but is
// never forwarded again.
func (b *Bridge) onBridged(m mqtt.Message) {
	if b.closed.Load() {
		return
	}
	rest := strings.TrimPrefix(m.Topic, bridgeTopicPrefix)
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 || slash == len(rest)-1 {
		return
	}
	origin := rest[:slash]
	if origin == b.shardID {
		return
	}
	_ = b.broker.PublishLocal(mqtt.Message{
		Topic:   rest[slash+1:],
		Payload: m.Payload,
		QoS:     m.QoS,
		Origin:  origin,
	})
}

// onSyncRequest answers a peer's snapshot request by republishing the
// retained summary snapshot.
func (b *Bridge) onSyncRequest(mqtt.Message) {
	if b.closed.Load() {
		return
	}
	b.sumMu.Lock()
	b.publishSnapshotLocked()
	b.sumMu.Unlock()
}

// onSubChange feeds the local summary from the broker's subscription
// listener and publishes a delta on every 0↔1 transition.
func (b *Bridge) onSubChange(filter string, delta int) {
	if !advertised(filter) || b.closed.Load() {
		return
	}
	b.sumMu.Lock()
	defer b.sumMu.Unlock()
	var changed bool
	op := opAdd
	if delta > 0 {
		changed = b.local.add(filter)
	} else {
		changed = b.local.remove(filter)
		op = opRemove
	}
	if !changed {
		return
	}
	payload := appendDelta(make([]byte, 0, 16+len(filter)), b.local.version, op, filter)
	_ = b.broker.PublishLocal(mqtt.Message{Topic: summaryTopicPrefix + b.shardID, Payload: payload})
	b.metrics.SummaryDeltas.Inc()
	b.deltasSinceSnap++
	if b.deltasSinceSnap >= b.snapshotEvery {
		b.publishSnapshotLocked()
	}
}

// publishSnapshotLocked publishes the retained summary snapshot; the
// caller holds sumMu.
func (b *Bridge) publishSnapshotLocked() {
	payload := appendSnapshot(nil, b.local.version, b.local.filters())
	_ = b.broker.PublishLocal(mqtt.Message{Topic: summaryTopicPrefix + b.shardID, Payload: payload, Retain: true})
	b.metrics.SummarySnapshots.Inc()
	b.deltasSinceSnap = 0
}

// enqueue hands a forward to the link's writer, copying the payload. A
// full queue drops (and counts) rather than blocking the route path.
func (p *peerLink) enqueue(m mqtt.Message) {
	msg := bridgeMsg{
		topic:   m.Topic,
		payload: append([]byte(nil), m.Payload...),
		qos:     m.QoS,
	}
	select {
	case p.out <- msg:
	default:
		p.b.metrics.Dropped.Inc()
	}
}

// writeLoop drains the link's forward queue onto the peer broker.
func (p *peerLink) writeLoop() {
	defer p.b.wg.Done()
	for {
		select {
		case m := <-p.out:
			if err := p.re.Publish(p.b.wrapPrefix+m.topic, m.payload, m.qos, false); err != nil {
				p.b.metrics.Dropped.Inc()
			} else {
				p.b.metrics.Forwarded.Inc()
			}
		case <-p.b.done:
			return
		}
	}
}

// requestSync asks the peer for a fresh snapshot; called on reconnect
// and on version gaps. The request itself is best-effort — a lost
// request is retried by the next gap, and the retained snapshot replay
// on reconnect covers the common case anyway.
func (p *peerLink) requestSync() {
	p.mu.Lock()
	if p.syncPending {
		p.mu.Unlock()
		return
	}
	p.syncPending = true
	p.synced = false
	re := p.re
	p.mu.Unlock()
	p.b.metrics.SummaryResyncs.Inc()
	_ = re.Publish(syncTopicPrefix+p.id, []byte(p.b.shardID), 0, false)
}

// onSummary applies one summary control message from the peer. Calls
// arrive on the link's single client dispatch goroutine, so snapshot
// and delta application for one peer never interleave.
func (p *peerLink) onSummary(m mqtt.Message) {
	msg, err := decodeSummary(m.Payload)
	if err != nil {
		// A malformed summary cannot be applied; the next snapshot
		// (cadence or requested) restores convergence.
		p.requestSync()
		return
	}
	switch msg.kind {
	case kindSnapshot:
		next := make(map[string]struct{}, len(msg.filters))
		for _, f := range msg.filters {
			next[f] = struct{}{}
		}
		for f := range p.filters {
			if _, keep := next[f]; !keep {
				p.b.index.Remove(p.ord, f)
				delete(p.filters, f)
			}
		}
		for f := range next {
			if _, have := p.filters[f]; !have {
				p.b.index.Add(p.ord, f)
				p.filters[f] = struct{}{}
			}
		}
		p.mu.Lock()
		p.version = msg.version
		p.synced = true
		p.syncPending = false
		p.mu.Unlock()
	case kindDelta:
		p.mu.Lock()
		synced, version := p.synced, p.version
		p.mu.Unlock()
		if !synced {
			p.requestSync()
			return
		}
		if msg.version <= version {
			return // duplicate or stale
		}
		if msg.version > version+1 {
			p.requestSync() // gap: deltas were lost
			return
		}
		switch msg.op {
		case opAdd:
			if _, have := p.filters[msg.filter]; !have {
				p.b.index.Add(p.ord, msg.filter)
				p.filters[msg.filter] = struct{}{}
			}
		case opRemove:
			if _, have := p.filters[msg.filter]; have {
				p.b.index.Remove(p.ord, msg.filter)
				delete(p.filters, msg.filter)
			}
		}
		p.mu.Lock()
		p.version = msg.version
		p.mu.Unlock()
	}
}
