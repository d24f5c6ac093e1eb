package cluster

import (
	"fmt"
	"math/bits"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/mqtt"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Control-plane topics. The '$' prefix keeps them out of the summaries
// the shards exchange (a bridge's own subscriptions are never
// advertised), and application filters like streamdata/# can never match
// them because '$' topics only match filters that name them explicitly.
const (
	// summaryTopicPrefix + shardID + "/" + bucket carries one bucket of
	// that shard's subscription summary as a retained message.
	summaryTopicPrefix = "$cluster/summary/"
	// bridgeTopicPrefix + originShard + "/" + topic wraps a forwarded
	// publish; the receiving bridge unwraps and re-injects it with the
	// origin recorded on the Message.
	bridgeTopicPrefix = "$cluster/bridge/"

	// linkQueue bounds each peer link's outbound forward queue; overflow
	// is dropped and counted, like session fan-out.
	linkQueue = 256
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
}

// Bridge links one shard's broker to its peers. It advertises the local
// broker's session-subscription summary as retained control messages, one
// per summary bucket, republishing a bucket whenever it changes, merges
// every peer's summary into a PeerIndex, and forwards each locally published
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

	// sumMu guards local; a change to the advertised set marks its bucket
	// dirty in local and wakes the summary publisher through dirty.
	sumMu sync.Mutex
	local *localSummary
	dirty chan struct{}

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
// the peer's advertised filters, by bucket, as of the last summary
// message received for each bucket. Only the link's client dispatcher
// touches buckets: the redialer joins a dead session's dispatcher before
// it opens the next session.
type peerLink struct {
	b             *Bridge
	id            string
	ord           int
	summaryPrefix string // summaryTopicPrefix + id + "/"
	re            *mqtt.Redialer
	out           chan bridgeMsg

	buckets [summaryBuckets]map[string]struct{}
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
	b := &Bridge{
		shardID:    opts.ShardID,
		broker:     opts.Broker,
		metrics:    metrics,
		wrapPrefix: bridgeTopicPrefix + opts.ShardID + "/",
		index:      NewPeerIndex(len(opts.Peers)),
		local:      newLocalSummary(),
		dirty:      make(chan struct{}, 1),
		done:       make(chan struct{}),
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
			b:             b,
			id:            p.ID,
			ord:           i,
			summaryPrefix: summaryTopicPrefix + p.ID + "/",
			out:           make(chan bridgeMsg, linkQueue),
		})
	}

	// Local control handlers: the catch-all forward hook and the
	// unwrapper for inbound forwards.
	if err := b.broker.SubscribeLocal("#", b.onLocalPublish); err != nil {
		return nil, err
	}
	if err := b.broker.SubscribeLocal(bridgeTopicPrefix+"+/#", b.onBridged); err != nil {
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
	b.sumMu.Unlock()
	b.markDirty()
	b.wg.Add(1)
	go b.publishSummaries()

	for i, p := range opts.Peers {
		link := b.links[i]
		re, err := mqtt.NewRedialer(p.Dial, mqtt.RedialerOptions{
			Client: mqtt.ClientOptions{
				ClientID: "$bridge/" + b.shardID,
				Clock:    clock,
			},
		})
		if err != nil {
			_ = b.Close()
			return nil, err
		}
		link.re = re
		// The subscription is durable in the redialer: it is replayed on
		// every reconnect, and the peer broker answers each subscribe with
		// its retained summary buckets, so a healed link converges with no
		// request.
		if err := re.Subscribe(link.summaryPrefix+"+", 0, link.onSummary); err != nil && err != mqtt.ErrNotConnected {
			_ = b.Close()
			return nil, err
		}
		b.wg.Add(1)
		go link.writeLoop()
	}
	return b, nil
}

// Index exposes the merged peer-summary index (tests).
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
// the message crosses. Its `#` filter never matches the bridge's own
// $cluster/ control topics ([MQTT-4.7.2-1]), so they are never forwarded.
//
//sensolint:hotpath
func (b *Bridge) onLocalPublish(m mqtt.Message) {
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

// onSubChange feeds the local summary from the broker's subscription
// listener. Only a 0↔1 transition changes the advertised set; it wakes the
// publisher rather than encoding on the subscribing session's goroutine.
func (b *Bridge) onSubChange(filter string, delta int) {
	if !advertised(filter) || b.closed.Load() {
		return
	}
	b.sumMu.Lock()
	var changed bool
	if delta > 0 {
		changed = b.local.add(filter)
	} else {
		changed = b.local.remove(filter)
	}
	b.sumMu.Unlock()
	if changed {
		b.markDirty()
	}
}

// markDirty wakes the summary publisher; a wake already pending absorbs
// this one.
func (b *Bridge) markDirty() {
	select {
	case b.dirty <- struct{}{}:
	default:
	}
}

// publishSummaries republishes the retained summary bucket of every change
// to the advertised set. One goroutine publishes, so each bucket's messages
// leave the broker in the order they were read, and a burst of subscribes
// costs one encoding per dirty bucket per wake rather than one per
// subscribe. The dirty buckets are taken after the wake is consumed, so a
// change made after the take leaves a wake behind and is published next.
func (b *Bridge) publishSummaries() {
	defer b.wg.Done()
	var msgs []mqtt.Message
	for {
		select {
		case <-b.dirty:
		case <-b.done:
			return
		}
		msgs = msgs[:0]
		b.sumMu.Lock()
		for d := b.local.takeDirty(); d != 0; d &= d - 1 {
			k := bits.TrailingZeros64(d)
			msgs = append(msgs, mqtt.Message{
				Topic:   summaryTopicPrefix + b.shardID + "/" + strconv.Itoa(k),
				Payload: b.local.appendBucket(nil, k),
				Retain:  true,
			})
		}
		b.sumMu.Unlock()
		for _, m := range msgs {
			_ = b.broker.PublishLocal(m)
			b.metrics.SummaryBytes.Add(uint64(len(m.Payload)))
		}
		b.metrics.SummaryBuckets.Add(uint64(len(msgs)))
	}
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

// onSummary replaces the link's view of one bucket of the peer's summary
// with the message's set, adding and removing only the filters that
// differ. A malformed message or bucket number (only a foreign publisher
// on the control topic can produce one) is ignored, leaving the view as it
// was until the next message, and a filter filed under the wrong bucket is
// dropped, so no filter is ever held in two buckets of one peer.
func (p *peerLink) onSummary(m mqtt.Message) {
	k, err := strconv.Atoi(strings.TrimPrefix(m.Topic, p.summaryPrefix))
	if err != nil || k < 0 || k >= summaryBuckets {
		return
	}
	filters, err := decodeSummary(m.Payload)
	if err != nil {
		return
	}
	next := make(map[string]struct{}, len(filters))
	for _, f := range filters {
		if bucketOf(f) == k {
			next[f] = struct{}{}
		}
	}
	for f := range p.buckets[k] {
		if _, keep := next[f]; !keep {
			p.b.index.Remove(p.ord, f)
		}
	}
	for f := range next {
		if _, have := p.buckets[k][f]; !have {
			p.b.index.Add(p.ord, f)
		}
	}
	p.buckets[k] = next
}
