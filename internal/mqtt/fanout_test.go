package mqtt

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/mqtt/topictrie"
	"repro/internal/obs"
	"repro/internal/race"
)

// splitTopicMatches is the historical strings.Split-based matcher that
// TopicMatches replaced, with the '$' rule [MQTT-4.7.2-1] added. It is
// kept here as the oracle: the index-walking implementation and the
// subscription trie must both agree with it.
func splitTopicMatches(filter, topic string) bool {
	fl := strings.Split(filter, "/")
	tl := strings.Split(topic, "/")
	if strings.HasPrefix(topic, "$") && (fl[0] == "+" || fl[0] == "#") {
		return false
	}
	for i, f := range fl {
		if f == "#" {
			return true
		}
		if i >= len(tl) {
			return false
		}
		if f != "+" && f != tl[i] {
			return false
		}
	}
	return len(fl) == len(tl)
}

// FuzzTopicMatchConsistency cross-checks three matching implementations:
// the old split-based oracle, the allocation-free TopicMatches, and (for
// inputs that pass validation, the only ones the broker ever indexes) the
// subscription trie. ops then drives one trie through interleaved
// Subscribe and Unsubscribe calls against a reference list of (filter,
// value) pairs: each byte picks a filter from a pool (the fuzzed filter and
// topic, fixed wildcards, and sixteen device-trigger siblings, enough to
// take a node's edge map past its small flat form and back), a value, and
// whether to add or remove it. After every call the trie's Len, the count
// Unsubscribe reports, and the values Match yields for a few topics must
// equal what the reference and the oracle say.
func FuzzTopicMatchConsistency(f *testing.F) {
	seeds := [][2]string{
		{"a/b/c", "a/b/c"}, {"a/#", "a"}, {"a/#", "a/b/c"},
		{"+/+", "a/b"}, {"#", ""}, {"+", "a"}, {"+", "a/b"},
		{"a/+/c", "a//c"}, {"a/", "a/"}, {"/a", "/a"},
		{"a/#/b", "a"}, {"sport/+", "sport"}, {"+/#", "x/y/z"},
		{"#", "$SYS/x"}, {"+/summary/#", "$cluster/summary/s0/1"},
		{"$cluster/summary/+/+", "$cluster/summary/s0/1"}, {"$cluster/#", "$cluster"},
		{"+", "$"}, {"#", "a/$b"}, {"+a", "$a"},
	}
	for i, s := range seeds {
		ops := make([]byte, 3*i)
		for j := range ops {
			ops[j] = byte(j*37 + i*11)
		}
		f.Add(s[0], s[1], ops)
	}
	f.Fuzz(func(t *testing.T, filter, topic string, ops []byte) {
		want := splitTopicMatches(filter, topic)
		if got := TopicMatches(filter, topic); got != want {
			t.Fatalf("TopicMatches(%q, %q) = %v, oracle says %v", filter, topic, got, want)
		}
		// The trie only ever sees validated filters and topics; within
		// that domain it must agree with the oracle too.
		if ValidateTopicFilter(filter) != nil || ValidateTopicName(topic) != nil {
			return
		}
		tr := topictrie.NewFilterTrie[int]()
		tr.Subscribe(filter, 1)
		out, _ := tr.Match(topic, nil)
		if (len(out) == 1) != want {
			t.Fatalf("trie match of %q against %q = %v, oracle says %v", filter, topic, out, want)
		}
		checkTrieChurn(t, filter, topic, ops)
	})
}

// checkTrieChurn is FuzzTopicMatchConsistency's Subscribe/Unsubscribe
// interleaving, for a validated filter and topic.
func checkTrieChurn(t *testing.T, filter, topic string, ops []byte) {
	pool := []string{filter, "#", "+/#", "a/+", "a/b", "$x/#", "sensocial/device/+/trigger"}
	if ValidateTopicFilter(topic) == nil {
		pool = append(pool, topic)
	}
	for d := 0; d < 16; d++ {
		pool = append(pool, fmt.Sprintf("sensocial/device/d%d/trigger", d))
	}
	topics := []string{topic, "a/b", "$x/y", "sensocial/device/d3/trigger", "sensocial/device/d15/trigger"}
	type sub struct {
		filter string
		v      int
	}
	var ref []sub
	tr := topictrie.NewFilterTrie[int]()
	for i, op := range ops {
		fl, v := pool[int(op>>1)%len(pool)], int(op>>6)
		if op&1 == 0 {
			tr.Subscribe(fl, v)
			ref = append(ref, sub{fl, v})
		} else {
			kept, removed := ref[:0:0], 0
			for _, s := range ref {
				if s.filter == fl && s.v == v {
					removed++
				} else {
					kept = append(kept, s)
				}
			}
			ref = kept
			if n := tr.Unsubscribe(fl, func(x int) bool { return x == v }); n != removed {
				t.Fatalf("op %d: Unsubscribe(%q, %d) removed %d, reference %d", i, fl, v, n, removed)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, reference holds %d", i, tr.Len(), len(ref))
		}
		for _, tp := range topics {
			var want []int
			for _, s := range ref {
				if splitTopicMatches(s.filter, tp) {
					want = append(want, s.v)
				}
			}
			got, _ := tr.Match(tp, nil)
			sort.Ints(want)
			sort.Ints(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("op %d: Match(%q) = %v, reference %v (subscriptions %v)", i, tp, got, want, ref)
			}
		}
	}
}

// TestRetainedReplayOverlappingWildcards pins retained semantics under
// overlapping + and # filters: each filter independently replays every
// retained message it matches (so overlap duplicates, exactly like a
// linear scan per filter did), and replay within one filter is ordered by
// topic name. It also pins the store itself: a republished topic replaces
// its value, an empty payload deletes exactly one topic (and deleting an
// absent one is a no-op), and the retained gauge tracks the count.
func TestRetainedReplayOverlappingWildcards(t *testing.T) {
	bus := newTestBus(t)
	pub := bus.connect("publisher")
	retain := func(topic, payload string) {
		t.Helper()
		if err := pub.Publish(topic, []byte(payload), 0, true); err != nil {
			t.Fatalf("Publish retained %s: %v", topic, err)
		}
	}
	retainedCount := func(n uint64) {
		t.Helper()
		waitUntil(t, func() bool { return bus.metrics.Sum("sensocial_mqtt_retained") == n })
	}
	for _, topic := range []string{
		"sensocial/us/state", "sensocial/eu/state", "sensocial/eu/config",
		"config/dev1", "config/dev2", "config/dev2/extra", "state/dev1", "config",
	} {
		retain(topic, "v:"+topic)
	}
	retain("config/dev1", "v2:config/dev1") // replace, not grow
	retainedCount(8)

	// Late subscribers, one per filter: each filter replays exactly its
	// own match set, sorted by topic, with the retain flag and the
	// latest value.
	late := 0
	replay := func(filter string, want ...string) {
		t.Helper()
		late++
		sub := bus.connect(fmt.Sprintf("late-%d", late))
		var col collector
		if err := sub.Subscribe(filter, 0, col.handler); err != nil {
			t.Fatalf("Subscribe %s: %v", filter, err)
		}
		msgs := col.waitFor(t, len(want))
		var topics []string
		for _, m := range msgs {
			if !m.Retain {
				t.Fatalf("replayed message lost its retain flag: %+v", m)
			}
			value := "v:" + m.Topic
			if m.Topic == "config/dev1" {
				value = "v2:config/dev1"
			}
			if string(m.Payload) != value {
				t.Fatalf("filter %s replayed %s = %q, want %q", filter, m.Topic, m.Payload, value)
			}
			topics = append(topics, m.Topic)
		}
		if strings.Join(topics, ",") != strings.Join(want, ",") {
			t.Fatalf("filter %s replay = %v, want %v", filter, topics, want)
		}
		// Replay is once per SUBSCRIBE: no stragglers follow.
		time.Sleep(10 * time.Millisecond)
		if col.count() != len(want) {
			t.Fatalf("filter %s replayed %d messages, want %d", filter, col.count(), len(want))
		}
	}
	replay("sensocial/+/state", "sensocial/eu/state", "sensocial/us/state")
	replay("sensocial/#", "sensocial/eu/config", "sensocial/eu/state", "sensocial/us/state")
	replay("config/+", "config/dev1", "config/dev2")
	replay("config/#", "config", "config/dev1", "config/dev2", "config/dev2/extra")
	replay("#", "config", "config/dev1", "config/dev2", "config/dev2/extra", "sensocial/eu/config",
		"sensocial/eu/state", "sensocial/us/state", "state/dev1")
	replay("+/dev1", "config/dev1", "state/dev1")
	replay("config/dev1", "config/dev1")
	replay("nothing/+")

	// Deleting config/dev2 leaves config/dev2/extra reachable, and a
	// second delete is a no-op: once the marker published after it is
	// stored, the count is back to 8.
	retain("config/dev2", "")
	retainedCount(7)
	retain("config/dev2", "")
	retain("marker", "v:marker")
	retainedCount(8)
	replay("config/#", "config", "config/dev1", "config/dev2/extra")

	for _, topic := range []string{
		"sensocial/us/state", "sensocial/eu/state", "sensocial/eu/config",
		"config/dev1", "config/dev2/extra", "state/dev1", "config", "marker",
	} {
		retain(topic, "")
	}
	retainedCount(0)
	replay("#")
}

// TestFanoutPreservesPerSessionOrder pins that handing deliveries to a
// per-session writer queue did not reorder them: a subscriber sees one
// publisher's messages in publish order.
func TestFanoutPreservesPerSessionOrder(t *testing.T) {
	bus := newTestBus(t)
	sub := bus.connect("subscriber")
	var col collector
	if err := sub.Subscribe("seq/#", 0, col.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub := bus.connect("publisher")
	const n = 64
	for i := 0; i < n; i++ {
		if err := pub.Publish("seq/x", []byte(fmt.Sprintf("%03d", i)), 0, false); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	msgs := col.waitFor(t, n)
	for i, m := range msgs {
		if want := fmt.Sprintf("%03d", i); string(m.Payload) != want {
			t.Fatalf("message %d out of order: got %q, want %q", i, m.Payload, want)
		}
	}
}

// discardConn is a no-op net.Conn for white-box session tests.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// newBenchSession wires a bare session into b's subscription trie without
// a network, so delivery internals can be driven synchronously.
func newBenchSession(b *Broker, id, filter string, qos byte) *session {
	s := &session{
		broker:   b,
		conn:     discardConn{},
		clientID: id,
		out:      make(chan *frame, 8),
		done:     make(chan struct{}),
		subs:     map[string]byte{filter: qos},
	}
	b.subs.Subscribe(filter, subEntry{sess: s, qos: qos})
	return s
}

// TestFanoutQoS0NoAlloc pins the QoS 0 publish path at zero allocations
// in steady state (mirroring internal/core/server's ingest alloc test):
// trie match, session dedup, encode-once frame, enqueue, wire write and
// frame recycling all reuse pooled memory. The test drains each session
// queue synchronously with the production writeFrame/release pair so the
// measurement is deterministic.
func TestFanoutQoS0NoAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector drops sync.Pool puts by design; alloc pinning does not apply")
	}
	b := NewBroker(BrokerOptions{})
	sessions := make([]*session, 8)
	for i := range sessions {
		sessions[i] = newBenchSession(b, fmt.Sprintf("s%d", i), "alloc/pin/topic", 0)
	}
	msg := Message{Topic: "alloc/pin/topic", Payload: []byte("steady-state payload")}
	allocs := testing.AllocsPerRun(200, func() {
		if err := b.PublishLocal(msg); err != nil {
			t.Fatalf("PublishLocal: %v", err)
		}
		for _, s := range sessions {
			f := <-s.out
			s.writeFrame(f)
			f.release()
		}
	})
	if allocs != 0 {
		t.Fatalf("QoS0 fan-out allocates %.1f times per publish, want 0", allocs)
	}
}

// TestFanoutQoS1PacketIDsPerSession checks the QoS 1 delivery shape: the
// shared frame stays zeroed at the packet-identifier slot while each
// session's writer patches its own monotonically increasing identifier
// into its private scratch copy.
func TestFanoutQoS1PacketIDsPerSession(t *testing.T) {
	b := NewBroker(BrokerOptions{})
	s1 := newBenchSession(b, "s1", "q1/topic", 1)
	s2 := newBenchSession(b, "s2", "q1/topic", 1)
	for round := 1; round <= 3; round++ {
		if err := b.PublishLocal(Message{Topic: "q1/topic", Payload: []byte("p"), QoS: 1}); err != nil {
			t.Fatalf("PublishLocal: %v", err)
		}
		for _, s := range []*session{s1, s2} {
			f := <-s.out
			if f.qos != 1 || f.idOff == 0 {
				t.Fatalf("frame = %+v, want QoS1 with packet-id slot", f)
			}
			if f.buf[f.idOff] != 0 || f.buf[f.idOff+1] != 0 {
				t.Fatalf("shared frame packet-id slot mutated: % x", f.buf[f.idOff:f.idOff+2])
			}
			s.writeFrame(f)
			if got := uint16(s.scratch[f.idOff])<<8 | uint16(s.scratch[f.idOff+1]); got != uint16(round) {
				t.Fatalf("session %s round %d wrote packet id %d", s.clientID, round, got)
			}
			f.release()
		}
	}
	if s1.nextID != 3 || s2.nextID != 3 {
		t.Fatalf("nextID = %d/%d, want 3/3", s1.nextID, s2.nextID)
	}
}

// TestFanoutBackpressureDropsSlowSession pins the backpressure contract: a
// session whose outbound queue is full loses the delivery (counted in
// sensocial_mqtt_fanout_dropped_total) instead of stalling the publisher or its peers.
func TestFanoutBackpressureDropsSlowSession(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBroker(BrokerOptions{Metrics: reg})
	slow := newBenchSession(b, "slow", "bp/topic", 0)
	fast := newBenchSession(b, "fast", "bp/topic", 0)
	total := cap(slow.out) + 3
	for i := 0; i < total; i++ {
		if err := b.PublishLocal(Message{Topic: "bp/topic", Payload: []byte("p")}); err != nil {
			t.Fatalf("PublishLocal: %v", err)
		}
		// fast keeps up; slow never drains.
		f := <-fast.out
		fast.writeFrame(f)
		f.release()
	}
	if got := reg.Sum("sensocial_mqtt_fanout_dropped_total"); got != 3 {
		t.Fatalf("fanout drops = %d, want 3", got)
	}
	// Every accepted delivery is still queued for the slow session.
	if len(slow.out) != cap(slow.out) {
		t.Fatalf("slow queue holds %d, want full (%d)", len(slow.out), cap(slow.out))
	}
}
