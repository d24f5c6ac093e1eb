package mqtt

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/mqtt/topictrie"
	"repro/internal/obs"
)

// splitTopicMatches is the historical strings.Split-based matcher that
// TopicMatches replaced. It is kept here as the oracle: the index-walking
// implementation and the subscription trie must both agree with it.
func splitTopicMatches(filter, topic string) bool {
	fl := strings.Split(filter, "/")
	tl := strings.Split(topic, "/")
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
// subscription trie.
func FuzzTopicMatchConsistency(f *testing.F) {
	seeds := [][2]string{
		{"a/b/c", "a/b/c"}, {"a/#", "a"}, {"a/#", "a/b/c"},
		{"+/+", "a/b"}, {"#", ""}, {"+", "a"}, {"+", "a/b"},
		{"a/+/c", "a//c"}, {"a/", "a/"}, {"/a", "/a"},
		{"a/#/b", "a"}, {"sport/+", "sport"}, {"+/#", "x/y/z"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, filter, topic string) {
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
	})
}

// TestRetainedReplayOverlappingWildcards pins retained semantics under
// overlapping + and # filters: each filter independently replays every
// retained message it matches (so overlap duplicates, exactly like a
// linear scan per filter did), and replay within one filter is ordered by
// topic name.
func TestRetainedReplayOverlappingWildcards(t *testing.T) {
	bus := newTestBus(t)
	pub := bus.connect("publisher")
	retained := []struct{ topic, payload string }{
		{"sensocial/us/state", "us-state"},
		{"sensocial/eu/state", "eu-state"},
		{"sensocial/eu/config", "eu-config"},
	}
	for _, r := range retained {
		if err := pub.Publish(r.topic, []byte(r.payload), 0, true); err != nil {
			t.Fatalf("Publish retained %s: %v", r.topic, err)
		}
	}
	waitUntil(t, func() bool { return bus.metrics.Sum("sensocial_mqtt_retained") == 3 })

	// Two late subscribers with overlapping filters: both index into the
	// same trie paths, and each filter must replay exactly its own match
	// set, sorted by topic.
	cases := []struct {
		client, filter string
		want           []string
	}{
		{"late-plus", "sensocial/+/state", []string{"sensocial/eu/state", "sensocial/us/state"}},
		{"late-hash", "sensocial/#", []string{"sensocial/eu/config", "sensocial/eu/state", "sensocial/us/state"}},
	}
	for _, c := range cases {
		sub := bus.connect(c.client)
		var col collector
		if err := sub.Subscribe(c.filter, 0, col.handler); err != nil {
			t.Fatalf("Subscribe %s: %v", c.filter, err)
		}
		msgs := col.waitFor(t, len(c.want))
		var topics []string
		for _, m := range msgs {
			if !m.Retain {
				t.Fatalf("replayed message lost its retain flag: %+v", m)
			}
			topics = append(topics, m.Topic)
		}
		if strings.Join(topics, ",") != strings.Join(c.want, ",") {
			t.Fatalf("filter %s replay = %v, want %v", c.filter, topics, c.want)
		}
		// Replay is once per SUBSCRIBE: no stragglers follow.
		time.Sleep(10 * time.Millisecond)
		if col.count() != len(c.want) {
			t.Fatalf("filter %s replayed %d messages, want %d", c.filter, col.count(), len(c.want))
		}
	}
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
	if raceEnabled {
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
