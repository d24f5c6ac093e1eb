package mqtt

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// testBus is a broker served over a netsim fabric.
type testBus struct {
	t       *testing.T
	net     *netsim.Network
	broker  *Broker
	metrics *obs.Registry
}

func newTestBus(t *testing.T) *testBus {
	t.Helper()
	n := netsim.NewNetwork(vclock.NewReal(), 1)
	reg := obs.NewRegistry()
	b := NewBroker(BrokerOptions{Metrics: reg})
	l, err := n.Listen("broker:1883")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() { _ = b.Serve(l) }()
	t.Cleanup(func() {
		_ = b.Close()
		_ = n.Close()
	})
	return &testBus{t: t, net: n, broker: b, metrics: reg}
}

func (tb *testBus) connect(clientID string, opts ...func(*ClientOptions)) *Client {
	tb.t.Helper()
	conn, err := tb.net.Dial(clientID, "broker:1883")
	if err != nil {
		tb.t.Fatalf("Dial: %v", err)
	}
	o := ClientOptions{ClientID: clientID, AckTimeout: 5 * time.Second}
	for _, f := range opts {
		f(&o)
	}
	c, err := Connect(conn, o)
	if err != nil {
		tb.t.Fatalf("Connect(%s): %v", clientID, err)
	}
	tb.t.Cleanup(func() { _ = c.Close() })
	return c
}

// collector accumulates messages for assertions.
type collector struct {
	mu   sync.Mutex
	msgs []Message
}

func (c *collector) handler(m Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collector) waitFor(t *testing.T, n int) []Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]Message(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			c.mu.Lock()
			got := len(c.msgs)
			c.mu.Unlock()
			t.Fatalf("timeout waiting for %d messages, have %d", n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func TestPublishSubscribeQoS0(t *testing.T) {
	bus := newTestBus(t)
	sub := bus.connect("subscriber")
	pub := bus.connect("publisher")
	var col collector
	if err := sub.Subscribe("sensors/+/location", 0, col.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := pub.Publish("sensors/dev1/location", []byte(`{"lat":48.8}`), 0, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	msgs := col.waitFor(t, 1)
	if msgs[0].Topic != "sensors/dev1/location" || string(msgs[0].Payload) != `{"lat":48.8}` {
		t.Fatalf("got %+v", msgs[0])
	}
}

func TestPublishQoS1AckedEndToEnd(t *testing.T) {
	bus := newTestBus(t)
	sub := bus.connect("subscriber")
	pub := bus.connect("publisher")
	var col collector
	if err := sub.Subscribe("triggers/#", 1, col.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// QoS1 publish blocks until PUBACK; success implies the ack path works.
	if err := pub.Publish("triggers/dev1", []byte("sense-now"), 1, false); err != nil {
		t.Fatalf("Publish QoS1: %v", err)
	}
	msgs := col.waitFor(t, 1)
	if msgs[0].QoS != 1 {
		t.Fatalf("delivered QoS = %d, want 1", msgs[0].QoS)
	}
}

func TestQoSDowngradeToSubscription(t *testing.T) {
	bus := newTestBus(t)
	sub := bus.connect("subscriber")
	pub := bus.connect("publisher")
	var col collector
	if err := sub.Subscribe("t", 0, col.handler); err != nil { // QoS0 subscription
		t.Fatalf("Subscribe: %v", err)
	}
	if err := pub.Publish("t", []byte("x"), 1, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	msgs := col.waitFor(t, 1)
	if msgs[0].QoS != 0 {
		t.Fatalf("delivered QoS = %d, want downgraded 0", msgs[0].QoS)
	}
}

func TestFanoutToManySubscribers(t *testing.T) {
	bus := newTestBus(t)
	const n = 20
	cols := make([]*collector, n)
	for i := 0; i < n; i++ {
		cols[i] = &collector{}
		c := bus.connect(fmt.Sprintf("mobile-%d", i))
		if err := c.Subscribe("broadcast", 0, cols[i].handler); err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
	}
	pub := bus.connect("server")
	if err := pub.Publish("broadcast", []byte("hello all"), 0, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	for i, col := range cols {
		msgs := col.waitFor(t, 1)
		if string(msgs[0].Payload) != "hello all" {
			t.Fatalf("subscriber %d got %q", i, msgs[0].Payload)
		}
	}
	if got := bus.metrics.Sum("sensocial_mqtt_delivered_total"); got < n {
		t.Fatalf("delivered = %d, want >= %d", got, n)
	}
}

func TestNoDeliveryToNonMatching(t *testing.T) {
	bus := newTestBus(t)
	sub := bus.connect("subscriber")
	pub := bus.connect("publisher")
	var match, other collector
	if err := sub.Subscribe("a/b", 0, match.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := sub.Subscribe("c/d", 0, other.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := pub.Publish("a/b", []byte("x"), 0, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	match.waitFor(t, 1)
	if other.count() != 0 {
		t.Fatal("non-matching subscription received message")
	}
}

func TestRetainedMessageDeliveredOnSubscribe(t *testing.T) {
	bus := newTestBus(t)
	pub := bus.connect("publisher")
	if err := pub.Publish("config/dev1", []byte("v1"), 0, true); err != nil {
		t.Fatalf("Publish retained: %v", err)
	}
	// Subscriber connects later and still receives the retained config.
	sub := bus.connect("latecomer")
	var col collector
	if err := sub.Subscribe("config/+", 0, col.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	msgs := col.waitFor(t, 1)
	if string(msgs[0].Payload) != "v1" || !msgs[0].Retain {
		t.Fatalf("retained = %+v", msgs[0])
	}
	// Empty retained payload clears it.
	if err := pub.Publish("config/dev1", nil, 0, true); err != nil {
		t.Fatalf("clear retained: %v", err)
	}
	waitUntil(t, func() bool { return bus.metrics.Sum("sensocial_mqtt_retained") == 0 })
	sub2 := bus.connect("latecomer2")
	var col2 collector
	if err := sub2.Subscribe("config/+", 0, col2.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if col2.count() != 0 {
		t.Fatal("cleared retained message still delivered")
	}
}

// TestWildcardFiltersSkipDollarTopics pins [MQTT-4.7.2-1]: a filter whose
// first level is a wildcard matches no topic beginning with '$', neither
// in retained replay nor in live fan-out, for network sessions and local
// handlers alike. Only a filter spelling out the '$' level sees the
// cluster bridge's control traffic.
func TestWildcardFiltersSkipDollarTopics(t *testing.T) {
	bus := newTestBus(t)
	pub := bus.connect("publisher")
	if err := pub.Publish("$cluster/summary/shard1/0", []byte("bucket"), 0, true); err != nil {
		t.Fatalf("Publish retained: %v", err)
	}
	if err := pub.Publish("config/dev1", []byte("v1"), 0, true); err != nil {
		t.Fatalf("Publish retained: %v", err)
	}
	waitUntil(t, func() bool { return bus.metrics.Sum("sensocial_mqtt_retained") == 2 })

	var local collector
	if err := bus.broker.SubscribeLocal("#", local.handler); err != nil {
		t.Fatalf("SubscribeLocal: %v", err)
	}
	subscribe := func(client, filter string) *collector {
		t.Helper()
		var col collector
		if err := bus.connect(client).Subscribe(filter, 0, col.handler); err != nil {
			t.Fatalf("Subscribe %s: %v", filter, err)
		}
		return &col
	}
	all := subscribe("all", "#")
	plus := subscribe("plus", "+/summary/#")
	dollar := subscribe("dollar", "$cluster/#")
	if got := dollar.waitFor(t, 1); got[0].Topic != "$cluster/summary/shard1/0" {
		t.Fatalf("$cluster/# replayed %+v", got[0])
	}
	if got := all.waitFor(t, 1); got[0].Topic != "config/dev1" {
		t.Fatalf("# replayed %+v", got[0])
	}

	if err := pub.Publish("$cluster/bridge/shard1/x", []byte("fwd"), 0, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := pub.Publish("x", []byte("plain"), 0, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	dollar.waitFor(t, 2)
	for _, m := range all.waitFor(t, 2) {
		if m.Topic[0] == '$' {
			t.Fatalf("# received %s", m.Topic)
		}
	}
	for _, m := range local.waitFor(t, 1) {
		if m.Topic[0] == '$' {
			t.Fatalf("local # handler received %s", m.Topic)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if n := plus.count(); n != 0 {
		t.Fatalf("+/summary/# received %d messages, want 0", n)
	}
	if n := all.count(); n != 2 {
		t.Fatalf("# received %d messages, want 2", n)
	}
	if n := local.count(); n != 1 {
		t.Fatalf("local # handler received %d messages, want 1", n)
	}
}

// TestRetainedReplayNeverOvertakesNewerPublish races SUBSCRIBE replays
// against a stream of retained publishes on one topic: every session must
// see the topic's values in publish order (repeats allowed), never an older
// retained value after a newer one. The cluster bridge relies on this to
// treat the last summary it received as the peer's current set.
func TestRetainedReplayNeverOvertakesNewerPublish(t *testing.T) {
	bus := newTestBus(t)
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = bus.broker.PublishLocal(Message{Topic: "summary/a", Payload: []byte(strconv.Itoa(i)), Retain: true})
		}
	}()

	const clients, cycles = 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		cli := bus.connect(fmt.Sprintf("replayer%d", c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			var bad error
			var mu sync.Mutex
			h := func(m Message) {
				v, _ := strconv.Atoi(string(m.Payload))
				mu.Lock()
				if v < last && bad == nil {
					bad = fmt.Errorf("%s received retained %d after %d", cli.ID(), v, last)
				}
				if v > last {
					last = v
				}
				mu.Unlock()
			}
			for i := 0; i < cycles; i++ {
				if err := cli.Subscribe("summary/a", 0, h); err != nil {
					errs <- err
					return
				}
				if err := cli.Unsubscribe("summary/a"); err != nil {
					errs <- err
					return
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if bad != nil {
				errs <- bad
			}
		}()
	}
	wg.Wait()
	close(stop)
	pubWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	bus := newTestBus(t)
	sub := bus.connect("subscriber")
	pub := bus.connect("publisher")
	var col collector
	if err := sub.Subscribe("t", 0, col.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := pub.Publish("t", []byte("1"), 0, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	col.waitFor(t, 1)
	if err := sub.Unsubscribe("t"); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	if err := pub.Publish("t", []byte("2"), 1, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if col.count() != 1 {
		t.Fatalf("messages after unsubscribe = %d, want 1", col.count())
	}
}

func TestClientIDTakeover(t *testing.T) {
	bus := newTestBus(t)
	first := bus.connect("dev1")
	_ = first
	waitUntil(t, func() bool { return bus.metrics.Sum("sensocial_mqtt_connections") == 1 })
	second := bus.connect("dev1")
	var col collector
	if err := second.Subscribe("t", 0, col.handler); err != nil {
		t.Fatalf("Subscribe on takeover session: %v", err)
	}
	waitUntil(t, func() bool { return bus.metrics.Sum("sensocial_mqtt_connections") == 1 })
	pub := bus.connect("publisher")
	if err := pub.Publish("t", []byte("x"), 0, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	col.waitFor(t, 1)
}

func TestPublishLocal(t *testing.T) {
	bus := newTestBus(t)
	sub := bus.connect("subscriber")
	var col collector
	if err := sub.Subscribe("local/#", 0, col.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := bus.broker.PublishLocal(Message{Topic: "local/x", Payload: []byte("in-proc")}); err != nil {
		t.Fatalf("PublishLocal: %v", err)
	}
	msgs := col.waitFor(t, 1)
	if string(msgs[0].Payload) != "in-proc" {
		t.Fatalf("got %+v", msgs[0])
	}
	if err := bus.broker.PublishLocal(Message{Topic: "bad/+", Payload: nil}); err == nil {
		t.Fatal("PublishLocal accepted wildcard topic")
	}
	if err := bus.broker.PublishLocal(Message{Topic: "t", QoS: 2}); err == nil {
		t.Fatal("PublishLocal accepted QoS 2")
	}
}

func TestConnectValidation(t *testing.T) {
	bus := newTestBus(t)
	conn, err := bus.net.Dial("x", "broker:1883")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := Connect(conn, ClientOptions{}); err == nil {
		t.Fatal("Connect accepted empty ClientID")
	}
}

func TestSubscribeValidation(t *testing.T) {
	bus := newTestBus(t)
	c := bus.connect("c")
	if err := c.Subscribe("bad/#/filter", 0, func(Message) {}); err == nil {
		t.Fatal("invalid filter accepted")
	}
	if err := c.Subscribe("ok", 0, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestPublishValidation(t *testing.T) {
	bus := newTestBus(t)
	c := bus.connect("c")
	if err := c.Publish("bad/+", nil, 0, false); err == nil {
		t.Fatal("wildcard topic accepted")
	}
	if err := c.Publish("t", nil, 2, false); err == nil {
		t.Fatal("QoS 2 accepted")
	}
}

func TestClientCloseIdempotentAndRejectsOps(t *testing.T) {
	bus := newTestBus(t)
	c := bus.connect("c")
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := c.Publish("t", nil, 0, false); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Publish after close err = %v", err)
	}
	if err := c.Subscribe("t", 0, func(Message) {}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Subscribe after close err = %v", err)
	}
}

// TestPacketIDsExhausted: with every packet id awaiting an ack, requests
// that need one fail with ErrPacketIDsExhausted instead of spinning for a
// free id while holding the lock the read loop needs.
func TestPacketIDsExhausted(t *testing.T) {
	bus := newTestBus(t)
	c := bus.connect("c")
	c.FillPending()
	errs := make(chan error, 3)
	go func() {
		errs <- c.Publish("t", []byte("x"), 1, false)
		errs <- c.Subscribe("t", 1, func(Message) {})
		errs <- c.Unsubscribe("t")
	}()
	for _, op := range []string{"Publish", "Subscribe", "Unsubscribe"} {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrPacketIDsExhausted) {
				t.Fatalf("%s with every packet id in flight: err = %v, want ErrPacketIDsExhausted", op, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s with every packet id in flight hung", op)
		}
	}
	// QoS 0 needs no packet id.
	if err := c.Publish("t", []byte("x"), 0, false); err != nil {
		t.Fatalf("QoS 0 Publish: %v", err)
	}
}

func TestHandlerMayPublishQoS1(t *testing.T) {
	// Regression guard: handlers run off the reader goroutine, so a QoS 1
	// publish from inside a handler must not deadlock.
	bus := newTestBus(t)
	relay := bus.connect("relay")
	sink := bus.connect("sink")
	var col collector
	if err := sink.Subscribe("out", 0, col.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	relayed := make(chan error, 1)
	if err := relay.Subscribe("in", 0, func(m Message) {
		select {
		case relayed <- relay.Publish("out", m.Payload, 1, false):
		default: // a redelivery; the first result is the one checked
		}
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub := bus.connect("source")
	if err := pub.Publish("in", []byte("chained"), 1, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	msgs := col.waitFor(t, 1)
	if string(msgs[0].Payload) != "chained" {
		t.Fatalf("got %q", msgs[0].Payload)
	}
	// The sink can see the message before the relay's PUBACK arrives; wait
	// for the acknowledged publish before the cleanup closes the relay.
	select {
	case err := <-relayed:
		if err != nil {
			t.Fatalf("relay publish: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("relay publish never returned")
	}
}

func TestKeepaliveMaintainsConnection(t *testing.T) {
	bus := newTestBus(t)
	c := bus.connect("pinger", func(o *ClientOptions) { o.KeepAlive = time.Second })
	var col collector
	if err := c.Subscribe("t", 0, col.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// Stay idle past several keepalive windows; pings keep the session up.
	time.Sleep(150 * time.Millisecond)
	pub := bus.connect("pub")
	if err := pub.Publish("t", []byte("still-alive"), 0, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	col.waitFor(t, 1)
}

func TestBrokerStatsCounts(t *testing.T) {
	bus := newTestBus(t)
	a := bus.connect("a")
	b := bus.connect("b")
	var col collector
	if err := b.Subscribe("s", 0, col.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := a.Publish("s", []byte("1"), 0, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	col.waitFor(t, 1)
	for family, want := range map[string]uint64{
		"sensocial_mqtt_connections":     2,
		"sensocial_mqtt_connects_total":  2,
		"sensocial_mqtt_published_total": 1,
		"sensocial_mqtt_delivered_total": 1,
	} {
		if got := bus.metrics.Sum(family); got != want {
			t.Errorf("%s = %d, want %d", family, got, want)
		}
	}
}

func TestBrokerCloseDisconnectsClients(t *testing.T) {
	n := netsim.NewNetwork(vclock.NewReal(), 1)
	defer n.Close()
	b := NewBroker(BrokerOptions{})
	l, err := n.Listen("broker:1883")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- b.Serve(l) }()
	conn, err := n.Dial("c", "broker:1883")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c, err := Connect(conn, ClientOptions{ClientID: "c"})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer c.Close()
	if err := b.Close(); err != nil {
		t.Fatalf("broker Close: %v", err)
	}
	_ = l.Close()
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSubscribeLocal(t *testing.T) {
	bus := newTestBus(t)
	var col collector
	if err := bus.broker.SubscribeLocal("sensocial/stream/+", col.handler); err != nil {
		t.Fatalf("SubscribeLocal: %v", err)
	}
	if err := bus.broker.SubscribeLocal("bad/#/x", col.handler); err == nil {
		t.Fatal("invalid local filter accepted")
	}
	if err := bus.broker.SubscribeLocal("ok", nil); err == nil {
		t.Fatal("nil local handler accepted")
	}
	pub := bus.connect("mobile")
	if err := pub.Publish("sensocial/stream/dev1", []byte("item"), 1, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	msgs := col.waitFor(t, 1)
	if string(msgs[0].Payload) != "item" {
		t.Fatalf("local sub got %q", msgs[0].Payload)
	}
	// Local publish also reaches local subscribers.
	if err := bus.broker.PublishLocal(Message{Topic: "sensocial/stream/dev2", Payload: []byte("x")}); err != nil {
		t.Fatalf("PublishLocal: %v", err)
	}
	col.waitFor(t, 2)
}
