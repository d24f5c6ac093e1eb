package mqtt

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vclock"
)

// redialRig hosts a broker whose listener can be torn down and rebuilt to
// simulate broker restarts.
type redialRig struct {
	t      *testing.T
	fabric *netsim.Network

	mu       sync.Mutex
	broker   *Broker
	listener net.Listener
	retained []Message // stored on each new broker before it accepts a dial
}

func newRedialRig(t *testing.T) *redialRig {
	t.Helper()
	r := &redialRig{t: t, fabric: netsim.NewNetwork(vclock.NewReal(), 9)}
	t.Cleanup(func() { _ = r.fabric.Close() })
	r.startBroker()
	t.Cleanup(r.stopBroker)
	return r
}

func (r *redialRig) startBroker() {
	r.t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	b := NewBroker(BrokerOptions{})
	for _, m := range r.retained {
		if err := b.PublishLocal(m); err != nil {
			r.t.Fatalf("PublishLocal: %v", err)
		}
	}
	l, err := r.fabric.Listen("broker:1883")
	if err != nil {
		r.t.Fatalf("Listen: %v", err)
	}
	go func() { _ = b.Serve(l) }()
	r.broker, r.listener = b, l
}

func (r *redialRig) stopBroker() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.listener != nil {
		_ = r.listener.Close()
		r.listener = nil
	}
	if r.broker != nil {
		_ = r.broker.Close()
		r.broker = nil
	}
}

func (r *redialRig) currentBroker() *Broker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.broker
}

func (r *redialRig) dial() (net.Conn, error) {
	return r.fabric.Dial("mobile", "broker:1883")
}

// subscribed reports whether the current broker holds filter for some
// session. Connected turns true before a fresh session's subscriptions
// are replayed, so a test that needs the replay done waits on this.
func (r *redialRig) subscribed(filter string) func() bool {
	return func() bool {
		b := r.currentBroker()
		return b != nil && b.SessionFilters()[filter] > 0
	}
}

func TestRedialerValidation(t *testing.T) {
	if _, err := NewRedialer(nil, ClientOptions{ClientID: "x"}); err == nil {
		t.Fatal("nil dial accepted")
	}
	if _, err := NewRedialer(func() (net.Conn, error) { return nil, ErrNotConnected },
		ClientOptions{}); err == nil {
		t.Fatal("missing client id accepted")
	}
}

func TestRedialerSurvivesBrokerRestart(t *testing.T) {
	rig := newRedialRig(t)
	rd, err := NewRedialer(rig.dial, ClientOptions{ClientID: "dev1"})
	if err != nil {
		t.Fatalf("NewRedialer: %v", err)
	}
	defer rd.Close()

	var col collector
	if err := rd.Subscribe("t/#", 1, col.handler); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	waitUntil(t, rig.subscribed("t/#"))
	if err := rd.Publish("t/1", []byte("before"), 1, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	col.waitFor(t, 1)

	// Broker restarts.
	rig.stopBroker()
	waitUntil(t, func() bool { return !rd.Connected() })
	if err := rd.Publish("t/2", []byte("down"), 0, false); err == nil {
		t.Fatal("publish while down succeeded")
	}
	rig.startBroker()
	waitUntil(t, rig.subscribed("t/#"))

	// The durable subscription was replayed: traffic flows again.
	if err := rd.Publish("t/3", []byte("after"), 1, false); err != nil {
		t.Fatalf("Publish after restart: %v", err)
	}
	msgs := col.waitFor(t, 2)
	if string(msgs[len(msgs)-1].Payload) != "after" {
		t.Fatalf("messages = %+v", msgs)
	}
}

func TestRedialerSubscribeWhileDisconnected(t *testing.T) {
	rig := newRedialRig(t)
	rig.stopBroker() // start life disconnected
	rd, err := NewRedialer(rig.dial, ClientOptions{ClientID: "dev1"})
	if err != nil {
		t.Fatalf("NewRedialer: %v", err)
	}
	defer rd.Close()
	var col collector
	// Subscribing while down records the intent.
	if err := rd.Subscribe("later", 0, col.handler); err != nil {
		t.Fatalf("Subscribe while down: %v", err)
	}
	if err := rd.Subscribe("bad/#/x", 0, col.handler); err == nil {
		t.Fatal("invalid filter accepted")
	}
	if err := rd.Subscribe("ok", 0, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	rig.startBroker()
	waitUntil(t, rig.subscribed("later"))
	if err := rig.currentBroker().PublishLocal(Message{Topic: "later", Payload: []byte("hi")}); err != nil {
		t.Fatalf("PublishLocal: %v", err)
	}
	col.waitFor(t, 1)
	// Unsubscribe drops the durable record.
	if err := rd.Unsubscribe("later"); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	if err := rig.currentBroker().PublishLocal(Message{Topic: "later", Payload: []byte("again")}); err != nil {
		t.Fatalf("PublishLocal: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if col.count() != 1 {
		t.Fatalf("messages after unsubscribe = %d", col.count())
	}
}

// TestRedialerPublishFromReplayedMessage pins that the session is current
// while subscriptions replay: a handler answering a replayed retained
// message (the cluster bridge forwarding on a freshly received summary)
// publishes on that session instead of failing as not connected.
func TestRedialerPublishFromReplayedMessage(t *testing.T) {
	rig := newRedialRig(t)
	rig.stopBroker() // start life disconnected
	rig.retained = []Message{{Topic: "cfg/x", Payload: []byte("v"), Retain: true}}
	rd, err := NewRedialer(rig.dial, ClientOptions{ClientID: "dev1"})
	if err != nil {
		t.Fatalf("NewRedialer: %v", err)
	}
	defer rd.Close()
	errs := make(chan error, 1)
	answer := func(Message) {
		select {
		case errs <- rd.Publish("cfg-ack", []byte("ok"), 0, false):
		default:
		}
	}
	// Several subscriptions, so the answer usually runs while later ones
	// are still being replayed.
	for _, f := range []string{"cfg/#", "z/1", "z/2", "z/3", "z/4"} {
		h := func(Message) {}
		if f == "cfg/#" {
			h = answer
		}
		if err := rd.Subscribe(f, 0, h); err != nil {
			t.Fatalf("Subscribe %s: %v", f, err)
		}
	}
	rig.startBroker()
	select {
	case err := <-errs:
		if err != nil {
			t.Fatalf("publish from a replayed message: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retained message never replayed")
	}
}

// TestRedialerDeadSessionFinishesBeforeReplay pins that a handler still
// running on a session that died finishes before the next session replays
// its subscriptions, so the replayed retained value is the one applied
// last rather than being overwritten by the older value the dead session
// was still handling.
func TestRedialerDeadSessionFinishesBeforeReplay(t *testing.T) {
	rig := newRedialRig(t)
	rig.stopBroker()
	rig.retained = []Message{{Topic: "cfg/x", Payload: []byte("old"), Retain: true}}
	rig.startBroker()
	rd, err := NewRedialer(rig.dial, ClientOptions{ClientID: "dev1"})
	if err != nil {
		t.Fatalf("NewRedialer: %v", err)
	}
	defer rd.Close()

	var mu sync.Mutex
	var applied []string
	entered, release := make(chan struct{}), make(chan struct{})
	newApplied := make(chan struct{}, 1)
	if err := rd.Subscribe("cfg/x", 0, func(m Message) {
		v := string(m.Payload)
		if v == "old" {
			close(entered)
			<-release
		}
		mu.Lock()
		applied = append(applied, v)
		mu.Unlock()
		if v == "new" {
			newApplied <- struct{}{}
		}
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("retained value never replayed")
	}

	// The session dies while its handler holds "old"; the next broker
	// retains "new". Give a fresh session the chance to apply "new" early,
	// then let "old" finish.
	rig.stopBroker()
	rig.retained = []Message{{Topic: "cfg/x", Payload: []byte("new"), Retain: true}}
	rig.startBroker()
	select {
	case <-newApplied:
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(applied) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if applied[0] != "old" || applied[1] != "new" {
		t.Fatalf("applied %q, want the replayed value last", applied)
	}
}

func TestRedialerCloseIsFinal(t *testing.T) {
	rig := newRedialRig(t)
	rd, err := NewRedialer(rig.dial, ClientOptions{ClientID: "dev1"})
	if err != nil {
		t.Fatalf("NewRedialer: %v", err)
	}
	waitUntil(t, rd.Connected)
	if err := rd.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rd.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := rd.Publish("t", nil, 0, false); err != ErrClientClosed {
		t.Fatalf("Publish after Close = %v", err)
	}
	if err := rd.Subscribe("t", 0, func(Message) {}); err != ErrClientClosed {
		t.Fatalf("Subscribe after Close = %v", err)
	}
	if err := rd.Unsubscribe("t"); err != ErrClientClosed {
		t.Fatalf("Unsubscribe after Close = %v", err)
	}
	if rd.Connected() {
		t.Fatal("Connected after Close")
	}
}
