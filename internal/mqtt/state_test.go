package mqtt

import (
	"net"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vclock"
)

// rawSession is a hand-rolled MQTT connection: unlike Client it can
// withhold PUBACKs (to pin in-flight state across a crash) and observe
// raw frame flags like DUP on redelivery.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	in   *packetReader
	pid  uint16
}

func rawConnect(t *testing.T, n *netsim.Network, clientID, addr string) *rawSession {
	t.Helper()
	conn, err := n.Dial(clientID, addr)
	if err != nil {
		t.Fatalf("Dial(%s): %v", clientID, err)
	}
	if err := writePacket(conn, packetConnect, 0, encodeConnect(connectPacket{clientID: clientID})); err != nil {
		t.Fatalf("CONNECT(%s): %v", clientID, err)
	}
	r := &rawSession{t: t, conn: conn, in: &packetReader{r: conn}}
	t.Cleanup(func() { _ = conn.Close() })
	pkt := r.mustRead()
	if pkt.ptype != packetConnack || len(pkt.body) != 2 || pkt.body[1] != connAccepted {
		t.Fatalf("CONNACK(%s): %+v", clientID, pkt)
	}
	return r
}

// mustRead reads the session's next frame.
func (r *rawSession) mustRead() packet {
	r.t.Helper()
	//lint:ignore wallclock test read deadline on a real socket
	_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	pkt, err := r.in.read()
	if err != nil {
		r.t.Fatalf("read: %v", err)
	}
	return pkt
}

func (r *rawSession) subscribe(filter string, qos byte) {
	r.t.Helper()
	r.pid++
	body := encodeSubscribe(subscribePacket{packetID: r.pid, filters: []string{filter}, qoss: []byte{qos}}, true)
	if err := writePacket(r.conn, packetSubscribe, 2, body); err != nil {
		r.t.Fatalf("SUBSCRIBE(%s): %v", filter, err)
	}
	pkt := r.mustRead()
	if pkt.ptype != packetSuback {
		r.t.Fatalf("expected SUBACK, got type %d", pkt.ptype)
	}
}

func (r *rawSession) publish(topic string, payload []byte, qos byte, retain bool) {
	r.t.Helper()
	p := publishPacket{topic: topic, payload: payload, qos: qos, retain: retain}
	if qos == 1 {
		r.pid++
		p.packetID = r.pid
	}
	if _, err := r.conn.Write(publishFrame(p)); err != nil {
		r.t.Fatalf("PUBLISH(%s): %v", topic, err)
	}
	if qos == 1 {
		pkt := r.mustRead()
		if pkt.ptype != packetPuback {
			r.t.Fatalf("expected PUBACK, got type %d", pkt.ptype)
		}
	}
}

// readPublish reads the next inbound PUBLISH, returning it plus the DUP
// flag from the fixed header.
func (r *rawSession) readPublish() (publishPacket, bool) {
	r.t.Helper()
	pkt := r.mustRead()
	if pkt.ptype != packetPublish {
		r.t.Fatalf("expected PUBLISH, got type %d", pkt.ptype)
	}
	p, err := decodePublish(pkt.flags, pkt.body)
	if err != nil {
		r.t.Fatalf("decodePublish: %v", err)
	}
	return p, pkt.flags&0x08 != 0
}

func (r *rawSession) puback(pid uint16) {
	r.t.Helper()
	if err := writePacket(r.conn, packetPuback, 0, encodeUint16Body(pid)); err != nil {
		r.t.Fatalf("PUBACK: %v", err)
	}
}

// durableBus is a broker with session state over a netsim fabric that can
// be crash-restarted in place.
type durableBus struct {
	t      *testing.T
	dir    string
	net    *netsim.Network
	broker *Broker
	state  *SessionStore
	lis    net.Listener
}

func newDurableBus(t *testing.T) *durableBus {
	t.Helper()
	db := &durableBus{
		t:   t,
		dir: t.TempDir(),
		net: netsim.NewNetwork(vclock.NewReal(), 1),
	}
	db.start()
	t.Cleanup(func() {
		_ = db.lis.Close()
		_ = db.broker.Close()
		_ = db.state.Close()
		_ = db.net.Close()
	})
	return db
}

func (db *durableBus) start() {
	db.t.Helper()
	state, err := OpenSessionStore(db.dir, SessionStoreOptions{})
	if err != nil {
		db.t.Fatalf("OpenSessionStore: %v", err)
	}
	db.state = state
	db.broker = NewBroker(BrokerOptions{State: state})
	l, err := db.net.Listen("broker:1883")
	if err != nil {
		db.t.Fatalf("Listen: %v", err)
	}
	db.lis = l
	go func(b *Broker, l net.Listener) { _ = b.Serve(l) }(db.broker, l)
}

// crash simulates SIGKILL: the journal drops un-fsynced appends, the
// broker dies without flushing, then everything restarts from disk.
func (db *durableBus) crash() {
	db.t.Helper()
	db.state.Crash()
	_ = db.lis.Close()
	_ = db.broker.Close()
	db.start()
}

func TestBrokerRestartRecoversRetainedAndSubscriptions(t *testing.T) {
	db := newDurableBus(t)
	sub := rawConnect(t, db.net, "dev", "broker:1883")
	sub.subscribe("cfg/#", 1)
	pub := rawConnect(t, db.net, "pub", "broker:1883")
	pub.publish("cfg/x", []byte("v1"), 0, true)
	// The subscriber observing the publish proves the broker routed (and
	// therefore retained + journaled) it.
	if p, _ := sub.readPublish(); string(p.payload) != "v1" {
		t.Fatalf("live delivery = %q, want v1", p.payload)
	}
	// Make the retained write and subscriptions durable, then die.
	if err := db.state.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	db.crash()

	// A fresh subscriber gets the recovered retained message.
	fresh := rawConnect(t, db.net, "fresh", "broker:1883")
	fresh.subscribe("cfg/#", 0)
	if p, _ := fresh.readPublish(); string(p.payload) != "v1" || p.topic != "cfg/x" {
		t.Fatalf("retained after restart = %+v", p)
	}

	// The old client reconnects WITHOUT subscribing: its persistent
	// subscription must already route to it.
	dev2 := rawConnect(t, db.net, "dev", "broker:1883")
	pub2 := rawConnect(t, db.net, "pub2", "broker:1883")
	pub2.publish("cfg/y", []byte("v2"), 0, false)
	if p, _ := dev2.readPublish(); string(p.payload) != "v2" || p.topic != "cfg/y" {
		t.Fatalf("restored-subscription delivery = %+v", p)
	}
}

func TestBrokerCrashRedeliversUnackedQoS1(t *testing.T) {
	db := newDurableBus(t)
	dev := rawConnect(t, db.net, "dev", "broker:1883")
	dev.subscribe("cmd/#", 1)
	pub := rawConnect(t, db.net, "pub", "broker:1883")
	pub.publish("cmd/go", []byte("payload-1"), 1, false)

	// Receive the delivery but withhold the PUBACK.
	p1, dup1 := dev.readPublish()
	if p1.qos != 1 || dup1 {
		t.Fatalf("live delivery = qos %d dup %v, want qos 1 no dup", p1.qos, dup1)
	}
	waitUntil(t, func() bool { return db.state.InflightCount() == 1 })
	if err := db.state.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	db.crash()
	if got := db.state.InflightCount(); got != 1 {
		t.Fatalf("inflight after recovery = %d, want 1", got)
	}

	// Reconnecting with the same client id gets the frame again, DUP set,
	// same packet id and payload.
	dev2 := rawConnect(t, db.net, "dev", "broker:1883")
	p2, dup2 := dev2.readPublish()
	if !dup2 {
		t.Fatal("redelivery missing DUP flag")
	}
	if p2.packetID != p1.packetID || string(p2.payload) != string(p1.payload) || p2.topic != p1.topic {
		t.Fatalf("redelivery %+v does not match original %+v", p2, p1)
	}
	// Acking now clears the in-flight record.
	dev2.puback(p2.packetID)
	waitUntil(t, func() bool { return db.state.InflightCount() == 0 })

	// New QoS 1 deliveries must continue numbering past the recovered id.
	pub2 := rawConnect(t, db.net, "pub2", "broker:1883")
	pub2.publish("cmd/next", []byte("payload-2"), 1, false)
	p3, _ := dev2.readPublish()
	if p3.packetID <= p2.packetID {
		t.Fatalf("packet id %d did not advance past recovered %d", p3.packetID, p2.packetID)
	}
}

func TestBrokerAckedQoS1NotRedelivered(t *testing.T) {
	db := newDurableBus(t)
	dev := rawConnect(t, db.net, "dev", "broker:1883")
	dev.subscribe("cmd/#", 1)
	pub := rawConnect(t, db.net, "pub", "broker:1883")
	pub.publish("cmd/go", []byte("x"), 1, false)
	p, _ := dev.readPublish()
	dev.puback(p.packetID)
	waitUntil(t, func() bool { return db.state.InflightCount() == 0 })
	if err := db.state.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	db.crash()

	dev2 := rawConnect(t, db.net, "dev", "broker:1883")
	// Publish a sentinel; the FIRST frame dev2 sees must be the sentinel,
	// not a stale redelivery.
	pub2 := rawConnect(t, db.net, "pub2", "broker:1883")
	pub2.publish("cmd/sentinel", []byte("s"), 1, false)
	got, dup := dev2.readPublish()
	if got.topic != "cmd/sentinel" || dup {
		t.Fatalf("first frame after restart = %+v dup=%v, want sentinel", got, dup)
	}
}

func TestRetainedClearSurvivesRestart(t *testing.T) {
	db := newDurableBus(t)
	pub := rawConnect(t, db.net, "pub", "broker:1883")
	pub.publish("cfg/x", []byte("v1"), 0, true)
	pub.publish("cfg/x", nil, 0, true) // empty retained payload clears
	waitUntil(t, func() bool { return len(db.state.RetainedMessages()) == 0 })
	if err := db.state.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	db.crash()

	fresh := rawConnect(t, db.net, "fresh", "broker:1883")
	fresh.subscribe("cfg/#", 0)
	pub2 := rawConnect(t, db.net, "pub2", "broker:1883")
	pub2.publish("cfg/live", []byte("live"), 0, false)
	// The only delivery must be the live publish — no resurrected retained.
	if p, _ := fresh.readPublish(); p.topic != "cfg/live" {
		t.Fatalf("unexpected delivery %+v (cleared retained resurrected?)", p)
	}
}

func TestSessionStoreCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSessionStore(dir, SessionStoreOptions{})
	if err != nil {
		t.Fatalf("OpenSessionStore: %v", err)
	}
	s.checkpointEvery = 8
	for i := 0; i < 40; i++ {
		s.Retain(Message{Topic: "t/a", Payload: []byte{byte(i)}, QoS: 0, Retain: true})
	}
	s.AddSub("dev", "t/#", 1)
	s.RecordInflight("dev", 7, []byte{0x32, 0x00})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := OpenSessionStore(dir, SessionStoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	msgs := s2.RetainedMessages()
	if len(msgs) != 1 || msgs[0].Payload[0] != 39 {
		t.Fatalf("retained after compaction = %+v", msgs)
	}
	if subs := s2.Subs("dev"); subs["t/#"] != 1 {
		t.Fatalf("subs = %v", subs)
	}
	inf := s2.InflightFrames("dev")
	if len(inf) != 1 || inf[0].PID != 7 {
		t.Fatalf("inflight = %+v", inf)
	}
	if got := s2.MaxPID("dev"); got != 7 {
		t.Fatalf("MaxPID = %d, want 7", got)
	}
}

func TestSessionTakeoverKeepsDurableState(t *testing.T) {
	db := newDurableBus(t)
	dev := rawConnect(t, db.net, "dev", "broker:1883")
	dev.subscribe("a/#", 1)
	// Same client id reconnects (takeover) while the first is still up.
	dev2 := rawConnect(t, db.net, "dev", "broker:1883")
	// The persistent subscription was restored into the new session.
	pub := rawConnect(t, db.net, "pub", "broker:1883")
	pub.publish("a/x", []byte("after-takeover"), 0, false)
	if p, _ := dev2.readPublish(); string(p.payload) != "after-takeover" {
		t.Fatalf("takeover session missed delivery: %+v", p)
	}
}
