package mqtt

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vclock"
	"repro/internal/wal"
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
	state, err := OpenSessionStore(db.dir, wal.Options{})
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
	s, err := OpenSessionStore(dir, wal.Options{})
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

	s2, err := OpenSessionStore(dir, wal.Options{})
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

// snapshotBytes is what a checkpoint of s would write now.
func snapshotBytes(t testing.TB, s *SessionStore) []byte {
	t.Helper()
	var b bytes.Buffer
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sessionState is what a SessionStore answers, client by client.
func sessionState(s *SessionStore, clients ...string) string {
	out := fmt.Sprintf("retained %+v\n", s.RetainedMessages())
	for _, c := range clients {
		out += fmt.Sprintf("%s: subs %v inflight %+v max %d\n", c, s.Subs(c), s.InflightFrames(c), s.MaxPID(c))
	}
	return out
}

// sessionOps drives every op a journal holds: retain, unretain, sub,
// unsub, in-flight and ack. dev-c's packet ids wrap, so its MaxPID is not
// its highest id in flight, and dev-d has nothing left in flight: a
// snapshot keeps both MaxPIDs with an 'm' op.
func sessionOps(s *SessionStore, round int) {
	frame := func(pid int) []byte {
		return append([]byte{0x32, 0x00, 0xff, byte(pid)}, strings.Repeat("frame", pid%7)...)
	}
	s.Retain(Message{Topic: fmt.Sprintf("cfg/%d", round), Payload: []byte{0, byte(round), 0xff}, QoS: byte(round % 2), Retain: true})
	s.Retain(Message{Topic: "cfg/gone", Payload: []byte("x"), Retain: true})
	s.Unretain("cfg/gone")
	s.AddSub("dev-a", "cmd/#", 1)
	s.AddSub("dev-a", fmt.Sprintf("x/%d/+", round), 0)
	s.RemoveSub("dev-a", "x/1/+")
	s.AddSub("dev-b", "up/#", byte(round%2))
	for pid := 1; pid <= 4; pid++ {
		s.RecordInflight("dev-a", uint16(10*round+pid), frame(10*round+pid))
	}
	s.Ack("dev-a", uint16(10*round+2))
	s.RecordInflight("dev-c", 0xFFFF, frame(round))
	s.RecordInflight("dev-c", uint16(round), frame(round))
	s.Ack("dev-c", uint16(round))
	s.RecordInflight("dev-d", uint16(9+round), frame(9))
	s.Ack("dev-d", uint16(9+round))
}

// TestSessionStateByteIdenticalAcrossReopen takes every op through journal
// replay, snapshot plus tail, and a snapshot alone, and requires the
// reopened store to write the very same snapshot bytes and to give the
// same answers, frames and MaxPIDs included. Every record and snapshot on
// disk starts with the format version.
func TestSessionStateByteIdenticalAcrossReopen(t *testing.T) {
	clients := []string{"dev-a", "dev-b", "dev-c", "dev-d"}
	for _, midCheckpoint := range []bool{false, true} {
		dir := t.TempDir()
		s, err := OpenSessionStore(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sessionOps(s, 1)
		if midCheckpoint {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		sessionOps(s, 2)
		want, wantState := snapshotBytes(t, s), sessionState(s, clients...)
		if !strings.Contains(wantState, "dev-d: subs map[] inflight [] max 11") {
			t.Fatalf("dev-d lost its MaxPID before any reopen:\n%s", wantState)
		}
		for round := 0; round < 2; round++ {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			l, rec, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_ = l.Close()
			if (rec.Snapshot != nil) != (midCheckpoint || round > 0) || (len(rec.Records) == 0) != (round > 0) {
				t.Fatalf("checkpoint %v, reopen %d: snapshot %v, %d records", midCheckpoint, round, rec.Snapshot != nil, len(rec.Records))
			}
			for _, b := range append(rec.Records, rec.Snapshot) {
				if b != nil && b[0] != formatVersion {
					t.Fatalf("record begins %q, want format version %d", b[0], formatVersion)
				}
			}
			if s, err = OpenSessionStore(dir, wal.Options{}); err != nil {
				t.Fatal(err)
			}
			if got := snapshotBytes(t, s); !bytes.Equal(got, want) {
				t.Fatalf("checkpoint %v, reopen %d: snapshot differs\n got %x\nwant %x", midCheckpoint, round, got, want)
			}
			if got := sessionState(s, clients...); got != wantState {
				t.Fatalf("checkpoint %v, reopen %d: state differs\n got %s\nwant %s", midCheckpoint, round, got, wantState)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionStoreRefusesJSONDirectories opens session directories an
// earlier commit wrote in JSON (format version 1), one holding a journal
// and one a snapshot plus tail, and requires both to be refused by name.
func TestSessionStoreRefusesJSONDirectories(t *testing.T) {
	for _, name := range []string{"json_journal", "json_snapshot"} {
		dir := t.TempDir() // opening appends to the journal; keep testdata as it is
		files, err := os.ReadDir(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join("testdata", name, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := OpenSessionStore(dir, wal.Options{})
		if err == nil {
			s.Close()
			t.Fatalf("%s opened", name)
		}
		if !strings.Contains(err.Error(), "format version 1 (JSON)") {
			t.Errorf("%s: OpenSessionStore = %v, want an error naming format version 1 (JSON)", name, err)
		}
	}
}

// FuzzSessionReplay hands OpenSessionStore arbitrary bytes as a journal
// record and as a snapshot. Either the open fails with an error, or the
// recovered store writes a snapshot that, applied to an empty store,
// re-snapshots to the same bytes. It must never panic.
func FuzzSessionReplay(f *testing.F) {
	dir := f.TempDir()
	s, err := OpenSessionStore(dir, wal.Options{})
	if err != nil {
		f.Fatal(err)
	}
	sessionOps(s, 1)
	snap := snapshotBytes(f, s)
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		f.Fatal(err)
	}
	_ = l.Close()
	for _, r := range rec.Records {
		f.Add(r, false)
	}
	f.Add(snap, true)
	f.Add([]byte(`{"op":"sub","cl":"dev","f":"cmd/#","q":1}`), false)

	f.Fuzz(func(t *testing.T, data []byte, snapshot bool) {
		dir := t.TempDir()
		l, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if snapshot {
			err = l.Checkpoint(func(w io.Writer) error { _, err := w.Write(data); return err })
		} else {
			err = l.Append(data)
		}
		if cerr := l.Close(); err != nil || cerr != nil {
			t.Fatal(err, cerr)
		}
		s, err := OpenSessionStore(dir, wal.Options{})
		if err != nil {
			return
		}
		defer s.Close()
		a := snapshotBytes(t, s)
		again := newSessionStore()
		if err := again.apply(a); err != nil {
			t.Fatalf("snapshot of a recovered store does not apply: %v", err)
		}
		if b := snapshotBytes(t, again); !bytes.Equal(a, b) {
			t.Fatalf("snapshot applied differently\n got %x\nwant %x", b, a)
		}
	})
}
