package sim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

// TestRestartBrokerRecoversDurableSessions exercises the crash-recovery
// path of RestartBroker: with DurableDir set, the replacement broker must
// recover retained messages and persistent subscriptions from the session
// journal instead of starting empty.
func TestRestartBrokerRecoversDurableSessions(t *testing.T) {
	s, err := New(Options{
		Clock:      vclock.NewReal(),
		Seed:       1,
		MobileLink: &netsim.Link{},
		DurableDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	dial := func(host string) *mqtt.Client {
		conn, err := s.Fabric.Dial(host, s.Shards[0].BrokerAddr)
		if err != nil {
			t.Fatalf("Dial(%s): %v", host, err)
		}
		cli, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: host, Clock: s.Clock})
		if err != nil {
			t.Fatalf("Connect(%s): %v", host, err)
		}
		return cli
	}

	dev := dial("dur-dev")
	if err := dev.Subscribe("cfg/#", 1, func(mqtt.Message) {}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub := dial("dur-pub")
	if err := pub.Publish("cfg/x", []byte("v1"), 1, true); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	_ = pub.Close()
	// The broker PUBACKs before it routes, so Publish returning does not
	// mean the retained write has reached the journal's pending batch yet.
	// Wait for it, then fsync before the crash drops whatever is not yet
	// durable.
	for deadline := time.Now().Add(5 * time.Second); len(s.Shards[0].BrokerSessionStore().RetainedMessages()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("retained publish never reached the session journal")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Shards[0].BrokerSessionStore().Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	if err := s.Shards[0].RestartBroker(); err != nil {
		t.Fatalf("RestartBroker: %v", err)
	}

	// The dead broker's state must be back: a fresh subscriber receives the
	// recovered retained message...
	got := make(chan mqtt.Message, 1)
	fresh := dial("dur-fresh")
	defer fresh.Close()
	if err := fresh.Subscribe("cfg/#", 0, func(m mqtt.Message) {
		select {
		case got <- m:
		default:
		}
	}); err != nil {
		t.Fatalf("Subscribe after restart: %v", err)
	}
	select {
	case m := <-got:
		if m.Topic != "cfg/x" || string(m.Payload) != "v1" {
			t.Fatalf("recovered retained = %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retained message not recovered across broker crash")
	}
	// ...and the old client's subscription survived as session state.
	if subs := s.Shards[0].BrokerSessionStore().Subs("dur-dev"); subs["cfg/#"] != 1 {
		t.Fatalf("persistent subscription lost across crash: %v", subs)
	}
}

// TestDurableRegistryRecoversAcrossRuns closes a durable deployment and
// rebuilds one over the same directory: the user registry (documents and
// indexes) and the server's location write-memory must come back.
func TestDurableRegistryRecoversAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	paris := geo.Point{Lat: 48.8566, Lon: 2.3522}

	s1, err := New(Options{Clock: vclock.NewReal(), Seed: 1, MobileLink: &netsim.Link{}, DurableDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s1.Shards[0].Server.RegisterDevice("alice", "alice-phone"); err != nil {
		t.Fatalf("RegisterDevice: %v", err)
	}
	if err := s1.Shards[0].Server.UpdateUserLocation("alice", paris, "Paris"); err != nil {
		t.Fatalf("UpdateUserLocation: %v", err)
	}
	s1.Close()

	s2, err := New(Options{Clock: vclock.NewReal(), Seed: 1, MobileLink: &netsim.Link{}, DurableDir: dir})
	if err != nil {
		t.Fatalf("New over recovered dir: %v", err)
	}
	defer s2.Close()
	if _, city, err := s2.Shards[0].Server.UserLocation("alice"); err != nil || city != "Paris" {
		t.Fatalf("UserLocation after recovery = %q, %v", city, err)
	}
	if users, err := s2.Shards[0].Server.UsersInCity("Paris"); err != nil || len(users) != 1 || users[0] != "alice" {
		t.Fatalf("UsersInCity after recovery = %v, %v", users, err)
	}
	if devs, err := s2.Shards[0].Server.DevicesOf("alice"); err != nil || len(devs) != 1 || devs[0] != "alice-phone" {
		t.Fatalf("DevicesOf after recovery = %v, %v", devs, err)
	}
	// warmContexts restored the location write-memory: an identical fix is
	// recognized as unchanged and elided.
	if !s2.Shards[0].Server.Registry().LocationUnchanged("alice", paris, "Paris") {
		t.Fatal("location write-memory not warmed from the recovered registry")
	}
}

// durablePooledTraceRun is deterministicPooledTraceRun with durability
// enabled: same scenario, same seed, journaling to a fresh directory.
func durablePooledTraceRun(t *testing.T) string {
	t.Helper()
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	s, err := New(Options{
		Clock:      clock,
		Seed:       7,
		MobileLink: &netsim.Link{},
		Pool: PoolOptions{
			Connections:    1,
			FrameSize:      32,
			SampleInterval: time.Minute,
			UploadBatch:    2,
		},
		IngestShards:  1,
		TraceCapacity: 4096,
		DurableDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	const devices = 12
	if err := s.AddDevices(devices); err != nil {
		t.Fatalf("AddDevices: %v", err)
	}
	if err := s.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	if err := s.Pool.WaitReady(30 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	const steps = 3
	for i := 1; i <= steps; i++ {
		clock.Advance(2 * time.Minute)
		quiesce(t, s)
		if got, want := ingested(s, "sensocial_ingest_processed_total"), uint64(devices*2*i); got != want {
			t.Fatalf("step %d: processed %d items, want %d", i, got, want)
		}
	}
	s.Close()
	var buf bytes.Buffer
	if err := s.Shards[0].Tracer.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.String()
}

// TestDurableTraceByteIdentical is the durability determinism acceptance
// check: enabling the journals must not perturb the clean-run trace at
// all. Two same-seed durable runs must match each other byte for byte,
// and both must match the in-memory run of the identical scenario.
func TestDurableTraceByteIdentical(t *testing.T) {
	first := durablePooledTraceRun(t)
	second := durablePooledTraceRun(t)
	if first != second {
		t.Fatalf("durable trace dumps differ across same-seed runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}
	plain := deterministicPooledTraceRun(t)
	if first != plain {
		t.Fatalf("durability perturbed the clean-run trace:\n--- durable ---\n%s\n--- in-memory ---\n%s", first, plain)
	}
	for _, span := range []string{"mqtt.route", "ingest.enqueue", "ingest.process"} {
		if !strings.Contains(first, span) {
			t.Fatalf("durable trace missing %s spans:\n%s", span, first)
		}
	}
}
