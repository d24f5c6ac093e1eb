package sim

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/mobile"
	"repro/internal/device"
	"repro/internal/mqtt"
	"repro/internal/sensors"
)

// TestMalformedTriggerIgnored injects garbage on a device's trigger topic:
// the mobile middleware must survive and keep serving valid triggers.
func TestMalformedTriggerIgnored(t *testing.T) {
	s, err := New(fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	profile, err := StationaryProfile(s.Places, "Paris")
	if err != nil {
		t.Fatalf("StationaryProfile: %v", err)
	}
	h, err := s.AddUser("alice", profile)
	if err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	notified := make(chan string, 4)
	h.Mobile.OnNotify(func(m string) { notified <- m })

	topic := core.DeviceTriggerTopic("alice-phone")
	for _, junk := range [][]byte{
		[]byte("not json at all"),
		[]byte(`{"kind":"explode","device_id":"alice-phone"}`),
		[]byte(`{"kind":"sense","device_id":""}`),
		[]byte(`{"kind":"config","device_id":"alice-phone","config_xml":"bm90IHhtbA=="}`),
		{},
	} {
		if err := s.Shards[0].Broker.PublishLocal(mqtt.Message{Topic: topic, Payload: junk}); err != nil {
			t.Fatalf("PublishLocal: %v", err)
		}
	}
	// A valid notify trigger still lands afterwards.
	if err := s.Shards[0].Server.NotifyDevice("alice-phone", "still alive"); err != nil {
		t.Fatalf("NotifyDevice: %v", err)
	}
	select {
	case msg := <-notified:
		if msg != "still alive" {
			t.Fatalf("notify = %q", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("valid trigger lost after junk injection")
	}
}

// TestTriggerForWrongDeviceIgnored publishes a trigger addressed to a
// different device on alice's topic (defense-in-depth check).
func TestTriggerForWrongDeviceIgnored(t *testing.T) {
	s, err := New(fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	profile, err := StationaryProfile(s.Places, "Paris")
	if err != nil {
		t.Fatalf("StationaryProfile: %v", err)
	}
	h, err := s.AddUser("alice", profile)
	if err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	got := make(chan string, 1)
	h.Mobile.OnNotify(func(m string) { got <- m })
	spoofed := core.Trigger{Kind: core.TriggerNotify, DeviceID: "mallory-phone", Message: "spoof"}
	payload, err := spoofed.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := s.Shards[0].Broker.PublishLocal(mqtt.Message{
		Topic: core.DeviceTriggerTopic("alice-phone"), Payload: payload,
	}); err != nil {
		t.Fatalf("PublishLocal: %v", err)
	}
	select {
	case m := <-got:
		t.Fatalf("spoofed trigger delivered: %q", m)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestBrokerLossSurvivedByMobile kills the broker mid-stream: the mobile
// middleware keeps sampling, drops uploads without crashing, and closes
// cleanly.
func TestBrokerLossSurvivedByMobile(t *testing.T) {
	s, err := New(fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	profile, err := StationaryProfile(s.Places, "Paris")
	if err != nil {
		t.Fatalf("StationaryProfile: %v", err)
	}
	h, err := s.AddUser("alice", profile)
	if err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	if err := h.Mobile.CreateStream(core.StreamConfig{
		ID: "w", Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: 10 * time.Millisecond,
		Deliver: core.DeliverServer,
	}); err != nil {
		t.Fatalf("CreateStream: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := s.Shards[0].Broker.Close(); err != nil {
		t.Fatalf("broker Close: %v", err)
	}
	// Sampling continues and the manager doesn't wedge.
	before := h.Device.Meter().TotalMicroAh()
	time.Sleep(100 * time.Millisecond)
	after := h.Device.Meter().TotalMicroAh()
	if after <= before {
		t.Fatal("sampling stopped after broker loss")
	}
	if err := h.Mobile.Close(); err != nil {
		t.Fatalf("mobile Close after broker loss: %v", err)
	}
}

// TestPrivacyGatesRemoteStreams covers the remote-management + privacy
// interaction: a server-pushed stream for a denied modality stays paused
// until the user grants consent.
func TestPrivacyGatesRemoteStreams(t *testing.T) {
	s, err := New(fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	profile, err := StationaryProfile(s.Places, "Paris")
	if err != nil {
		t.Fatalf("StationaryProfile: %v", err)
	}
	privacy := core.NewPrivacyDescriptor(
		core.PrivacyPolicy{Modality: sensors.ModalityWiFi, AllowRaw: true, AllowClassified: true},
	) // location NOT allowed
	h, err := s.AddUserWithPrivacy("alice", profile, privacy)
	if err != nil {
		t.Fatalf("AddUserWithPrivacy: %v", err)
	}
	received := make(chan core.Item, 16)
	if err := s.Shards[0].Server.RegisterListener("loc", core.ListenerFunc(func(i core.Item) {
		received <- i
	})); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	if err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "loc", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityLocation, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: 15 * time.Millisecond,
	}); err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	// Stream config arrives but privacy pauses it: no data.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(h.Mobile.StreamConfigs()) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("config never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case i := <-received:
		t.Fatalf("privacy-denied stream leaked: %+v", i)
	case <-time.After(150 * time.Millisecond):
	}
	if st, err := h.Mobile.StreamStatus("loc"); err != nil || st != "paused" {
		t.Fatalf("status = %v, %v", st, err)
	}
	// The user grants consent: data flows without any new server action.
	privacy.Set(core.PrivacyPolicy{Modality: sensors.ModalityLocation, AllowRaw: true, AllowClassified: true})
	select {
	case <-received:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never resumed after consent")
	}
}

// TestReconnectingMobileResumesAfterBrokerRestart exercises the
// self-healing broker link: the manager keeps its trigger subscription
// across a broker restart and uploads resume.
func TestReconnectingMobileResumesAfterBrokerRestart(t *testing.T) {
	s, err := New(fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	profile, err := StationaryProfile(s.Places, "Paris")
	if err != nil {
		t.Fatalf("StationaryProfile: %v", err)
	}
	// Hand-build a reconnecting mobile manager on the sim fabric.
	dev, err := device.New(device.Config{
		ID: "r-phone", UserID: "r", Clock: s.Clock, Profile: profile, Seed: 77,
		Dial: func(addr string) (net.Conn, error) { return s.Fabric.Dial("r-phone", addr) },
	})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	if err := s.Shards[0].Server.RegisterDevice("r", "r-phone"); err != nil {
		t.Fatalf("RegisterDevice: %v", err)
	}
	mgr, err := mobile.New(mobile.Options{
		Device:      dev,
		Classifiers: s.Classifiers(),
		BrokerAddr:  s.Shards[0].BrokerAddr,
		Reconnect:   true,
	})
	if err != nil {
		t.Fatalf("mobile.New: %v", err)
	}
	defer mgr.Close()

	received := make(chan core.Item, 64)
	if err := s.Shards[0].Server.RegisterListener("rw", core.ListenerFunc(func(i core.Item) {
		received <- i
	})); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	if err := mgr.CreateStream(core.StreamConfig{
		ID: "rw", Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: 15 * time.Millisecond,
		Deliver: core.DeliverServer,
	}); err != nil {
		t.Fatalf("CreateStream: %v", err)
	}
	select {
	case <-received:
	case <-time.After(10 * time.Second):
		t.Fatal("no items before restart")
	}

	// Restart the broker on the same address. The sim's own broker owns
	// the listener, so rebuild both.
	if err := s.Shards[0].RestartBroker(); err != nil {
		t.Fatalf("RestartBroker: %v", err)
	}

	// Uploads resume through the redialed session, and triggers still
	// reach the device.
	drainItems(received)
	select {
	case <-received:
	case <-time.After(15 * time.Second):
		t.Fatal("no items after broker restart")
	}
	notified := make(chan string, 4)
	mgr.OnNotify(func(m string) { notified <- m })
	if err := s.Shards[0].Server.NotifyDevice("r-phone", "welcome back"); err != nil {
		t.Fatalf("NotifyDevice: %v", err)
	}
	select {
	case msg := <-notified:
		if msg != "welcome back" {
			t.Fatalf("notify = %q", msg)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("trigger subscription not replayed after restart")
	}
}

func drainItems(ch chan core.Item) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}
