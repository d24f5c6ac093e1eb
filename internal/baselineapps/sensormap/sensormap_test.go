package sensormap

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

func TestProtocolRoundTrips(t *testing.T) {
	trig := wireTrigger{ActionID: "a1", ActionType: "post", ActionText: "hi", UserID: "u", IssuedAt: time.Now().UTC()}
	b, err := encodeTrigger(trig)
	if err != nil {
		t.Fatalf("encodeTrigger: %v", err)
	}
	out, err := decodeTrigger(b)
	if err != nil {
		t.Fatalf("decodeTrigger: %v", err)
	}
	if out.ActionID != "a1" || out.UserID != "u" {
		t.Fatalf("round trip = %+v", out)
	}
	if _, err := encodeTrigger(wireTrigger{}); err == nil {
		t.Fatal("empty trigger accepted")
	}
	if _, err := decodeTrigger([]byte("junk")); err == nil {
		t.Fatal("garbage trigger accepted")
	}

	sample := wireSample{ActionID: "a1", UserID: "u", DeviceID: "d", Modality: "activity", Label: "walking", SampledAt: time.Now()}
	sb, err := encodeSample(sample)
	if err != nil {
		t.Fatalf("encodeSample: %v", err)
	}
	sOut, err := decodeSample(sb)
	if err != nil {
		t.Fatalf("decodeSample: %v", err)
	}
	if sOut.Label != "walking" {
		t.Fatalf("round trip = %+v", sOut)
	}
	bad := []wireSample{
		{UserID: "u", DeviceID: "d", Modality: "activity", Label: "x"},
		{ActionID: "a", UserID: "u", DeviceID: "d", Modality: "thermal"},
		{ActionID: "a", UserID: "u", DeviceID: "d", Modality: "activity"},
		{ActionID: "a", UserID: "u", DeviceID: "d", Modality: "location"},
	}
	for _, s := range bad {
		if _, err := encodeSample(s); err == nil {
			t.Errorf("sample %+v accepted", s)
		}
	}
}

func TestTopicParsing(t *testing.T) {
	dev, err := deviceFromDataTopic(dataTopic("phone-1"))
	if err != nil || dev != "phone-1" {
		t.Fatalf("deviceFromDataTopic = %q, %v", dev, err)
	}
	for _, bad := range []string{"x/y", "fbsensormap/trigger/d", "fbsensormap/data/"} {
		if _, err := deviceFromDataTopic(bad); err == nil {
			t.Errorf("topic %q accepted", bad)
		}
	}
}

func TestHandRolledClassifiers(t *testing.T) {
	profile, err := sensors.NewProfile(geo.Stationary{At: geo.Point{Lat: 48.8566, Lon: 2.3522}},
		sensors.WithPhases(false, sensors.Phase{
			Activity: sensors.ActivityRunning, Audio: sensors.AudioNoisy, Duration: time.Hour,
		}))
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	suite, err := sensors.NewSuite(profile, time.Now(), 1)
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	accel, err := suite.Sample(sensors.ModalityAccelerometer, time.Now())
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	label, err := classifyActivity(accel.Payload.(sensors.AccelReading), defaultActivityThresholds())
	if err != nil || label != "running" {
		t.Fatalf("classifyActivity = %q, %v", label, err)
	}
	mic, err := suite.Sample(sensors.ModalityMicrophone, time.Now())
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	audio, err := classifyAudio(mic.Payload.(sensors.MicReading), 0.05)
	if err != nil || audio != "not silent" {
		t.Fatalf("classifyAudio = %q, %v", audio, err)
	}
	if _, err := classifyActivity(sensors.AccelReading{}, defaultActivityThresholds()); err == nil {
		t.Fatal("empty accel window accepted")
	}
	if _, err := classifyAudio(sensors.MicReading{}, 0.05); err == nil {
		t.Fatal("empty mic window accepted")
	}
}

func TestCityTable(t *testing.T) {
	ct := defaultCityTable()
	if city := ct.lookup(48.8566, 2.3522); city != "Paris" {
		t.Fatalf("lookup(paris) = %q", city)
	}
	if city := ct.lookup(0, 0); city != "" {
		t.Fatalf("lookup(gulf of guinea) = %q", city)
	}
}

func TestPrivacySettings(t *testing.T) {
	p := defaultPrivacySettings()
	for _, m := range []string{"activity", "audio", "location"} {
		if !p.allows(m) {
			t.Errorf("default denies %s", m)
		}
	}
	if p.allows("contacts") {
		t.Fatal("unknown modality allowed")
	}
	p.allowAudio = false
	if p.allows("audio") {
		t.Fatal("opt-out ignored")
	}
}

// TestEndToEndWithoutMiddleware proves the baseline app is a working
// application, not dead comparison weight: an OSN action flows through the
// hand-rolled trigger path, sampling, classification, upload and join.
func TestEndToEndWithoutMiddleware(t *testing.T) {
	clock := vclock.NewReal()
	fabric := netsim.NewNetwork(clock, 3)
	defer fabric.Close()
	fabric.SetDefaultLink(netsim.Link{Latency: time.Millisecond})

	broker := mqtt.NewBroker(mqtt.BrokerOptions{Clock: clock})
	defer broker.Close()
	l, err := fabric.Listen("server:1883")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	go func() { _ = broker.Serve(l) }()

	srv, err := NewServerApp(broker, nil)
	if err != nil {
		t.Fatalf("NewServerApp: %v", err)
	}
	joined := make(chan Marker, 4)
	srv.OnJoin(func(m Marker) { joined <- m })

	profile, err := sensors.NewProfile(geo.Stationary{At: geo.Point{Lat: 48.8566, Lon: 2.3522}},
		sensors.WithPhases(false, sensors.Phase{
			Activity: sensors.ActivityWalking, Audio: sensors.AudioNoisy, Duration: time.Hour,
		}))
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	dev, err := device.New(device.Config{
		ID: "alice-phone", UserID: "alice", Clock: clock, Profile: profile, Seed: 1,
		Dial: func(addr string) (net.Conn, error) { return fabric.Dial("alice-phone", addr) },
	})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	app, err := NewMobileApp(MobileConfig{Device: dev, BrokerAddr: "server:1883"})
	if err != nil {
		t.Fatalf("NewMobileApp: %v", err)
	}
	defer app.Close()
	if err := srv.Register("alice", "alice-phone"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	action := osn.Action{ID: "fb-1", Network: "facebook", UserID: "alice",
		Type: osn.ActionPost, Text: "hello from paris", Time: clock.Now()}
	if err := srv.HandleOSNAction(action); err != nil {
		t.Fatalf("HandleOSNAction: %v", err)
	}

	select {
	case m := <-joined:
		if m.User != "alice" || m.Activity != "walking" || m.Audio != "not silent" || m.City != "Paris" {
			t.Fatalf("marker = %+v", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("marker never joined")
	}

	// Server-side query path.
	ms, err := srv.MarkersByUser("alice")
	if err != nil || len(ms) != 1 {
		t.Fatalf("MarkersByUser = %v, %v", ms, err)
	}
	if users := srv.UsersWithMarkers(); len(users) != 1 || users[0] != "alice" {
		t.Fatalf("UsersWithMarkers = %v", users)
	}
	// Mobile-side local map store.
	if lms := app.LocalMarkers(); len(lms) != 1 || lms[0].Activity != "walking" {
		t.Fatalf("LocalMarkers = %+v", lms)
	}
	// Unregistered user fails.
	if err := srv.HandleOSNAction(osn.Action{ID: "x", UserID: "ghost", Type: osn.ActionPost}); err == nil {
		t.Fatal("action for unregistered user accepted")
	}
}

func TestMobilePrivacyOptOut(t *testing.T) {
	clock := vclock.NewReal()
	fabric := netsim.NewNetwork(clock, 5)
	defer fabric.Close()
	broker := mqtt.NewBroker(mqtt.BrokerOptions{Clock: clock})
	defer broker.Close()
	l, err := fabric.Listen("server:1883")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	go func() { _ = broker.Serve(l) }()
	srv, err := NewServerApp(broker, nil)
	if err != nil {
		t.Fatalf("NewServerApp: %v", err)
	}

	profile, err := sensors.NewProfile(geo.Stationary{At: geo.Point{Lat: 48.8566, Lon: 2.3522}})
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	dev, err := device.New(device.Config{
		ID: "bob-phone", UserID: "bob", Clock: clock, Profile: profile, Seed: 2,
		Dial: func(addr string) (net.Conn, error) { return fabric.Dial("bob-phone", addr) },
	})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	privacy := privacySettings{allowActivity: true, allowAudio: true, allowLocation: false}
	app, err := NewMobileApp(MobileConfig{Device: dev, BrokerAddr: "server:1883", Privacy: &privacy})
	if err != nil {
		t.Fatalf("NewMobileApp: %v", err)
	}
	defer app.Close()
	if err := srv.Register("bob", "bob-phone"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := srv.HandleOSNAction(osn.Action{ID: "fb-2", UserID: "bob", Type: osn.ActionLike, Time: clock.Now()}); err != nil {
		t.Fatalf("HandleOSNAction: %v", err)
	}
	// Without location consent the marker can never complete; activity and
	// audio still arrive and sit in the partial-join state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(app.LocalMarkers()) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("local marker missing")
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Markers(); len(got) != 0 {
		t.Fatalf("markers completed despite location opt-out: %+v", got)
	}
	lm := app.LocalMarkers()[0]
	if lm.Lat != 0 || lm.Lon != 0 {
		t.Fatal("location sampled despite opt-out")
	}
}

func TestServerAppValidation(t *testing.T) {
	if _, err := NewServerApp(nil, nil); err == nil {
		t.Fatal("nil broker accepted")
	}
	broker := mqtt.NewBroker(mqtt.BrokerOptions{})
	defer broker.Close()
	srv, err := NewServerApp(broker, nil)
	if err != nil {
		t.Fatalf("NewServerApp: %v", err)
	}
	if err := srv.Register("", "d"); err == nil {
		t.Fatal("empty user accepted")
	}
	if err := srv.Register("u", ""); err == nil {
		t.Fatal("empty device accepted")
	}
}

func TestHTTPSurface(t *testing.T) {
	clock := vclock.NewReal()
	fabric := netsim.NewNetwork(clock, 6)
	defer fabric.Close()
	fabric.SetDefaultLink(netsim.Link{Latency: time.Millisecond})
	broker := mqtt.NewBroker(mqtt.BrokerOptions{Clock: clock})
	defer broker.Close()
	bl, err := fabric.Listen("server:1883")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer bl.Close()
	go func() { _ = broker.Serve(bl) }()

	srv, err := NewServerApp(broker, nil)
	if err != nil {
		t.Fatalf("NewServerApp: %v", err)
	}
	joined := make(chan Marker, 4)
	srv.OnJoin(func(m Marker) { joined <- m })

	hl, err := fabric.Listen("server:80")
	if err != nil {
		t.Fatalf("Listen http: %v", err)
	}
	defer hl.Close()
	web := &http.Server{Handler: srv.HTTPHandler()}
	go func() { _ = web.Serve(hl) }()
	defer web.Close()

	client := &http.Client{
		Transport: &http.Transport{
			DialContext: func(_ context.Context, _, addr string) (net.Conn, error) {
				return fabric.Dial("tester", addr)
			},
			DisableKeepAlives: true,
		},
		Timeout: 10 * time.Second,
	}
	base := "http://server:80"

	// Register over HTTP.
	resp, err := client.Post(base+"/fbsm/register", "application/json",
		strings.NewReader(`{"user_id":"alice","device_id":"alice-phone"}`))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	resp, err = client.Post(base+"/fbsm/register", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty register = %d", resp.StatusCode)
	}

	// Start the phone.
	profile, err := sensors.NewProfile(geo.Stationary{At: geo.Point{Lat: 48.8566, Lon: 2.3522}},
		sensors.WithPhases(false, sensors.Phase{
			Activity: sensors.ActivityStill, Audio: sensors.AudioSilent, Duration: time.Hour,
		}))
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	dev, err := device.New(device.Config{
		ID: "alice-phone", UserID: "alice", Clock: clock, Profile: profile, Seed: 8,
		Dial: func(addr string) (net.Conn, error) { return fabric.Dial("alice-phone", addr) },
	})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	app, err := NewMobileApp(MobileConfig{Device: dev, BrokerAddr: "server:1883"})
	if err != nil {
		t.Fatalf("NewMobileApp: %v", err)
	}
	defer app.Close()

	// Webhook over HTTP: the Facebook plug-in path.
	resp, err = client.Post(base+"/fbsm/action", "application/json",
		strings.NewReader(`{"id":"fb-h1","network":"facebook","user_id":"alice","type":"post","text":"via webhook"}`))
	if err != nil {
		t.Fatalf("action: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("action = %d", resp.StatusCode)
	}
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("webhook-triggered marker never joined")
	}
	// Unknown user and malformed payloads are rejected.
	resp, err = client.Post(base+"/fbsm/action", "application/json",
		strings.NewReader(`{"id":"x","user_id":"ghost","type":"post"}`))
	if err != nil {
		t.Fatalf("action: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost action = %d", resp.StatusCode)
	}
	resp, err = client.Post(base+"/fbsm/action", "application/json", strings.NewReader("junk"))
	if err != nil {
		t.Fatalf("action: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk action = %d", resp.StatusCode)
	}

	// Marker queries and the map rendering.
	resp, err = client.Get(base + "/fbsm/markers?user=alice")
	if err != nil {
		t.Fatalf("markers: %v", err)
	}
	var got []Marker
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decode markers: %v", err)
	}
	_ = resp.Body.Close()
	if len(got) != 1 || got[0].City != "Paris" {
		t.Fatalf("markers = %+v", got)
	}
	resp, err = client.Get(base + "/fbsm/markers?city=Paris")
	if err != nil {
		t.Fatalf("markers by city: %v", err)
	}
	got = nil
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	_ = resp.Body.Close()
	if len(got) != 1 {
		t.Fatalf("city markers = %+v", got)
	}
	resp, err = client.Get(base + "/fbsm/map")
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(body), "Paris:") || !strings.Contains(string(body), "via webhook") {
		t.Fatalf("map = %s", body)
	}
}

func TestConnectWithRetryFails(t *testing.T) {
	clock := vclock.NewReal()
	fabric := netsim.NewNetwork(clock, 7)
	defer fabric.Close()
	profile, err := sensors.NewProfile(geo.Stationary{At: geo.Point{Lat: 48.8566, Lon: 2.3522}})
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	dev, err := device.New(device.Config{
		ID: "d", UserID: "u", Clock: clock, Profile: profile, Seed: 1,
		Dial: func(addr string) (net.Conn, error) { return fabric.Dial("d", addr) },
	})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	if _, err := connectWithRetry(dev, "nowhere:1883", 2); err == nil {
		t.Fatal("connect to missing broker succeeded")
	}
}
