package conweb

import (
	"context"
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
	"repro/internal/sensors"
	"repro/internal/vclock"
)

func TestProtocolRoundTrips(t *testing.T) {
	c := wireContext{UserID: "u", DeviceID: "d", Activity: "walking", SampledAt: time.Now().UTC()}
	b, err := encodeContext(c)
	if err != nil {
		t.Fatalf("encodeContext: %v", err)
	}
	out, err := decodeContext(b)
	if err != nil || out.Activity != "walking" {
		t.Fatalf("round trip = %+v, %v", out, err)
	}
	if _, err := encodeContext(wireContext{UserID: "u", DeviceID: "d"}); err == nil {
		t.Fatal("empty context accepted")
	}
	if _, err := decodeContext([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}

	cfg := wireConfig{Modalities: []string{"activity", "city"}, IntervalMS: 500, DutyPercent: 50}
	cb, err := encodeConfig(cfg)
	if err != nil {
		t.Fatalf("encodeConfig: %v", err)
	}
	cOut, err := decodeConfig(cb)
	if err != nil || len(cOut.Modalities) != 2 || cOut.interval() != 500*time.Millisecond {
		t.Fatalf("round trip = %+v, %v", cOut, err)
	}
	bad := []wireConfig{
		{IntervalMS: 500, DutyPercent: 100},
		{Modalities: []string{"thermal"}, IntervalMS: 500, DutyPercent: 100},
		{Modalities: []string{"city"}, IntervalMS: 0, DutyPercent: 100},
		{Modalities: []string{"city"}, IntervalMS: 500, DutyPercent: 0},
		{Modalities: []string{"city"}, IntervalMS: 500, DutyPercent: 150},
	}
	for _, c := range bad {
		if _, err := encodeConfig(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestTopicParsing(t *testing.T) {
	dev, err := deviceFromContextTopic(contextTopic("d1"))
	if err != nil || dev != "d1" {
		t.Fatalf("deviceFromContextTopic = %q, %v", dev, err)
	}
	if _, err := deviceFromContextTopic("conweb/config/d1"); err == nil {
		t.Fatal("config topic accepted as context")
	}
}

func TestInference(t *testing.T) {
	mk := func(act sensors.Activity, audio sensors.AudioEnv) *sensors.Suite {
		p, err := sensors.NewProfile(geo.Stationary{At: geo.Point{Lat: 48.8566, Lon: 2.3522}},
			sensors.WithPhases(false, sensors.Phase{Activity: act, Audio: audio, Duration: time.Hour}))
		if err != nil {
			t.Fatalf("NewProfile: %v", err)
		}
		s, err := sensors.NewSuite(p, time.Now(), 1)
		if err != nil {
			t.Fatalf("NewSuite: %v", err)
		}
		return s
	}
	for _, tc := range []struct {
		act  sensors.Activity
		want string
	}{
		{sensors.ActivityStill, "still"},
		{sensors.ActivityWalking, "walking"},
		{sensors.ActivityRunning, "running"},
	} {
		s := mk(tc.act, sensors.AudioSilent)
		r, err := s.Sample(sensors.ModalityAccelerometer, time.Now())
		if err != nil {
			t.Fatalf("Sample: %v", err)
		}
		got, err := inferActivity(r.Payload.(sensors.AccelReading))
		if err != nil || got != tc.want {
			t.Fatalf("inferActivity(%v) = %q, %v", tc.act, got, err)
		}
	}
	noisy := mk(sensors.ActivityStill, sensors.AudioNoisy)
	r, err := noisy.Sample(sensors.ModalityMicrophone, time.Now())
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if got, err := inferAudio(r.Payload.(sensors.MicReading)); err != nil || got != "not silent" {
		t.Fatalf("inferAudio = %q, %v", got, err)
	}
	if _, err := inferActivity(sensors.AccelReading{}); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := inferAudio(sensors.MicReading{}); err == nil {
		t.Fatal("empty window accepted")
	}
	if city := inferCity(sensors.LocationReading{Lat: 48.8566, Lon: 2.3522}); city != "Paris" {
		t.Fatalf("inferCity = %q", city)
	}
	if city := inferCity(sensors.LocationReading{Lat: 0, Lon: 0}); city != "" {
		t.Fatalf("inferCity(ocean) = %q", city)
	}
}

// rig is a full ConWeb deployment without the middleware.
type rig struct {
	fabric *netsim.Network
	broker *mqtt.Broker
	server *ServerApp
	mobile *MobileApp
}

func newRig(t *testing.T, initial *wireConfig) *rig {
	t.Helper()
	clock := vclock.NewReal()
	fabric := netsim.NewNetwork(clock, 4)
	t.Cleanup(func() { _ = fabric.Close() })
	fabric.SetDefaultLink(netsim.Link{Latency: time.Millisecond})
	broker := mqtt.NewBroker(mqtt.BrokerOptions{Clock: clock})
	t.Cleanup(func() { _ = broker.Close() })
	l, err := fabric.Listen("server:1883")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() { _ = broker.Serve(l) }()

	srv, err := NewServerApp(broker)
	if err != nil {
		t.Fatalf("NewServerApp: %v", err)
	}
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
	app, err := NewMobileApp(MobileConfig{Device: dev, BrokerAddr: "server:1883", Initial: initial})
	if err != nil {
		t.Fatalf("NewMobileApp: %v", err)
	}
	t.Cleanup(func() { _ = app.Close() })
	if err := srv.Register("alice", "alice-phone"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	return &rig{fabric: fabric, broker: broker, server: srv, mobile: app}
}

func TestEndToEndContextFlowAndPage(t *testing.T) {
	r := newRig(t, &wireConfig{
		Modalities: []string{"activity", "audio", "city"}, IntervalMS: 30, DutyPercent: 100,
	})
	// Context flows up without any middleware.
	deadline := time.Now().Add(10 * time.Second)
	for {
		activity, audio, city, ok := r.server.Context("alice")
		if ok && activity == "walking" && audio == "not silent" && city == "Paris" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("context never complete: %q %q %q %v", activity, audio, city, ok)
		}
		time.Sleep(time.Millisecond)
	}

	// The page adapts to the walking context.
	srv := &http.Server{Handler: r.server.HTTPHandler()}
	l, err := r.fabric.Listen("conweb:80")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	client := &http.Client{
		Transport: &http.Transport{
			DialContext: func(_ context.Context, _, addr string) (net.Conn, error) {
				return r.fabric.Dial("browser", addr)
			},
			DisableKeepAlives: true,
		},
		Timeout: 10 * time.Second,
	}
	resp, err := client.Get("http://conweb:80/page?user=alice")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	page, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.Contains(string(page), "Paris reader") || !strings.Contains(string(page), "walk") {
		t.Fatalf("page = %s", page)
	}
	resp, err = client.Get("http://conweb:80/page?user=stranger")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	page, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(page), "default page") {
		t.Fatalf("stranger page = %s", page)
	}
	resp, err = client.Get("http://conweb:80/page")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing user = %d", resp.StatusCode)
	}
}

func TestRemoteReconfiguration(t *testing.T) {
	r := newRig(t, &wireConfig{
		Modalities: []string{"activity"}, IntervalMS: 30, DutyPercent: 100,
	})
	// Initially only activity flows.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if a, _, _, ok := r.server.Context("alice"); ok && a != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("activity context missing")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, city, _ := r.server.Context("alice"); city != "" {
		t.Fatalf("city context arrived before reconfiguration: %q", city)
	}
	// Server reconfigures the device to sample city instead.
	if err := r.server.Reconfigure("alice", wireConfig{
		Modalities: []string{"city"}, IntervalMS: 30, DutyPercent: 100,
	}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, _, city, _ := r.server.Context("alice"); city == "Paris" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("city context never arrived after reconfiguration")
		}
		time.Sleep(time.Millisecond)
	}
	cfg := r.mobile.Config()
	if len(cfg.Modalities) != 1 || cfg.Modalities[0] != "city" {
		t.Fatalf("applied config = %+v", cfg)
	}
	if err := r.server.Reconfigure("ghost", wireConfig{Modalities: []string{"city"}, IntervalMS: 30, DutyPercent: 100}); err == nil {
		t.Fatal("reconfigure of unregistered user accepted")
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewServerApp(nil); err == nil {
		t.Fatal("nil broker accepted")
	}
	if _, err := NewMobileApp(MobileConfig{}); err == nil {
		t.Fatal("missing device accepted")
	}
	broker := mqtt.NewBroker(mqtt.BrokerOptions{})
	defer broker.Close()
	srv, err := NewServerApp(broker)
	if err != nil {
		t.Fatalf("NewServerApp: %v", err)
	}
	if err := srv.Register("", "d"); err == nil {
		t.Fatal("empty user accepted")
	}
}
