// Command sensocial-mobile runs one simulated phone with the SenSocial
// mobile middleware as a standalone process, connecting to a
// sensocial-server instance over real TCP. Together they form the paper's
// distributed deployment with two actual processes on a network.
//
// Usage (with sensocial-server running):
//
//	sensocial-mobile -user alice -server 127.0.0.1 \
//	    -mqtt 127.0.0.1:1883 -http 127.0.0.1:8080 -city Paris
//
// The agent registers its device over HTTP, starts a classified activity
// stream and a social event-based location stream, prints every locally
// observed item, and serves remote stream management until interrupted.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/core/mobile"
	"repro/internal/device"
	"repro/internal/geo"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

func main() {
	user := flag.String("user", "alice", "user id")
	mqttAddr := flag.String("mqtt", "127.0.0.1:1883", "server MQTT address")
	httpAddr := flag.String("http", "127.0.0.1:8080", "server HTTP address")
	city := flag.String("city", "Paris", "home city of the simulated user")
	activity := flag.String("activity", "walking", "ground-truth activity: still|walking|running")
	interval := flag.Duration("interval", 10*time.Second, "continuous sampling interval")
	flag.Parse()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(*user, *mqttAddr, *httpAddr, *city, *activity, *interval, stop); err != nil {
		fmt.Fprintln(os.Stderr, "sensocial-mobile:", err)
		os.Exit(1)
	}
}

// run registers the device, streams until stop yields or is closed, and
// shuts the agent down.
func run(user, mqttAddr, httpAddr, city, activity string, interval time.Duration, stop <-chan os.Signal) error {
	places := geo.EuropeanCities()
	place, ok := places.Lookup(city)
	if !ok {
		return fmt.Errorf("unknown city %q (known: %s)", city, strings.Join(places.Names(), ", "))
	}
	var act sensors.Activity
	switch activity {
	case "still":
		act = sensors.ActivityStill
	case "walking":
		act = sensors.ActivityWalking
	case "running":
		act = sensors.ActivityRunning
	default:
		return fmt.Errorf("unknown activity %q", activity)
	}
	profile, err := sensors.NewProfile(geo.Stationary{At: place.Region.Center},
		sensors.WithPhases(false, sensors.Phase{
			Activity: act, Audio: sensors.AudioNoisy, Duration: 10000 * time.Hour,
		}))
	if err != nil {
		return err
	}

	deviceID := user + "-phone"
	dev, err := device.New(device.Config{
		ID:      deviceID,
		UserID:  user,
		Clock:   vclock.NewReal(),
		Profile: profile,
		Dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		},
		Seed: int64(len(user)) * 7919,
	})
	if err != nil {
		return err
	}

	// Register the device with the server over HTTP (the PHP registration
	// script's role).
	status, err := register(httpAddr, user, deviceID)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	fmt.Printf("sensocial-mobile: registered %s (%s)\n", deviceID, status)

	classifiers, err := classify.DefaultRegistry(places)
	if err != nil {
		return err
	}
	mgr, err := mobile.New(mobile.Options{
		Device:      dev,
		Classifiers: classifiers,
		BrokerAddr:  mqttAddr,
		HTTPAddr:    httpAddr,
		Reconnect:   true,
	})
	if err != nil {
		return err
	}
	defer func() { _ = mgr.Close() }()

	// Two streams out of the box; the server can add more remotely.
	if err := mgr.CreateStream(core.StreamConfig{
		ID: "activity-" + deviceID, Modality: sensors.ModalityAccelerometer,
		Granularity: core.GranularityClassified, Kind: core.KindContinuous,
		SampleInterval: interval, Deliver: core.DeliverServer,
	}); err != nil {
		return err
	}
	if err := mgr.CreateStream(core.StreamConfig{
		ID: "osn-loc-" + deviceID, Modality: sensors.ModalityLocation,
		Granularity: core.GranularityClassified, Kind: core.KindSocialEvent,
		Deliver: core.DeliverServer,
	}); err != nil {
		return err
	}
	if err := mgr.RegisterListener(core.Wildcard, core.ListenerFunc(func(i core.Item) {
		fmt.Printf("  local item: %s -> %s\n", i.StreamID, i.Classified)
	})); err != nil {
		return err
	}
	mgr.OnNotify(func(msg string) {
		fmt.Printf("  notification: %s\n", msg)
	})

	fmt.Printf("sensocial-mobile: %s streaming to %s (Ctrl-C to stop)\n", deviceID, mqttAddr)
	<-stop
	fmt.Printf("sensocial-mobile: shutting down; battery used %.1f µAh\n",
		dev.Meter().TotalMicroAh())
	return nil
}

// register posts the device's registration and returns the response status.
func register(httpAddr, user, deviceID string) (string, error) {
	body, err := json.Marshal(map[string]string{"user_id": user, "device_id": deviceID})
	if err != nil {
		return "", err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post("http://"+httpAddr+"/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("server said %q", resp.Status)
	}
	return resp.Status, nil
}
