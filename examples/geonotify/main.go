// Command geonotify reproduces the paper's Figure 2 scenario end to end:
// users A and B live in Paris; C, D and E live in Bordeaux; A is OSN
// friends with C and D. Every device streams its location through
// SenSocial. When C travels from Bordeaux to Paris, the server notices that
// one of A's friends has entered A's home town and pushes a notification to
// A's phone.
//
// Run: go run ./examples/geonotify
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geonotify:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1 virtual hour ≈ 3.6 s real: C's train ride fits in a coffee break.
	clock := vclock.NewScaled(time.Date(2014, 12, 8, 8, 0, 0, 0, time.UTC), 1000)
	deployment, err := sim.New(sim.Options{Clock: clock, Seed: 2})
	if err != nil {
		return err
	}
	defer deployment.Close()
	// One shard (the default): its server is the application's server side.
	srv := deployment.Shards[0].Server

	// Home towns per Figure 2.
	home := map[string]string{"A": "Paris", "B": "Paris", "C": "Bordeaux", "D": "Bordeaux", "E": "Bordeaux"}
	for user, city := range home {
		var profile *sensors.Profile
		if user == "C" {
			// C departs for Paris after 10 virtual minutes, at TGV speed.
			profile, err = sim.TravelProfile(deployment.Places, "Bordeaux", "Paris", 80, 10*time.Minute)
		} else {
			profile, err = sim.StationaryProfile(deployment.Places, city)
		}
		if err != nil {
			return err
		}
		if _, err := deployment.AddUser(user, profile); err != nil {
			return err
		}
	}
	for _, friend := range []string{"C", "D"} {
		if err := deployment.Graph.Befriend("A", friend); err != nil {
			return err
		}
	}
	if err := srv.SyncFriendships(deployment.Graph); err != nil {
		return err
	}

	// Location streams on every device, managed remotely from the server.
	for user := range home {
		if err := srv.CreateRemoteStream(core.StreamConfig{
			ID: "loc-" + user, DeviceID: user + "-phone", UserID: user,
			Modality: sensors.ModalityLocation, Granularity: core.GranularityClassified,
			Kind: core.KindContinuous, SampleInterval: 2 * time.Minute,
		}); err != nil {
			return err
		}
	}

	// A's phone shows notifications.
	notified := make(chan string, 8)
	handleA, _ := deployment.Handle("A")
	handleA.Mobile.OnNotify(func(msg string) { notified <- msg })

	// The application logic: watch everyone's classified location; when a
	// user enters a city that is the home town of one of their friends,
	// notify that friend. (~15 lines of app code on top of the middleware.)
	var mu sync.Mutex
	lastCity := map[string]string{}
	if err := srv.RegisterListener(core.Wildcard, core.ListenerFunc(func(i core.Item) {
		if i.Modality != sensors.ModalityLocation || i.Classified == "" {
			return
		}
		mu.Lock()
		prev := lastCity[i.UserID]
		lastCity[i.UserID] = i.Classified
		mu.Unlock()
		if prev == i.Classified {
			return
		}
		friends, err := srv.FriendsOf(i.UserID)
		if err != nil {
			return
		}
		for _, f := range friends {
			if home[f] != i.Classified {
				continue
			}
			devices, err := srv.DevicesOf(f)
			if err != nil {
				continue
			}
			msg := fmt.Sprintf("Your friend %s has arrived in %s!", i.UserID, i.Classified)
			for _, d := range devices {
				_ = srv.NotifyDevice(d, msg)
			}
		}
	})); err != nil {
		return err
	}

	fmt.Println("geonotify: C is travelling Bordeaux -> Paris (virtual TGV)...")
	select {
	case msg := <-notified:
		fmt.Printf("geonotify: A's phone buzzes: %q\n", msg)
	//lint:ignore wallclock real-time watchdog so a wedged demo fails instead of hanging
	case <-time.After(60 * time.Second):
		return fmt.Errorf("timed out waiting for the arrival notification")
	}
	// D never left Bordeaux and B is not C's friend: no spurious pings.
	select {
	case msg := <-notified:
		if msg != "" && msg != fmt.Sprintf("Your friend %s has arrived in %s!", "C", "Paris") {
			return fmt.Errorf("unexpected extra notification: %q", msg)
		}
	//lint:ignore wallclock brief real-time grace window to catch spurious notifications
	case <-time.After(500 * time.Millisecond):
	}
	fmt.Println("geonotify: done")
	return nil
}
