// Command sensormap is the paper's first prototype application (§6.1),
// built on the SenSocial API: it traces users' Facebook activity, couples
// each action with the physical context sampled at that moment — classified
// activity, classified audio environment, raw location — and renders the
// joined records as map markers.
//
// The mobile side follows the paper's Figure 7 snippet: three streams
// filtered on facebook_activity == active.
//
// Run: go run ./examples/sensormap
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// marker is one entry on the sensor map: an OSN action joined with the
// physical context captured as it happened.
type marker struct {
	User     string
	Action   string
	Text     string
	Activity string
	Audio    string
	Place    string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sensormap:", err)
		os.Exit(1)
	}
}

func run() error {
	clock := vclock.NewScaled(time.Date(2014, 12, 8, 10, 0, 0, 0, time.UTC), 600)
	fbDelay := osn.DelayModel{Mean: 3 * time.Second, StdDev: time.Second, Min: time.Second}
	deployment, err := sim.New(sim.Options{
		Clock:         clock,
		Seed:          4,
		FacebookDelay: &fbDelay,
		PersistItems:  true,
	})
	if err != nil {
		return err
	}
	defer deployment.Close()
	// One shard (the default): its server is the application's server side.
	srv := deployment.Shards[0].Server

	// Two users in different cities, doing different things.
	users := map[string]struct {
		city  string
		phase sensors.Phase
	}{
		"alice": {"Paris", sensors.Phase{Activity: sensors.ActivityWalking, Audio: sensors.AudioNoisy, Duration: 100 * time.Hour}},
		"bob":   {"Bordeaux", sensors.Phase{Activity: sensors.ActivityStill, Audio: sensors.AudioSilent, Duration: 100 * time.Hour}},
	}
	for name, u := range users {
		profile, err := sim.StationaryProfile(deployment.Places, u.city, sensors.WithPhases(false, u.phase))
		if err != nil {
			return err
		}
		handle, err := deployment.AddUser(name, profile)
		if err != nil {
			return err
		}
		if err := createSensorMapStreams(handle); err != nil {
			return err
		}
	}

	// The server side joins incoming items by the OSN action they carry.
	var mu sync.Mutex
	joined := map[string]*marker{} // action id -> marker
	done := make(chan struct{}, 16)
	if err := srv.RegisterListener(core.Wildcard, core.ListenerFunc(func(i core.Item) {
		if i.Action == nil {
			return
		}
		mu.Lock()
		m, ok := joined[i.Action.ID]
		if !ok {
			m = &marker{User: i.UserID, Action: string(i.Action.Type), Text: i.Action.Text}
			joined[i.Action.ID] = m
		}
		switch i.Modality {
		case sensors.ModalityAccelerometer:
			m.Activity = i.Classified
		case sensors.ModalityMicrophone:
			m.Audio = i.Classified
		case sensors.ModalityLocation:
			var fix sensors.LocationReading
			if err := json.Unmarshal(i.Raw, &fix); err == nil {
				m.Place = deployment.Places.ReverseGeocode(fix.Point())
			}
			if m.Place == "" {
				m.Place = "somewhere"
			}
		}
		complete := m.Activity != "" && m.Audio != "" && m.Place != ""
		mu.Unlock()
		// Signal after unlocking so the channel send never stalls the
		// listener while it holds the join table's mutex.
		if complete {
			done <- struct{}{}
		}
	})); err != nil {
		return err
	}

	// Users act on Facebook.
	fmt.Println("sensormap: users are posting on Facebook...")
	posts := []struct{ user, text string }{
		{"alice", "What a goal! This match is amazing"},
		{"bob", "Deadline stress at the office, ugh"},
		{"alice", "Delicious dinner at a little restaurant in Paris"},
	}
	for _, p := range posts {
		if _, err := deployment.Facebook.Record(p.user, osn.ActionPost, p.text, clock.Now()); err != nil {
			return err
		}
	}
	for range posts {
		select {
		case <-done:
		//lint:ignore wallclock real-time watchdog so a wedged demo fails instead of hanging
		case <-time.After(15 * time.Second):
			return fmt.Errorf("timed out waiting for joined markers")
		}
	}

	// Render the map.
	mu.Lock()
	markers := make([]*marker, 0, len(joined))
	for _, m := range joined {
		markers = append(markers, m)
	}
	mu.Unlock()
	sort.Slice(markers, func(i, j int) bool { return markers[i].Text < markers[j].Text })
	fmt.Println("\nFacebook Sensor Map — markers (OSN action + physical context):")
	for _, m := range markers {
		sentiment, topics := srv.ClassifyActionText(osn.Action{Text: m.Text})
		fmt.Printf("  📍 %s @ %s\n     %s: %q (sentiment %s, topics %v)\n     context: %s, %s\n",
			m.User, m.Place, m.Action, m.Text, sentiment, topics, m.Activity, m.Audio)
	}
	return nil
}

// createSensorMapStreams is the Figure 7 pattern: three social-event
// streams filtered on Facebook activity.
func createSensorMapStreams(h *sim.Handle) error {
	filter, err := core.NewFilter(core.Condition{
		Modality: core.CtxFacebookActivity, Operator: core.OpEquals, Value: core.OSNActive,
	})
	if err != nil {
		return err
	}
	streams := []struct {
		modality    string
		granularity core.Granularity
	}{
		{sensors.ModalityAccelerometer, core.GranularityClassified},
		{sensors.ModalityMicrophone, core.GranularityClassified},
		{sensors.ModalityLocation, core.GranularityRaw},
	}
	for _, s := range streams {
		if err := h.Mobile.CreateStream(core.StreamConfig{
			ID:          "map-" + s.modality + "-" + h.UserID,
			Modality:    s.modality,
			Granularity: s.granularity,
			Kind:        core.KindSocialEvent,
			Filter:      filter,
			Deliver:     core.DeliverServer,
		}); err != nil {
			return err
		}
	}
	return nil
}
