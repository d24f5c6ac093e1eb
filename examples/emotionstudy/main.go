// Command emotionstudy runs the social-science study the paper's
// introduction motivates: "captures emotions through the sentiment analysis
// of OSN posts, senses the physical context as the relevant posts are made,
// and maps the data to the social network in order to not only examine
// single user's emotions, but also analyze large-scale emotion propagation,
// and various factors that might drive it."
//
// Built on SenSocial's social event-based streams (physical context coupled
// to each post) and the behavior package's propagation analysis.
//
// Run: go run ./examples/emotionstudy
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "emotionstudy:", err)
		os.Exit(1)
	}
}

func run() error {
	clock := vclock.NewScaled(time.Date(2014, 12, 8, 14, 0, 0, 0, time.UTC), 1200)
	fbDelay := osn.DelayModel{Mean: 5 * time.Second, StdDev: time.Second, Min: time.Second}
	deployment, err := sim.New(sim.Options{Clock: clock, Seed: 11, FacebookDelay: &fbDelay})
	if err != nil {
		return err
	}
	defer deployment.Close()
	// One shard (the default): its server is the application's server side.
	srv := deployment.Shards[0].Server

	// A small cohort: two friend clusters with different moods and
	// physical routines.
	cohort := map[string]struct {
		city     string
		activity sensors.Activity
	}{
		"anne":  {"Paris", sensors.ActivityWalking},
		"bruno": {"Paris", sensors.ActivityWalking},
		"clara": {"Bordeaux", sensors.ActivityStill},
		"denis": {"Bordeaux", sensors.ActivityStill},
	}
	for name, cfg := range cohort {
		profile, err := sim.StationaryProfile(deployment.Places, cfg.city,
			sensors.WithPhases(false, sensors.Phase{
				Activity: cfg.activity, Audio: sensors.AudioNoisy, Duration: 100 * time.Hour,
			}))
		if err != nil {
			return err
		}
		h, err := deployment.AddUser(name, profile)
		if err != nil {
			return err
		}
		// One social event-based stream per participant: classify activity
		// at the moment of each OSN post.
		if err := h.Mobile.CreateStream(core.StreamConfig{
			ID:          "study-" + name,
			Modality:    sensors.ModalityAccelerometer,
			Granularity: core.GranularityClassified,
			Kind:        core.KindSocialEvent,
			Deliver:     core.DeliverServer,
		}); err != nil {
			return err
		}
	}
	for _, pair := range [][2]string{{"anne", "bruno"}, {"clara", "denis"}} {
		if err := deployment.Graph.Befriend(pair[0], pair[1]); err != nil {
			return err
		}
	}

	// The study pipeline: every coupled item feeds the propagation study.
	study, err := behavior.NewPropagationStudy(deployment.Graph)
	if err != nil {
		return err
	}
	observed := make(chan struct{}, 64)
	srv.OnItem(func(i core.Item) {
		if i.Action == nil {
			return
		}
		study.Observe(*i.Action, i.Classified)
		observed <- struct{}{}
	})

	// The cohort posts: moods travel within each friend cluster.
	posts := []struct {
		user, text string
		after      time.Duration
	}{
		{"anne", "What a wonderful amazing morning in Paris", 0},
		{"bruno", "So happy, this city is brilliant", 4 * time.Minute},
		{"clara", "Terrible awful weather again", 6 * time.Minute},
		{"denis", "Feeling sad and miserable too", 9 * time.Minute},
		{"anne", "Great coffee, perfect day", 12 * time.Minute},
	}
	start := clock.Now()
	for _, p := range posts {
		target := start.Add(p.after)
		if wait := target.Sub(clock.Now()); wait > 0 {
			clock.Sleep(wait)
		}
		if _, err := deployment.Facebook.Record(p.user, osn.ActionPost, p.text, clock.Now()); err != nil {
			return err
		}
	}
	for range posts {
		select {
		case <-observed:
		//lint:ignore wallclock real-time watchdog so a wedged demo fails instead of hanging
		case <-time.After(20 * time.Second):
			return fmt.Errorf("timed out waiting for coupled observations")
		}
	}

	// Analysis.
	fmt.Printf("emotionstudy: %d sentiment events captured with physical context\n\n", study.EventCount())
	cascades := study.Cascades(30 * time.Minute)
	fmt.Printf("emotion cascades along friendship edges (30 min window):\n")
	for _, c := range cascades {
		fmt.Printf("  %s --%s--> %s after %s\n", c.From, c.Sentiment, c.To, c.Lag.Round(time.Second))
	}
	if score, err := study.Assortativity(30 * time.Minute); err == nil {
		fmt.Printf("\nmood assortativity (friends vs strangers): %+.2f\n", score)
	}
	fmt.Println("\nsentiment by physical context at posting time:")
	for _, f := range study.ContextFactor("positive") {
		fmt.Printf("  while %-8s positive rate %.0f%% (n=%d)\n", f.Activity+":", f.PositiveRate*100, f.Support)
	}
	return nil
}
