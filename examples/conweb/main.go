// Command conweb is the paper's second prototype application (§6.2): a
// contextual Web browser. The mobile side streams the user's context to the
// server through SenSocial; the Web server generates each page according to
// the user's most recent context (activity, audio environment, city), and
// the browser periodically re-fetches the page.
//
// Run: go run ./examples/conweb
package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "conweb:", err)
		os.Exit(1)
	}
}

func run() error {
	clock := vclock.NewScaled(time.Date(2014, 12, 8, 11, 0, 0, 0, time.UTC), 600)
	deployment, err := sim.New(sim.Options{Clock: clock, Seed: 9})
	if err != nil {
		return err
	}
	defer deployment.Close()
	// One shard (the default): its server is the application's server side.
	srv := deployment.Shards[0].Server

	// A user who walks through noisy Paris streets, then sits down
	// somewhere quiet: the page must adapt across the transition.
	profile, err := sim.StationaryProfile(deployment.Places, "Paris",
		sensors.WithPhases(false,
			sensors.Phase{Activity: sensors.ActivityWalking, Audio: sensors.AudioNoisy, Duration: 3 * time.Minute},
			sensors.Phase{Activity: sensors.ActivityStill, Audio: sensors.AudioSilent, Duration: 100 * time.Hour},
		))
	if err != nil {
		return err
	}
	if _, err := deployment.AddUser("alice", profile); err != nil {
		return err
	}

	// ConWeb's server application subscribes to the user's context through
	// SenSocial remote stream management: three classified streams.
	for _, modality := range []string{
		sensors.ModalityAccelerometer, sensors.ModalityMicrophone, sensors.ModalityLocation,
	} {
		if err := srv.CreateRemoteStream(core.StreamConfig{
			ID: "conweb-" + modality, DeviceID: "alice-phone", UserID: "alice",
			Modality: modality, Granularity: core.GranularityClassified,
			Kind: core.KindContinuous, SampleInterval: time.Minute,
		}); err != nil {
			return err
		}
	}

	// The ConWeb page generator: adapts content to the live context cache.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /page", func(w http.ResponseWriter, r *http.Request) {
		user := r.URL.Query().Get("user")
		ctx := srv.Context()
		activity := ctx[core.Key(user, core.CtxPhysicalActivity)]
		audio := ctx[core.Key(user, core.CtxAudioEnvironment)]
		city := ctx[core.Key(user, core.CtxPlace)]
		style, content := adaptPage(activity, audio)
		fmt.Fprintf(w, "<html><body style=%q><h1>%s news</h1><p>%s</p></body></html>",
			style, orUnknown(city), content)
	})
	l, err := deployment.Fabric.Listen("conweb:80")
	if err != nil {
		return err
	}
	webSrv := &http.Server{Handler: mux}
	go func() { _ = webSrv.Serve(l) }()
	defer webSrv.Close()

	// The ConWeb browser: re-fetch the page every virtual minute and show
	// how it adapts as the user's context changes.
	client := deployment.HTTPClient("alice-phone")
	fmt.Println("conweb: browser refreshing a context-adapted page (user walks, then sits)...")
	for i := 0; i < 6; i++ {
		clock.Sleep(time.Minute) // one virtual minute (100 ms real at 600x)
		resp, err := client.Get("http://conweb:80/page?user=alice")
		if err != nil {
			return err
		}
		page, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return err
		}
		fmt.Printf("  [refresh %d] %s\n", i+1, page)
	}
	return nil
}

// adaptPage chooses styling and content for the context, like the paper's
// examples (high-contrast colors outdoors, calmer content when still).
func adaptPage(activity, audio string) (style, content string) {
	switch {
	case activity == "walking" || activity == "running":
		return "background:#000;color:#ff0;font-size:x-large",
			"You're on the move — large type, high contrast, headlines only."
	case audio == "not silent":
		return "background:#fff;color:#000",
			"Noisy around? Here's the text-first edition."
	case activity == "still":
		return "background:#fdf6e3;color:#333",
			"Settled in — long reads and full media restored."
	default:
		return "background:#fff;color:#000", "Waiting for context..."
	}
}

func orUnknown(s string) string {
	if s == "" {
		return "Your"
	}
	return s
}
