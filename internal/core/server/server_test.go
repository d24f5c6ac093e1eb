package server_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// fastSim builds a simulation with millisecond-scale delays so end-to-end
// paths complete quickly on the real clock.
func fastSim(t *testing.T, opts ...func(*sim.Options)) *sim.Simulation {
	t.Helper()
	o := sim.Options{
		Clock:             vclock.NewReal(),
		Seed:              1,
		MobileLink:        &netsim.Link{Latency: time.Millisecond},
		FacebookDelay:     &osn.DelayModel{Mean: 20 * time.Millisecond, StdDev: 2 * time.Millisecond, Min: time.Millisecond},
		TwitterPollPeriod: 20 * time.Millisecond,
	}
	for _, f := range opts {
		f(&o)
	}
	s, err := sim.New(o)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func addStillUser(t *testing.T, s *sim.Simulation, user, city string, act sensors.Activity) *sim.Handle {
	t.Helper()
	profile, err := sim.StationaryProfile(s.Places, city,
		sensors.WithPhases(false, sensors.Phase{Activity: act, Audio: sensors.AudioNoisy, Duration: 100 * time.Hour}))
	if err != nil {
		t.Fatalf("StationaryProfile: %v", err)
	}
	h, err := s.AddUser(user, profile)
	if err != nil {
		t.Fatalf("AddUser(%s): %v", user, err)
	}
	return h
}

type itemSink struct {
	mu    sync.Mutex
	items []core.Item
}

func (s *itemSink) OnItem(i core.Item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = append(s.items, i)
}

func (s *itemSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

func (s *itemSink) snapshot() []core.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.Item(nil), s.items...)
}

func (s *itemSink) waitFor(t *testing.T, n int) []core.Item {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if s.count() >= n {
			return s.snapshot()
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d items, want %d", s.count(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRemoteStreamEndToEnd(t *testing.T) {
	s := fastSim(t)
	addStillUser(t, s, "alice", "Paris", sensors.ActivityWalking)

	sink := &itemSink{}
	if err := s.Shards[0].Server.RegisterListener("loc-alice", sink); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	// Server-side remote stream creation: config XML travels over MQTT,
	// the device instantiates the stream and uploads items.
	err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "loc-alice", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityLocation, Granularity: core.GranularityClassified,
		Kind: core.KindContinuous, SampleInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	items := sink.waitFor(t, 2)
	if items[0].Classified != "Paris" {
		t.Fatalf("classified = %q, want Paris", items[0].Classified)
	}
	if items[0].DeviceID != "alice-phone" || items[0].UserID != "alice" {
		t.Fatalf("identity = %+v", items[0])
	}
	// The registry tracked the user's city from the stream.
	waitUntil(t, func() bool {
		_, city, err := s.Shards[0].Server.UserLocation("alice")
		return err == nil && city == "Paris"
	})
}

func TestDestroyRemoteStreamStopsFlow(t *testing.T) {
	s := fastSim(t)
	h := addStillUser(t, s, "alice", "Paris", sensors.ActivityStill)
	sink := &itemSink{}
	if err := s.Shards[0].Server.RegisterListener("w1", sink); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "w1", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	sink.waitFor(t, 1)
	if err := s.Shards[0].Server.DestroyRemoteStream("w1"); err != nil {
		t.Fatalf("DestroyRemoteStream: %v", err)
	}
	// The device-side stream disappears.
	waitUntil(t, func() bool { return len(h.Mobile.StreamConfigs()) == 0 })
	if err := s.Shards[0].Server.DestroyRemoteStream("w1"); err == nil {
		t.Fatal("double destroy accepted")
	}
}

func TestOSNActionTriggersSocialEventStream(t *testing.T) {
	s := fastSim(t)
	addStillUser(t, s, "alice", "Paris", sensors.ActivityWalking)

	sink := &itemSink{}
	if err := s.Shards[0].Server.RegisterListener("se", sink); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "se", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified,
		Kind: core.KindSocialEvent,
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	// Give the config trigger time to land before acting.
	waitUntil(t, func() bool {
		h, _ := s.Handle("alice")
		return len(h.Mobile.StreamConfigs()) == 1
	})
	if _, err := s.Facebook.Record("alice", osn.ActionPost, "What a goal! This match is amazing", s.Clock.Now()); err != nil {
		t.Fatalf("Record: %v", err)
	}
	items := sink.waitFor(t, 1)
	it := items[0]
	if it.Action == nil || it.Action.UserID != "alice" || it.Action.Type != osn.ActionPost {
		t.Fatalf("action = %+v", it.Action)
	}
	if it.Classified != "walking" {
		t.Fatalf("classified = %q", it.Classified)
	}
	if it.Context[core.CtxFacebookActivity] != core.OSNActive {
		t.Fatalf("context = %v", it.Context)
	}
	// OSN text classifiers work on the carried action.
	sentiment, topics := s.Shards[0].Server.ClassifyActionText(*it.Action)
	if sentiment != "positive" {
		t.Fatalf("sentiment = %q", sentiment)
	}
	if len(topics) != 1 || topics[0] != "football" {
		t.Fatalf("topics = %v", topics)
	}
}

func TestTwitterPollTriggersToo(t *testing.T) {
	s := fastSim(t)
	addStillUser(t, s, "bob", "Bordeaux", sensors.ActivityStill)
	sink := &itemSink{}
	if err := s.Shards[0].Server.RegisterListener("se", sink); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "se", DeviceID: "bob-phone", UserID: "bob",
		Modality: sensors.ModalityMicrophone, Granularity: core.GranularityClassified,
		Kind: core.KindSocialEvent,
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	waitUntil(t, func() bool {
		h, _ := s.Handle("bob")
		return len(h.Mobile.StreamConfigs()) == 1
	})
	if _, err := s.Twitter.Record("bob", osn.ActionTweet, "Flight delayed again, so tired of this airport", s.Clock.Now()); err != nil {
		t.Fatalf("Record: %v", err)
	}
	items := sink.waitFor(t, 1)
	if items[0].Action == nil || items[0].Action.Network != "twitter" {
		t.Fatalf("action = %+v", items[0].Action)
	}
}

func TestCrossUserFilterOnServer(t *testing.T) {
	s := fastSim(t)
	addStillUser(t, s, "alice", "Paris", sensors.ActivityStill)
	addStillUser(t, s, "bob", "Paris", sensors.ActivityStill) // bob is STILL

	// Alice's WiFi stream conditioned on bob walking: nothing flows while
	// bob is still (the paper's "sends user's GPS data only when another
	// user is walking" example).
	sink := &itemSink{}
	if err := s.Shards[0].Server.RegisterListener("x1", sink); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "x1", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: 20 * time.Millisecond,
		Filter: core.Filter{Conditions: []core.Condition{
			{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals, Value: "walking", UserID: "bob"},
		}},
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	// Bob's activity must be known to the server: stream it.
	err = s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "bob-act", DeviceID: "bob-phone", UserID: "bob",
		Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified,
		Kind: core.KindContinuous, SampleInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	waitUntil(t, func() bool {
		return s.Shards[0].Server.Context()[core.Key("bob", core.CtxPhysicalActivity)] == "still"
	})
	time.Sleep(100 * time.Millisecond)
	if sink.count() != 0 {
		t.Fatalf("cross-user filter leaked %d items while bob still", sink.count())
	}
}

func TestCrossUserFilterPassesWhenOtherUserWalks(t *testing.T) {
	s := fastSim(t)
	addStillUser(t, s, "alice", "Paris", sensors.ActivityStill)
	addStillUser(t, s, "bob", "Paris", sensors.ActivityWalking) // bob WALKS

	sink := &itemSink{}
	if err := s.Shards[0].Server.RegisterListener("x1", sink); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "bob-act", DeviceID: "bob-phone", UserID: "bob",
		Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified,
		Kind: core.KindContinuous, SampleInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	waitUntil(t, func() bool {
		return s.Shards[0].Server.Context()[core.Key("bob", core.CtxPhysicalActivity)] == "walking"
	})
	err = s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "x1", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: 20 * time.Millisecond,
		Filter: core.Filter{Conditions: []core.Condition{
			{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals, Value: "walking", UserID: "bob"},
		}},
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	sink.waitFor(t, 1)
}

func TestRegistryAndQueries(t *testing.T) {
	s := fastSim(t)
	addStillUser(t, s, "alice", "Paris", sensors.ActivityStill)
	addStillUser(t, s, "bob", "Paris", sensors.ActivityStill)
	addStillUser(t, s, "carol", "Bordeaux", sensors.ActivityStill)
	if err := s.Graph.Befriend("alice", "carol"); err != nil {
		t.Fatalf("Befriend: %v", err)
	}
	if err := s.Shards[0].Server.SyncFriendships(s.Graph); err != nil {
		t.Fatalf("SyncFriendships: %v", err)
	}
	friends, err := s.Shards[0].Server.FriendsOf("alice")
	if err != nil {
		t.Fatalf("FriendsOf: %v", err)
	}
	if len(friends) != 1 || friends[0] != "carol" {
		t.Fatalf("friends = %v", friends)
	}
	// Feed locations via direct registry updates (unit-level).
	paris, _ := s.Places.Lookup("Paris")
	bordeaux, _ := s.Places.Lookup("Bordeaux")
	for user, pt := range map[string]geo.Point{
		"alice": paris.Region.Center,
		"bob":   paris.Region.Center,
		"carol": bordeaux.Region.Center,
	} {
		city := s.Places.ReverseGeocode(pt)
		if err := s.Shards[0].Server.UpdateUserLocation(user, pt, city); err != nil {
			t.Fatalf("UpdateUserLocation(%s): %v", user, err)
		}
	}
	inParis, err := s.Shards[0].Server.UsersInCity("Paris")
	if err != nil {
		t.Fatalf("UsersInCity: %v", err)
	}
	if strings.Join(inParis, ",") != "alice,bob" {
		t.Fatalf("UsersInCity = %v", inParis)
	}
	near, err := s.Shards[0].Server.UsersNear(paris.Region.Center, 20000)
	if err != nil {
		t.Fatalf("UsersNear: %v", err)
	}
	if strings.Join(near, ",") != "alice,bob" {
		t.Fatalf("UsersNear = %v", near)
	}
	devs, err := s.Shards[0].Server.DevicesOf("carol")
	if err != nil || len(devs) != 1 || devs[0] != "carol-phone" {
		t.Fatalf("DevicesOf = %v, %v", devs, err)
	}
	if err := s.Shards[0].Server.UpdateUserLocation("ghost", paris.Region.Center, "Paris"); err == nil {
		t.Fatal("location update for unknown user accepted")
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := server.New(server.Options{}); err == nil {
		t.Fatal("missing clock accepted")
	}
	if _, err := server.New(server.Options{Clock: vclock.NewReal()}); err == nil {
		t.Fatal("missing broker accepted")
	}
	s := fastSim(t)
	if err := s.Shards[0].Server.RegisterUser(""); err == nil {
		t.Fatal("empty user accepted")
	}
	if err := s.Shards[0].Server.RegisterDevice("u", ""); err == nil {
		t.Fatal("empty device accepted")
	}
	if err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{ID: "x"}); err == nil {
		t.Fatal("invalid remote stream accepted")
	}
	if err := s.Shards[0].Server.SyncFriendships(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCreateAggregatorOnServer(t *testing.T) {
	s := fastSim(t)
	addStillUser(t, s, "alice", "Paris", sensors.ActivityStill)
	addStillUser(t, s, "bob", "Bordeaux", sensors.ActivityStill)
	agg, err := s.Shards[0].Server.CreateAggregator("join", "wa", "wb")
	if err != nil {
		t.Fatalf("CreateAggregator: %v", err)
	}
	sink := &itemSink{}
	if err := agg.Register(sink); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for _, u := range []string{"alice", "bob"} {
		id := "w" + u[:1]
		if err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
			ID: id, DeviceID: u + "-phone", UserID: u,
			Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
			Kind: core.KindContinuous, SampleInterval: 20 * time.Millisecond,
		}); err != nil {
			t.Fatalf("CreateRemoteStream(%s): %v", id, err)
		}
	}
	items := sink.waitFor(t, 4)
	users := map[string]bool{}
	for _, it := range items {
		if it.AggregateID != "join" {
			t.Fatalf("aggregate id = %q", it.AggregateID)
		}
		users[it.UserID] = true
	}
	if !users["alice"] || !users["bob"] {
		t.Fatalf("aggregated users = %v", users)
	}
	if agg.Count() < 4 {
		t.Fatalf("Count = %d", agg.Count())
	}
	if _, err := s.Shards[0].Server.CreateAggregator(""); err == nil {
		t.Fatal("empty aggregator id accepted")
	}
}

func TestPersistItemsToStore(t *testing.T) {
	s := fastSim(t, func(o *sim.Options) { o.PersistItems = true })
	addStillUser(t, s, "alice", "Paris", sensors.ActivityWalking)
	if err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "act", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified,
		Kind: core.KindContinuous, SampleInterval: 20 * time.Millisecond,
	}); err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	waitUntil(t, func() bool {
		return s.Shards[0].Server.Store().Collection("items").Len() >= 2
	})
	docs, err := s.Shards[0].Server.Store().Collection("items").Find(
		map[string]any{"user": "alice", "classified": "walking"},
		// insertion order suffices
		docstoreFindOpts())
	if err != nil || len(docs) == 0 {
		t.Fatalf("persisted query = %v, %v", docs, err)
	}
}

func TestUserLocationBeforeAnyFix(t *testing.T) {
	s := fastSim(t)
	if err := s.Shards[0].Server.RegisterUser("nowhere"); err != nil {
		t.Fatalf("RegisterUser: %v", err)
	}
	pt, city, err := s.Shards[0].Server.UserLocation("nowhere")
	if err != nil {
		t.Fatalf("UserLocation: %v", err)
	}
	if city != "" || pt.Lat != 0 || pt.Lon != 0 {
		t.Fatalf("phantom location: %v %q", pt, city)
	}
	if _, _, err := s.Shards[0].Server.UserLocation("ghost"); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestRemoteStreamViaDownload(t *testing.T) {
	// The FilterDownloader path: the server records the stream, announces
	// it with a config-pull trigger, and the device fetches the XML over
	// HTTP before instantiating.
	s := fastSim(t)
	if err := s.Shards[0].StartHTTP(); err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	addStillUser(t, s, "alice", "Paris", sensors.ActivityWalking)
	sink := &itemSink{}
	if err := s.Shards[0].Server.RegisterListener("dl", sink); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	if err := s.Shards[0].Server.CreateRemoteStreamViaDownload(core.StreamConfig{
		ID: "dl", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified,
		Kind: core.KindContinuous, SampleInterval: 25 * time.Millisecond,
	}); err != nil {
		t.Fatalf("CreateRemoteStreamViaDownload: %v", err)
	}
	items := sink.waitFor(t, 2)
	if items[0].Classified != "walking" {
		t.Fatalf("item = %+v", items[0])
	}
	if err := s.Shards[0].Server.CreateRemoteStreamViaDownload(core.StreamConfig{ID: "bad"}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRegisterDeviceConcurrentSameUser registers the devices of one new
// user from eight goroutines at once, as a phone and a watch registering at
// the same moment over POST /register do: every registration succeeds, the
// user exists once, and every device is bound to it.
func TestRegisterDeviceConcurrentSameUser(t *testing.T) {
	m := bareManager(t, nil)
	const rounds, devices = 200, 8
	for r := 0; r < rounds; r++ {
		user := fmt.Sprintf("user%03d", r)
		errs := make(chan error, devices)
		var wg sync.WaitGroup
		for d := 0; d < devices; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				errs <- m.RegisterDevice(user, fmt.Sprintf("%s-dev%d", user, d))
			}(d)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: RegisterDevice: %v", r, err)
			}
		}
		if devs, err := m.DevicesOf(user); err != nil || len(devs) != devices {
			t.Fatalf("round %d: DevicesOf = %v, %v; want %d devices", r, devs, err, devices)
		}
	}
	if n := m.Store().Collection("users").Len(); n != rounds {
		t.Fatalf("users collection holds %d documents, want %d", n, rounds)
	}
}
