package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/docstore"

	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/geo"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/sim"
)

func seedLocations(t *testing.T, s *sim.Simulation, where map[string]string) {
	t.Helper()
	for user, city := range where {
		p, ok := s.Places.Lookup(city)
		if !ok {
			t.Fatalf("unknown city %q", city)
		}
		if err := s.Shards[0].Server.UpdateUserLocation(user, p.Region.Center, city); err != nil {
			t.Fatalf("UpdateUserLocation(%s): %v", user, err)
		}
	}
}

func TestMulticastCityMembershipAndData(t *testing.T) {
	s := fastSim(t)
	addStillUser(t, s, "alice", "Paris", sensors.ActivityStill)
	addStillUser(t, s, "bob", "Paris", sensors.ActivityStill)
	addStillUser(t, s, "carol", "Bordeaux", sensors.ActivityStill)
	seedLocations(t, s, map[string]string{"alice": "Paris", "bob": "Paris", "carol": "Bordeaux"})

	ms, err := s.Shards[0].Server.CreateMulticastStream("paris-wifi", core.StreamConfig{
		Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: 20 * time.Millisecond,
	}, server.MemberQuery{Kind: server.QueryCity, City: "Paris"})
	if err != nil {
		t.Fatalf("CreateMulticastStream: %v", err)
	}
	if got := strings.Join(ms.Members(), ","); got != "alice,bob" {
		t.Fatalf("members = %q", got)
	}
	sink := &itemSink{}
	if err := ms.Register(sink); err != nil {
		t.Fatalf("Register: %v", err)
	}
	items := sink.waitFor(t, 4)
	seen := map[string]bool{}
	for _, it := range items {
		seen[it.UserID] = true
		if it.AggregateID != "paris-wifi" {
			t.Fatalf("aggregate id = %q", it.AggregateID)
		}
		if it.UserID == "carol" {
			t.Fatal("non-member carol contributed data")
		}
	}
	if !seen["alice"] || !seen["bob"] {
		t.Fatalf("member coverage = %v", seen)
	}
	if err := ms.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(ms.Members()) != 0 {
		t.Fatal("members after Close")
	}
}

func TestMulticastFriendsQueryAndSetFilter(t *testing.T) {
	s := fastSim(t)
	addStillUser(t, s, "alice", "Paris", sensors.ActivityStill)
	addStillUser(t, s, "carol", "Bordeaux", sensors.ActivityWalking)
	addStillUser(t, s, "dave", "Bordeaux", sensors.ActivityStill)
	for _, pair := range [][2]string{{"alice", "carol"}, {"alice", "dave"}} {
		if err := s.Graph.Befriend(pair[0], pair[1]); err != nil {
			t.Fatalf("Befriend: %v", err)
		}
	}
	if err := s.Shards[0].Server.SyncFriendships(s.Graph); err != nil {
		t.Fatalf("SyncFriendships: %v", err)
	}

	ms, err := s.Shards[0].Server.CreateMulticastStream("friends-act", core.StreamConfig{
		Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified,
		Kind: core.KindContinuous, SampleInterval: 20 * time.Millisecond,
	}, server.MemberQuery{Kind: server.QueryFriendsOf, UserID: "alice"})
	if err != nil {
		t.Fatalf("CreateMulticastStream: %v", err)
	}
	if got := strings.Join(ms.Members(), ","); got != "carol,dave" {
		t.Fatalf("members = %q", got)
	}
	sink := &itemSink{}
	if err := ms.Register(sink); err != nil {
		t.Fatalf("Register: %v", err)
	}
	sink.waitFor(t, 2)

	// Distribute a filter restricting to walking users: only carol flows.
	filter := core.Filter{Conditions: []core.Condition{
		{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals, Value: "walking"},
	}}
	if err := ms.SetFilter(filter); err != nil {
		t.Fatalf("SetFilter: %v", err)
	}
	// Wait for filter distribution to land on devices, then reset counts.
	waitUntil(t, func() bool {
		h, _ := s.Handle("dave")
		for _, cfg := range h.Mobile.StreamConfigs() {
			if len(cfg.Filter.Conditions) == 1 {
				return true
			}
		}
		return false
	})
	before := sink.count()
	time.Sleep(150 * time.Millisecond)
	items := sink.snapshot()[before:]
	for _, it := range items {
		if it.UserID == "dave" {
			t.Fatal("distributed filter did not stop dave's still items")
		}
	}
	walkers := 0
	for _, it := range items {
		if it.UserID == "carol" && it.Classified == "walking" {
			walkers++
		}
	}
	if walkers == 0 {
		t.Fatal("carol's walking items missing after filter distribution")
	}
}

func TestMulticastRefreshFollowsMovement(t *testing.T) {
	// The Figure 2 storage-layer behaviour: carol moves Bordeaux -> Paris
	// and joins the Paris multicast on refresh.
	s := fastSim(t)
	addStillUser(t, s, "alice", "Paris", sensors.ActivityStill)
	addStillUser(t, s, "carol", "Bordeaux", sensors.ActivityStill)
	seedLocations(t, s, map[string]string{"alice": "Paris", "carol": "Bordeaux"})

	ms, err := s.Shards[0].Server.CreateMulticastStream("paris-bt", core.StreamConfig{
		Modality: sensors.ModalityBluetooth, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: 25 * time.Millisecond,
	}, server.MemberQuery{Kind: server.QueryNear,
		Center: geo.Point{Lat: 48.8566, Lon: 2.3522}, RadiusMeters: 20000})
	if err != nil {
		t.Fatalf("CreateMulticastStream: %v", err)
	}
	if got := strings.Join(ms.Members(), ","); got != "alice" {
		t.Fatalf("members = %q", got)
	}
	// Carol arrives in Paris.
	seedLocations(t, s, map[string]string{"carol": "Paris"})
	if err := ms.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if got := strings.Join(ms.Members(), ","); got != "alice,carol" {
		t.Fatalf("members after move = %q", got)
	}
	// Alice leaves.
	bordeaux, _ := s.Places.Lookup("Bordeaux")
	if err := s.Shards[0].Server.UpdateUserLocation("alice", bordeaux.Region.Center, "Bordeaux"); err != nil {
		t.Fatalf("UpdateUserLocation: %v", err)
	}
	if err := ms.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if got := strings.Join(ms.Members(), ","); got != "carol" {
		t.Fatalf("members after departure = %q", got)
	}
}

func TestMulticastValidation(t *testing.T) {
	s := fastSim(t)
	tmpl := core.StreamConfig{
		Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: time.Second,
	}
	if _, err := s.Shards[0].Server.CreateMulticastStream("", tmpl, server.MemberQuery{Kind: server.QueryCity, City: "Paris"}); err == nil {
		t.Fatal("empty id accepted")
	}
	bad := []server.MemberQuery{
		{Kind: server.QueryCity},
		{Kind: server.QueryNear, RadiusMeters: -1},
		{Kind: server.QueryFriendsOf},
		{Kind: "astrological"},
	}
	for _, q := range bad {
		if _, err := s.Shards[0].Server.CreateMulticastStream("m", tmpl, q); err == nil {
			t.Errorf("query %+v accepted", q)
		}
	}
	if _, err := s.Shards[0].Server.CreateMulticastStream("dup", tmpl, server.MemberQuery{Kind: server.QueryCity, City: "Paris"}); err != nil {
		t.Fatalf("CreateMulticastStream: %v", err)
	}
	if _, err := s.Shards[0].Server.CreateMulticastStream("dup", tmpl, server.MemberQuery{Kind: server.QueryCity, City: "Paris"}); err == nil {
		t.Fatal("duplicate multicast id accepted")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := fastSim(t)
	if err := s.Shards[0].StartHTTP(); err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	client := s.HTTPClient("tester")
	base := "http://" + s.Shards[0].HTTPAddr

	// Health.
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Registration.
	reg := func(body string) int {
		resp, err := client.Post(base+"/register", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /register: %v", err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := reg(`{"user_id":"webuser","device_id":"webdev"}`); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	if code := reg(`{"user_id":"solo"}`); code != http.StatusCreated {
		t.Fatalf("register user-only = %d", code)
	}
	if code := reg(`{"device_id":"orphan"}`); code == http.StatusCreated {
		t.Fatal("deviceless register without user accepted")
	}
	if code := reg(`not json`); code != http.StatusBadRequest {
		t.Fatalf("bad json register = %d", code)
	}
	devs, err := s.Shards[0].Server.DevicesOf("webuser")
	if err != nil || len(devs) != 1 {
		t.Fatalf("DevicesOf = %v, %v", devs, err)
	}

	// OSN webhook.
	if err := s.Graph.AddUser("webuser"); err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	action := osn.Action{ID: "fb-9", Network: "facebook", UserID: "webuser", Type: osn.ActionPost, Text: "hi", Time: time.Now().UTC()}
	body, err := json.Marshal(action)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err = client.Post(base+"/osn/action", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /osn/action: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("osn action = %d", resp.StatusCode)
	}
	resp, err = client.Post(base+"/osn/action", "application/json", strings.NewReader(`{"user_id":""}`))
	if err != nil {
		t.Fatalf("POST bad action: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad action = %d", resp.StatusCode)
	}

	// Stream config download (FilterDownloader).
	err = s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "web-s1", DeviceID: "webdev", UserID: "webuser",
		Modality: sensors.ModalityLocation, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: time.Minute,
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	resp, err = client.Get(base + "/streams?device=webdev")
	if err != nil {
		t.Fatalf("GET /streams: %v", err)
	}
	xml, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(xml), `id="web-s1"`) {
		t.Fatalf("streams download = %d: %s", resp.StatusCode, xml)
	}
	resp, err = client.Get(base + "/streams")
	if err != nil {
		t.Fatalf("GET /streams no device: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-device download = %d", resp.StatusCode)
	}
}

func TestOSNWebhookDeliveryPath(t *testing.T) {
	// Full fidelity: the action reaches the server as the original
	// Facebook app notified the PHP receiver, an HTTP POST to the owning
	// shard's webhook over the fabric, and comes out as a social-event item.
	s := fastSim(t)
	if err := s.Shards[0].StartHTTP(); err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
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
	waitUntil(t, func() bool {
		h, _ := s.Handle("alice")
		return len(h.Mobile.StreamConfigs()) == 1
	})
	body, err := json.Marshal(osn.Action{
		ID: "facebook-1", Network: "facebook", UserID: "alice",
		Type: osn.ActionLike, Text: "like", Time: s.Clock.Now(),
	})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := s.HTTPClient("facebook-cloud").Post("http://"+s.Shards[0].HTTPAddr+"/osn/action", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /osn/action: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("osn action = %d", resp.StatusCode)
	}
	items := sink.waitFor(t, 1)
	if items[0].Action == nil || items[0].Action.Type != osn.ActionLike {
		t.Fatalf("action = %+v", items[0].Action)
	}
}

// docstoreFindOpts avoids importing docstore in two test files.
func docstoreFindOpts() docstore.FindOpts { return docstore.FindOpts{} }
