package sim

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

func fastOptions() Options {
	return Options{
		Clock:         vclock.NewReal(),
		Seed:          1,
		MobileLink:    &netsim.Link{Latency: time.Millisecond},
		FacebookDelay: &osn.DelayModel{Mean: 10 * time.Millisecond, Min: time.Millisecond},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("missing clock accepted")
	}
	if _, err := New(Options{Clock: vclock.NewReal(), Shards: -1}); err == nil {
		t.Fatal("negative ring size accepted")
	}
	// One journal directory cannot hold several shards' logs; the refusal
	// comes before anything touches the disk.
	journal := filepath.Join(t.TempDir(), "journal")
	if _, err := New(Options{Clock: vclock.NewReal(), Shards: 3, DurableDir: journal}); err == nil {
		t.Fatal("DurableDir accepted with 3 shards")
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("rejected New left %s behind (stat err %v)", journal, err)
	}
	// A device's backlog counter is a uint16: a larger cap would wrap to 0
	// and silently break the pool's conservation identity.
	if _, err := New(Options{Clock: vclock.NewReal(), Pool: PoolOptions{MaxBacklog: 1 << 16}}); err == nil {
		t.Fatal("Pool.MaxBacklog of 65536 accepted")
	}
	s, err := New(Options{Clock: vclock.NewReal(), Pool: PoolOptions{MaxBacklog: 1<<16 - 1}})
	if err != nil {
		t.Fatalf("Pool.MaxBacklog of 65535 rejected: %v", err)
	}
	s.Close()
}

func TestProfileHelpers(t *testing.T) {
	s, err := New(fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if _, err := StationaryProfile(s.Places, "Atlantis"); err == nil {
		t.Fatal("unknown city accepted")
	}
	if _, err := TravelProfile(s.Places, "Atlantis", "Paris", 10, 0); err == nil {
		t.Fatal("unknown origin accepted")
	}
	if _, err := TravelProfile(s.Places, "Paris", "Atlantis", 10, 0); err == nil {
		t.Fatal("unknown destination accepted")
	}
	p, err := TravelProfile(s.Places, "Bordeaux", "Paris", 100, time.Minute)
	if err != nil {
		t.Fatalf("TravelProfile: %v", err)
	}
	// During the dwell the traveller is still in Bordeaux.
	bordeaux, _ := s.Places.Lookup("Bordeaux")
	if d := p.StateAt(30 * time.Second).Location.DistanceMeters(bordeaux.Region.Center); d > 100 {
		t.Fatalf("traveller left during dwell: %f m", d)
	}
}

func TestAddUserValidation(t *testing.T) {
	s, err := New(fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	profile, err := StationaryProfile(s.Places, "Paris")
	if err != nil {
		t.Fatalf("StationaryProfile: %v", err)
	}
	if _, err := s.AddUser("", profile); err == nil {
		t.Fatal("empty user accepted")
	}
	if _, err := s.AddUser("alice", profile); err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	if _, err := s.AddUser("alice", profile); err == nil {
		t.Fatal("duplicate user accepted")
	}
	if _, ok := s.Handle("alice"); !ok {
		t.Fatal("handle missing")
	}
	if _, ok := s.Handle("ghost"); ok {
		t.Fatal("phantom handle")
	}
	// The rejected calls above must not count: one full stack is running.
	g := s.Shards[0].Metrics.Gauge("sensocial_sim_devices",
		"Simulated devices currently running (full and pooled modes).")
	if got := g.Value(); got != 1 {
		t.Fatalf("sensocial_sim_devices = %v, want 1", got)
	}
	if s.Pool != nil {
		t.Fatal("AddUser built a device pool")
	}
	if s.Classifiers() == nil {
		t.Fatal("nil classifiers")
	}
}

// TestFigure2Scenario is the paper's running example as an integration
// test: C travels Bordeaux -> Paris; the middleware's location streams,
// registry, friendship sync and notify triggers produce exactly one
// notification, on A's phone.
func TestFigure2Scenario(t *testing.T) {
	opts := fastOptions()
	opts.Clock = vclock.NewScaled(time.Date(2014, 12, 8, 8, 0, 0, 0, time.UTC), 2000)
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	home := map[string]string{"A": "Paris", "B": "Paris", "C": "Bordeaux", "D": "Bordeaux", "E": "Bordeaux"}
	for user, city := range home {
		var profile *sensors.Profile
		if user == "C" {
			profile, err = TravelProfile(s.Places, "Bordeaux", "Paris", 200, 2*time.Minute)
		} else {
			profile, err = StationaryProfile(s.Places, city)
		}
		if err != nil {
			t.Fatalf("profile(%s): %v", user, err)
		}
		if _, err := s.AddUser(user, profile); err != nil {
			t.Fatalf("AddUser(%s): %v", user, err)
		}
	}
	for _, f := range []string{"C", "D"} {
		if err := s.Graph.Befriend("A", f); err != nil {
			t.Fatalf("Befriend: %v", err)
		}
	}
	if err := s.Shards[0].Server.SyncFriendships(s.Graph); err != nil {
		t.Fatalf("SyncFriendships: %v", err)
	}
	for user := range home {
		if err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
			ID: "loc-" + user, DeviceID: user + "-phone", UserID: user,
			Modality: sensors.ModalityLocation, Granularity: core.GranularityClassified,
			Kind: core.KindContinuous, SampleInterval: time.Minute,
		}); err != nil {
			t.Fatalf("CreateRemoteStream(%s): %v", user, err)
		}
	}

	var mu sync.Mutex
	notified := map[string][]string{}
	for user := range home {
		h, _ := s.Handle(user)
		u := user
		h.Mobile.OnNotify(func(msg string) {
			mu.Lock()
			notified[u] = append(notified[u], msg)
			mu.Unlock()
		})
	}

	lastCity := map[string]string{}
	var appMu sync.Mutex
	if err := s.Shards[0].Server.RegisterListener(core.Wildcard, core.ListenerFunc(func(i core.Item) {
		if i.Modality != sensors.ModalityLocation || i.Classified == "" {
			return
		}
		appMu.Lock()
		prev := lastCity[i.UserID]
		lastCity[i.UserID] = i.Classified
		appMu.Unlock()
		if prev == i.Classified || prev == "" {
			return
		}
		friends, err := s.Shards[0].Server.FriendsOf(i.UserID)
		if err != nil {
			return
		}
		for _, f := range friends {
			if home[f] != i.Classified {
				continue
			}
			devices, err := s.Shards[0].Server.DevicesOf(f)
			if err != nil {
				continue
			}
			for _, d := range devices {
				_ = s.Shards[0].Server.NotifyDevice(d, i.UserID+" arrived in "+i.Classified)
			}
		}
	})); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		got := len(notified["A"])
		mu.Unlock()
		if got > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("A never notified")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(notified["A"][0], "C arrived in Paris") {
		t.Fatalf("notification = %q", notified["A"][0])
	}
	// B is not C's friend; D and E never moved: nobody else is notified.
	for _, other := range []string{"B", "C", "D", "E"} {
		if len(notified[other]) != 0 {
			t.Fatalf("%s spuriously notified: %v", other, notified[other])
		}
	}
}

// TestMultiUserEnergyIsolation covers the §5.5 claim that each user adds
// only local cost: two identical users accumulate near-identical energy.
func TestMultiUserEnergyIsolation(t *testing.T) {
	s, err := New(fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	for _, u := range []string{"u1", "u2"} {
		profile, err := StationaryProfile(s.Places, "Paris")
		if err != nil {
			t.Fatalf("StationaryProfile: %v", err)
		}
		if _, err := s.AddUser(u, profile); err != nil {
			t.Fatalf("AddUser: %v", err)
		}
		if err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
			ID: "wifi-" + u, DeviceID: u + "-phone", UserID: u,
			Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
			Kind: core.KindContinuous, SampleInterval: 20 * time.Millisecond,
		}); err != nil {
			t.Fatalf("CreateRemoteStream: %v", err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	h1, _ := s.Handle("u1")
	h2, _ := s.Handle("u2")
	e1 := h1.Device.Meter().TotalMicroAh()
	e2 := h2.Device.Meter().TotalMicroAh()
	if e1 == 0 || e2 == 0 {
		t.Fatalf("no energy recorded: %f, %f", e1, e2)
	}
	ratio := e1 / e2
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("per-user energy diverges: %f vs %f", e1, e2)
	}
}

// TestTwitterPollDelayShorterThanFacebook covers the §5.4 note that the
// polling Twitter plug-in "allows arbitrarily short delay" set by its poll
// period, in contrast to Facebook's ~46 s notification latency.
func TestTwitterPollDelayShorterThanFacebook(t *testing.T) {
	opts := fastOptions()
	// Realistic Facebook delay and a tight Twitter poll on a manual clock
	// stepped a virtual second at a time: the delays compared below are
	// virtual, so host scheduling cannot stretch them past their bounds the
	// way it could on a compressed real clock.
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	opts.Clock = clock
	opts.MobileLink = &netsim.Link{} // zero latency: deliveries never wait on the parked clock
	fb := osn.FacebookDelay()
	opts.FacebookDelay = &fb
	opts.TwitterPollPeriod = 2 * time.Second
	s, err := New(opts)
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
		ID: "se", Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindSocialEvent, Deliver: core.DeliverServer,
	}); err != nil {
		t.Fatalf("CreateStream: %v", err)
	}
	type arrival struct {
		network string
		delay   time.Duration
	}
	got := make(chan arrival, 16)
	s.Shards[0].Server.OnItem(func(i core.Item) {
		if i.Action == nil {
			return
		}
		got <- arrival{network: i.Action.Network, delay: i.Time.Sub(i.Action.Time)}
	})
	// The poll plug-in reports only actions after the user's registration.
	clock.Advance(time.Second)
	if _, err := s.Twitter.Record("alice", osn.ActionTweet, "quick tweet", s.Clock.Now()); err != nil {
		t.Fatalf("Record: %v", err)
	}
	if _, err := s.Facebook.Record("alice", osn.ActionPost, "slow post", s.Clock.Now()); err != nil {
		t.Fatalf("Record: %v", err)
	}
	delays := map[string]time.Duration{}
	for step := 0; len(delays) < 2; step++ {
		if step == 120 {
			t.Fatalf("arrivals incomplete after %d virtual seconds: %v", step, delays)
		}
		clock.Advance(time.Second)
		// Whatever the step's timers set off runs on real goroutines while
		// virtual time is parked; let it land before the next step.
		time.Sleep(2 * time.Millisecond)
		quiesce(t, s)
		for len(got) > 0 {
			a := <-got
			if _, seen := delays[a.network]; !seen {
				delays[a.network] = a.delay
			}
		}
	}
	if delays["twitter"] >= delays["facebook"] {
		t.Fatalf("twitter (%v) not faster than facebook (%v)", delays["twitter"], delays["facebook"])
	}
	if delays["twitter"] > 10*time.Second {
		t.Fatalf("twitter delay %v, want within a few poll periods", delays["twitter"])
	}
	if delays["facebook"] < 30*time.Second {
		t.Fatalf("facebook delay %v, want ~46 s", delays["facebook"])
	}
}

// TestActionTapSeesTwitterActions: the tap observes every OSN action on
// its way to the owning server, the poll plug-in's (Twitter) as well as
// the push plug-in's (Facebook).
func TestActionTapSeesTwitterActions(t *testing.T) {
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	tapped := make(chan osn.Action, 4)
	s, err := New(Options{
		Clock:             clock,
		Seed:              1,
		TwitterPollPeriod: time.Second,
		ActionTap:         func(a osn.Action) { tapped <- a },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if err := s.Graph.AddUser("alice"); err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	s.TWPlugin.RegisterUser("alice", clock.Now())
	clock.Advance(time.Second)
	tweet, err := s.Twitter.Record("alice", osn.ActionTweet, "quick tweet", clock.Now())
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	for step := 0; ; step++ {
		if step == 100 {
			t.Fatal("tweet never reached the action tap")
		}
		// The poll loop runs on its own goroutine; step virtual time until
		// its ticker has fired after the tweet.
		clock.Advance(time.Second)
		select {
		case a := <-tapped:
			if a.ID != tweet.ID || a.Network != "twitter" {
				t.Fatalf("tap saw %+v, want the tweet %+v", a, tweet)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}
