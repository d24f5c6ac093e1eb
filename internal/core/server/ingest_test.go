package server_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/core/server/ingest"
	"repro/internal/docstore"
	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/sensors"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// bareManager builds a Manager directly on an in-process broker, bypassing
// the device simulator, so tests can drive Ingest at full speed.
func bareManager(t *testing.T, tweak func(*server.Options)) *server.Manager {
	t.Helper()
	broker := mqtt.NewBroker(mqtt.BrokerOptions{Clock: vclock.NewReal()})
	opts := server.Options{Clock: vclock.NewReal(), Broker: broker}
	if tweak != nil {
		tweak(&opts)
	}
	m, err := server.New(opts)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(func() {
		_ = m.Close()
		_ = broker.Close()
	})
	return m
}

// drained reports whether the ingest pipeline has processed everything it
// accepted, read off the manager's registry.
func drained(m *server.Manager) bool {
	reg := m.Metrics()
	return reg.Sum("sensocial_ingest_processed_total") == reg.Sum("sensocial_ingest_enqueued_total")
}

// seqPayload carries a per-user sequence number through Item.Raw.
type seqPayload struct {
	Seq int `json:"seq"`
}

func seqItem(user string, seq int) core.Item {
	raw, _ := json.Marshal(seqPayload{Seq: seq})
	return core.Item{
		StreamID:    "flood-" + user,
		DeviceID:    user + "-phone",
		UserID:      user,
		Modality:    sensors.ModalityWiFi,
		Granularity: core.GranularityRaw,
		Raw:         raw,
	}
}

// TestConcurrentIngestPreservesPerUserOrder floods the pipeline from one
// producer goroutine per user and asserts that every user's items are
// delivered exactly once and in upload order, whatever shard interleaving
// the race detector provokes.
func TestConcurrentIngestPreservesPerUserOrder(t *testing.T) {
	const users, perUser = 8, 300
	m := bareManager(t, nil)

	var mu sync.Mutex
	got := make(map[string][]int, users)
	m.OnItem(func(it core.Item) {
		var p seqPayload
		if err := json.Unmarshal(it.Raw, &p); err != nil {
			t.Errorf("bad payload on %s: %v", it.StreamID, err)
			return
		}
		mu.Lock()
		got[it.UserID] = append(got[it.UserID], p.Seq)
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(user string) {
			defer wg.Done()
			for seq := 0; seq < perUser; seq++ {
				if !m.Ingest(seqItem(user, seq)) {
					t.Errorf("%s: item %d rejected by an open manager", user, seq)
					return
				}
			}
		}(fmt.Sprintf("user%d", u))
	}
	wg.Wait()
	waitUntil(t, func() bool { return drained(m) })

	mu.Lock()
	defer mu.Unlock()
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user%d", u)
		seqs := got[user]
		if len(seqs) != perUser {
			t.Fatalf("%s: delivered %d items, want %d", user, len(seqs), perUser)
		}
		for i, s := range seqs {
			if s != i {
				t.Fatalf("%s: position %d carries seq %d — per-user order broken", user, i, s)
			}
		}
	}
}

// TestCrossUserFilterSeesConsistentSnapshot checks the registry's torn-read
// guarantee. Bob's context flips between two internally consistent pairs —
// (walking, noisy) and (still, silent) — neither of which satisfies
// alice's filter (walking AND silent). Only a torn read mixing halves of
// two different updates could ever let an item through.
func TestCrossUserFilterSeesConsistentSnapshot(t *testing.T) {
	m := bareManager(t, nil)
	err := m.CreateRemoteStream(core.StreamConfig{
		ID: "x", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: time.Second,
		Filter: core.Filter{Conditions: []core.Condition{
			{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals, Value: "walking", UserID: "bob"},
			{Modality: core.CtxAudioEnvironment, Operator: core.OpEquals, Value: "silent", UserID: "bob"},
		}},
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	sink := &itemSink{}
	if err := m.RegisterListener("x", sink); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}

	bobItem := func(activity, audio string) core.Item {
		return core.Item{
			StreamID: "bob-ctx", DeviceID: "bob-phone", UserID: "bob",
			Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified,
			Classified: activity,
			Context: core.Context{
				core.CtxPhysicalActivity: activity,
				core.CtxAudioEnvironment: audio,
			},
		}
	}
	ingest := func(it core.Item) {
		if !m.Ingest(it) {
			t.Errorf("item of %s rejected by an open manager", it.UserID)
		}
	}

	const rounds = 400
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // bob flips between the two consistent pairs
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if i%2 == 0 {
				ingest(bobItem("walking", "noisy"))
			} else {
				ingest(bobItem("still", "silent"))
			}
		}
	}()
	go func() { // alice uploads against the filter the whole time
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			it := seqItem("alice", i)
			it.StreamID = "x"
			ingest(it)
		}
	}()
	wg.Wait()
	waitUntil(t, func() bool { return drained(m) })
	if n := sink.count(); n != 0 {
		t.Fatalf("filter passed %d items: a torn context snapshot mixed two of bob's updates", n)
	}

	// Prove the filter is live, not just permanently silent: a consistent
	// passing pair must unblock alice. Bob and alice process on different
	// shards, so wait until bob's update is visible before probing.
	ingest(bobItem("walking", "silent"))
	waitUntil(t, func() bool {
		ctx := m.Context()
		return ctx[core.Key("bob", core.CtxPhysicalActivity)] == "walking" &&
			ctx[core.Key("bob", core.CtxAudioEnvironment)] == "silent"
	})
	it := seqItem("alice", rounds)
	it.StreamID = "x"
	ingest(it)
	sink.waitFor(t, 1)
}

// TestCrossUserFilterOnTwoFriends conditions alice's stream on two friends
// at once. Each friend's conditions are evaluated against that friend's
// record in one visit, so while bob and carol both flip between pairs that
// fail their own half, nothing may pass however the two interleave; and
// the filter is a conjunction across friends: bob's half holding is not
// enough until carol's holds too.
func TestCrossUserFilterOnTwoFriends(t *testing.T) {
	m := bareManager(t, nil)
	err := m.CreateRemoteStream(core.StreamConfig{
		ID: "x", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: time.Second,
		Filter: core.Filter{Conditions: []core.Condition{
			{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals, Value: "walking", UserID: "bob"},
			{Modality: core.CtxPlace, Operator: core.OpEquals, Value: "Paris", UserID: "carol"},
			{Modality: core.CtxAudioEnvironment, Operator: core.OpEquals, Value: "silent", UserID: "bob"},
			{Modality: core.CtxPhysicalActivity, Operator: core.OpNotEquals, Value: "walking", UserID: "carol"},
		}},
	})
	if err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	sink := &itemSink{}
	if err := m.RegisterListener("x", sink); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	ingest := func(it core.Item) {
		if !m.Ingest(it) {
			t.Errorf("item of %s rejected by an open manager", it.UserID)
		}
	}
	friend := func(user string, ctx core.Context) core.Item {
		return core.Item{
			StreamID: user + "-ctx", DeviceID: user + "-phone", UserID: user,
			Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityRaw,
			Context: ctx,
		}
	}
	alice := func(seq int) core.Item {
		it := seqItem("alice", seq)
		it.StreamID = "x"
		return it
	}
	flip := func(user string, even, odd core.Context, rounds int, wg *sync.WaitGroup) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if i%2 == 0 {
				ingest(friend(user, even))
			} else {
				ingest(friend(user, odd))
			}
		}
	}

	const rounds = 400
	var wg sync.WaitGroup
	wg.Add(3)
	go flip("bob",
		core.Context{core.CtxPhysicalActivity: "walking", core.CtxAudioEnvironment: "noisy"},
		core.Context{core.CtxPhysicalActivity: "still", core.CtxAudioEnvironment: "silent"}, rounds, &wg)
	go flip("carol",
		core.Context{core.CtxPlace: "Paris", core.CtxPhysicalActivity: "walking"},
		core.Context{core.CtxPlace: "Milan", core.CtxPhysicalActivity: "still"}, rounds, &wg)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ingest(alice(i))
		}
	}()
	wg.Wait()
	waitUntil(t, func() bool { return drained(m) })
	if n := sink.count(); n != 0 {
		t.Fatalf("filter passed %d items while neither friend's half ever held", n)
	}

	// Bob's half holds, carol's does not: still rejected.
	ingest(friend("bob", core.Context{core.CtxPhysicalActivity: "walking", core.CtxAudioEnvironment: "silent"}))
	waitUntil(t, func() bool { return drained(m) })
	rejected := m.Metrics().Sum("sensocial_filter_rejected_total")
	ingest(alice(rounds))
	waitUntil(t, func() bool { return drained(m) })
	if n, r := sink.count(), m.Metrics().Sum("sensocial_filter_rejected_total"); n != 0 || r != rejected+1 {
		t.Fatalf("with only bob's half holding: %d items passed, %d newly rejected; want 0, 1", n, r-rejected)
	}
	// Both halves hold: alice's item passes.
	ingest(friend("carol", core.Context{core.CtxPlace: "Paris", core.CtxPhysicalActivity: "still"}))
	waitUntil(t, func() bool { return drained(m) })
	ingest(alice(rounds + 1))
	sink.waitFor(t, 1)
}

// TestDurableRestartKeepsStreamFilters records a stream conditioned on a
// friend who is walking in a durable store, then closes and reopens the
// store under a new manager. The recovered stream must still be filtered:
// an item sent while the friend is idle is rejected, and one sent once the
// friend walks passes.
func TestDurableRestartKeepsStreamFilters(t *testing.T) {
	dir := t.TempDir()
	open := func() *docstore.Store {
		s, _, err := docstore.OpenDurable(dir, wal.Options{})
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	store := open()
	m := bareManager(t, func(o *server.Options) { o.Store = store })
	if err := m.CreateRemoteStream(core.StreamConfig{
		ID: "x", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityWiFi, Granularity: core.GranularityRaw,
		Kind: core.KindContinuous, SampleInterval: time.Second,
		Filter: core.Filter{Conditions: []core.Condition{
			{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals, Value: "walking", UserID: "bob"},
		}},
	}); err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	_ = m.Close()
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m = bareManager(t, func(o *server.Options) { o.Store = open() })
	sink := &itemSink{}
	if err := m.RegisterListener("x", sink); err != nil {
		t.Fatalf("RegisterListener: %v", err)
	}
	bob := func(activity string) core.Item {
		return core.Item{
			StreamID: "bob-ctx", DeviceID: "bob-phone", UserID: "bob",
			Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityRaw,
			Context: core.Context{core.CtxPhysicalActivity: activity},
		}
	}
	alice := func(seq int) core.Item {
		it := seqItem("alice", seq)
		it.StreamID = "x"
		return it
	}
	for _, it := range []core.Item{bob("still"), alice(0)} {
		m.Ingest(it)
		waitUntil(t, func() bool { return drained(m) })
	}
	if n, r := sink.count(), m.Metrics().Sum("sensocial_filter_rejected_total"); n != 0 || r != 1 {
		t.Fatalf("with bob idle after a restart: %d items passed, %v rejected; want 0, 1", n, r)
	}
	m.Ingest(bob("walking"))
	waitUntil(t, func() bool { return drained(m) })
	m.Ingest(alice(1))
	sink.waitFor(t, 1)
}

// TestIngestFullShardWaits parks the only worker inside a gated delivery
// hook and fills its shard queue: the next Ingest must wait for a slot
// rather than return, complete once the gate opens, and every item must be
// processed with nothing dropped.
func TestIngestFullShardWaits(t *testing.T) {
	m := bareManager(t, func(o *server.Options) { o.IngestShards = 1 })
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var once sync.Once
	m.OnItem(func(core.Item) {
		once.Do(func() {
			started <- struct{}{}
			<-gate
		})
	})

	if !m.Ingest(seqItem("u", 0)) {
		t.Fatal("first item rejected by an idle pipeline")
	}
	<-started // the only worker now blocks inside delivery
	for i := 1; i <= ingest.DefaultQueueDepth; i++ {
		if !m.Ingest(seqItem("u", i)) {
			t.Fatalf("item %d rejected with a free slot", i)
		}
	}
	next := make(chan bool, 1)
	go func() { next <- m.Ingest(seqItem("u", ingest.DefaultQueueDepth+1)) }()
	select {
	case ok := <-next:
		t.Fatalf("Ingest on a full shard returned %v while the worker was held", ok)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	if !<-next {
		t.Fatal("waiting Ingest rejected once a slot freed")
	}
	waitUntil(t, func() bool { return drained(m) })
	reg := m.Metrics()
	const total = ingest.DefaultQueueDepth + 2
	if e, d, p := reg.Sum("sensocial_ingest_enqueued_total"), reg.Sum("sensocial_ingest_dropped_total"),
		reg.Sum("sensocial_ingest_processed_total"); e != total || d != 0 || p != total {
		t.Fatalf("enqueued %d, dropped %d, processed %d; want %d, 0, %d", e, d, p, total, total)
	}
}

// TestRegistrySkipsNoopLocationWrites uploads the same raw fix repeatedly:
// only the first write may hit the document store; the rest are counted as
// skips. A genuinely new fix writes again.
func TestRegistrySkipsNoopLocationWrites(t *testing.T) {
	m := bareManager(t, func(o *server.Options) {
		o.Places = geo.EuropeanCities()
	})
	if err := m.RegisterUser("carol"); err != nil {
		t.Fatalf("RegisterUser: %v", err)
	}
	fix := func(lat, lon float64) core.Item {
		raw, _ := json.Marshal(sensors.LocationReading{Lat: lat, Lon: lon, AccuracyM: 10})
		return core.Item{
			StreamID: "loc", DeviceID: "carol-phone", UserID: "carol",
			Modality: sensors.ModalityLocation, Granularity: core.GranularityRaw,
			Raw: raw,
		}
	}
	const repeats = 6
	for i := 0; i < repeats; i++ {
		if !m.Ingest(fix(48.8566, 2.3522)) { // Paris, identical every time
			t.Fatalf("ingest %d rejected", i)
		}
	}
	waitUntil(t, func() bool { return drained(m) })
	if writes := m.Metrics().Sum("sensocial_context_location_writes_total"); writes != 1 {
		t.Fatalf("identical fixes caused %d registry writes, want 1", writes)
	}
	if skips := m.Metrics().Sum("sensocial_context_location_skips_total"); skips != repeats-1 {
		t.Fatalf("counted %d skips, want %d", skips, repeats-1)
	}
	if _, city, err := m.UserLocation("carol"); err != nil || city != "Paris" {
		t.Fatalf("UserLocation = %q, %v; want Paris", city, err)
	}

	if !m.Ingest(fix(45.4642, 9.19)) { // Milan: a real move writes again
		t.Fatal("ingest of new fix rejected")
	}
	waitUntil(t, func() bool { return m.Metrics().Sum("sensocial_context_location_writes_total") == 2 })
}
