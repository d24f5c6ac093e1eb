package server

import (
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

// fastPathManager is a manager with persistence off and no filters, hooks
// or listeners installed: the configuration under which processItem is the
// pure hot path (registry check, snapshot load, hub publish to nobody).
func fastPathManager(t testing.TB) *Manager {
	t.Helper()
	broker := mqtt.NewBroker(mqtt.BrokerOptions{Clock: vclock.NewReal()})
	m, err := New(Options{Clock: vclock.NewReal(), Broker: broker})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		_ = m.Close()
		_ = broker.Close()
	})
	return m
}

func fastPathItem(t testing.TB) core.Item {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"ssids": 3})
	if err != nil {
		t.Fatal(err)
	}
	return core.Item{
		StreamID:    "wifi-1",
		DeviceID:    "alice-phone",
		UserID:      "alice",
		Modality:    sensors.ModalityWiFi,
		Granularity: core.GranularityRaw,
		Raw:         raw,
	}
}

// TestIngestFastPathNoAlloc pins the no-cross-user-filter hot path at zero
// heap allocations per item: no hook-slice copies, no context
// materialization, no per-item garbage. A regression here shows up as a
// nonzero count, not as a slow benchmark someone has to notice.
func TestIngestFastPathNoAlloc(t *testing.T) {
	m := fastPathManager(t)
	item := fastPathItem(t)
	m.processItem(item) // warm the registry/snapshot paths once

	if avg := testing.AllocsPerRun(1000, func() {
		m.processItem(item)
	}); avg != 0 {
		t.Fatalf("fast path allocates %.1f objects per item, want 0", avg)
	}
}

// TestIngestEnqueueToProcessNoAlloc extends the fast path to the ingest
// queue: Ingest boxes the item for its shard, the worker unboxes and
// processes it, and the box goes back to the pipeline's pool — no
// allocation per item once the pool holds a box.
func TestIngestEnqueueToProcessNoAlloc(t *testing.T) {
	m := fastPathManager(t)
	item := fastPathItem(t)
	var want uint64
	ingestOne := func() {
		if !m.Ingest(item) {
			t.Fatal("ingest rejected on an idle manager")
		}
		want++
		for m.Metrics().Sum("sensocial_ingest_processed_total") < want {
			runtime.Gosched()
		}
	}
	ingestOne()

	if avg := testing.AllocsPerRun(1000, ingestOne); avg != 0 {
		t.Fatalf("ingest → process allocates %.1f objects per item, want 0", avg)
	}
}

// BenchmarkIngestFastPath measures the per-item cost of the worker-side
// processing path in isolation (enqueue/dequeue excluded).
func BenchmarkIngestFastPath(b *testing.B) {
	m := fastPathManager(b)
	item := fastPathItem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.processItem(item)
	}
}

// conditionedManager is fastPathManager with a cross-user filter installed
// on the item's stream: alice's items pass only while bob, who holds three
// context values, is walking somewhere that is not silent.
func conditionedManager(t testing.TB) *Manager {
	t.Helper()
	m := fastPathManager(t)
	m.filters.Set("wifi-1", core.Filter{Conditions: []core.Condition{
		{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals, Value: "walking", UserID: "bob"},
		{Modality: core.CtxAudioEnvironment, Operator: core.OpNotEquals, Value: "silent", UserID: "bob"},
	}})
	m.registry.ApplyItem(core.Item{UserID: "bob", Context: core.Context{
		core.CtxPhysicalActivity: "walking",
		core.CtxAudioEnvironment: "noisy",
		core.CtxPlace:            "Paris",
	}})
	return m
}

// TestIngestConditionedPathNoAlloc pins the cross-user-conditioned path at
// zero allocations too: the conditions are evaluated in place against bob's
// registry record, with no context map or "user/modality" keys built per
// item (five allocations when they were). The items must pass the filter,
// or the test would pin the cheaper rejected path.
func TestIngestConditionedPathNoAlloc(t *testing.T) {
	m := conditionedManager(t)
	item := fastPathItem(t)
	m.processItem(item)

	if avg := testing.AllocsPerRun(1000, func() {
		m.processItem(item)
	}); avg != 0 {
		t.Fatalf("conditioned path allocates %.1f objects per item, want 0", avg)
	}
	if published := m.Metrics().Sum("sensocial_delivery_published_total"); published != 1002 {
		t.Fatalf("filter passed %d of 1002 items", published)
	}
	if rejected := m.Metrics().Sum("sensocial_filter_rejected_total"); rejected != 0 {
		t.Fatalf("filter rejected %d items whose conditions hold", rejected)
	}
}

// BenchmarkIngestConditioned is BenchmarkIngestFastPath on a stream with a
// cross-user filter.
func BenchmarkIngestConditioned(b *testing.B) {
	m := conditionedManager(b)
	item := fastPathItem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.processItem(item)
	}
}

// TestRepeatedClassifiedLocationSkipsWithoutAlloc: a classified location
// item keeps the user's previous point, which the registry remembers, so a
// repeated city is a counted skip that neither reads the user document nor
// allocates. A user with nothing remembered yet still gets the first fix
// written, through the document.
func TestRepeatedClassifiedLocationSkipsWithoutAlloc(t *testing.T) {
	m := fastPathManager(t)
	for _, u := range []string{"alice", "bob"} {
		if err := m.RegisterUser(u); err != nil {
			t.Fatal(err)
		}
	}
	paris := geo.Point{Lat: 48.8566, Lon: 2.3522}
	if err := m.UpdateUserLocation("alice", paris, ""); err != nil {
		t.Fatal(err)
	}
	item := core.Item{
		StreamID: "loc-1", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityLocation, Granularity: core.GranularityClassified,
		Classified: "Paris",
	}
	m.processItem(item)
	if pt, city, err := m.UserLocation("alice"); err != nil || pt != paris || city != "Paris" {
		t.Fatalf("after alice's first classified fix: UserLocation = %v, %q, %v; want %v, Paris", pt, city, err, paris)
	}
	bobs := item
	bobs.UserID, bobs.DeviceID = "bob", "bob-phone"
	m.processItem(bobs)
	if _, city, err := m.UserLocation("bob"); err != nil || city != "Paris" {
		t.Fatalf("after bob's first classified fix: city = %q, %v; want Paris", city, err)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		m.processItem(item)
	}); avg != 0 {
		t.Fatalf("repeated classified fix allocates %.1f objects per item, want 0", avg)
	}
	if skips := m.Metrics().Sum("sensocial_context_location_skips_total"); skips != 1001 {
		t.Fatalf("counted %d skips over 1001 repeated fixes", skips)
	}
	if writes := m.Metrics().Sum("sensocial_context_location_writes_total"); writes != 3 {
		t.Fatalf("counted %d registry writes, want 3 (alice's point, alice's city, bob's city)", writes)
	}
}
