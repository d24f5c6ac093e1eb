package sim

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

var poolEpoch = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)

func newPooledSim(t *testing.T, clock vclock.Clock, opts PoolOptions, traceCap int) *Simulation {
	t.Helper()
	s, err := New(Options{
		Clock:         clock,
		Seed:          7,
		MobileLink:    &netsim.Link{}, // zero latency: handshakes and deliveries never wait on a frozen clock
		Pool:          opts,
		IngestShards:  1, // single shard keeps processing order (and hence trace output) deterministic
		TraceCapacity: traceCap,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// quiesce parks the test until the deployment has drained what the last
// advance put in flight (Simulation.Quiesce, the one wait there is).
func quiesce(t *testing.T, s *Simulation) {
	t.Helper()
	if err := s.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// poolLedger reads the pool's sample ledger off the fleet registry; at rest
// samples == published + ackLost + dropped + backlog.
func poolLedger(s *Simulation) (samples, published, ackLost, dropped, backlog uint64) {
	fleet := s.Shards[0].Metrics
	return fleet.Sum("sensocial_sim_samples_total"), fleet.Sum("sensocial_sim_items_published_total"),
		fleet.Sum("sensocial_sim_items_ack_lost_total"), fleet.Sum("sensocial_sim_items_dropped_total"),
		fleet.Sum("sensocial_sim_backlog")
}

// ingested sums a sensocial_ingest_* family over every shard's registry.
func ingested(s *Simulation, family string) (sum uint64) {
	for _, sh := range s.Shards {
		sum += sh.Metrics.Sum(family)
	}
	return sum
}

// TestPooledDevicesPublishThroughBroker drives a pooled fleet on the manual
// clock and checks the full path: scheduled frame ticks sample on cadence,
// backlogs batch, and uploads arrive at the server ingest pipeline with
// per-device attribution intact despite the shared connections.
func TestPooledDevicesPublishThroughBroker(t *testing.T) {
	clock := vclock.NewManual(poolEpoch)
	s := newPooledSim(t, clock, PoolOptions{
		Connections:    2,
		FrameSize:      8,
		SampleInterval: time.Minute,
		UploadBatch:    2,
	}, 0)
	defer s.Close()

	const devices = 20
	if err := s.AddDevices(devices); err != nil {
		t.Fatalf("AddDevices: %v", err)
	}

	var mu sync.Mutex
	seen := make(map[string]int) // deviceID -> items
	var badLabel, badUser int
	s.Shards[0].Server.OnItem(func(i core.Item) {
		mu.Lock()
		defer mu.Unlock()
		seen[i.DeviceID]++
		switch i.Classified {
		case "still", "walking", "running":
		default:
			badLabel++
		}
		if !strings.HasPrefix(i.DeviceID, i.UserID) {
			badUser++
		}
	})

	if err := s.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	if err := s.Pool.WaitReady(30 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}

	// Four sampling cycles: with UploadBatch=2 every device publishes twice,
	// two items per flush (frame offsets are < 2s, so 4m30s covers all).
	clock.Advance(4*time.Minute + 30*time.Second)
	quiesce(t, s)

	fleet := s.Shards[0].Metrics
	for family, want := range map[string]uint64{
		"sensocial_sim_devices":               devices,
		"sensocial_sim_samples_total":         devices * 4,
		"sensocial_sim_items_published_total": devices * 4,
		"sensocial_ingest_processed_total":    devices * 4,
		"sensocial_sim_items_dropped_total":   0,
		"sensocial_sim_publish_errors_total":  0,
		"sensocial_sim_backlog":               0,
	} {
		if got := fleet.Sum(family); got != want {
			t.Errorf("%s = %d, want %d", family, got, want)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != devices {
		t.Fatalf("items from %d devices, want %d", len(seen), devices)
	}
	for id, n := range seen {
		if n != 4 {
			t.Fatalf("device %s delivered %d items, want 4", id, n)
		}
	}
	if badLabel != 0 || badUser != 0 {
		t.Fatalf("%d bad labels, %d bad user attributions", badLabel, badUser)
	}

	// Frame-mates accrued identical energy under full duty (transmission
	// cost is batched per frame flush, so shares differ across frames of
	// different size but never within one).
	first := s.Pool.DrainedMicroAh(0)
	if first <= 0 {
		t.Fatal("device 0 accrued no battery drain")
	}
	for i := 1; i < 8; i++ {
		if got := s.Pool.DrainedMicroAh(i); got != first {
			t.Fatalf("device %d drained %v µAh, frame-mate 0 drained %v", i, got, first)
		}
	}
	if got := s.Pool.DrainedMicroAh(devices - 1); got <= 0 {
		t.Fatal("last device accrued no battery drain")
	}
}

// TestPooledBacklogBoundedWithoutConnection: a fleet whose broker handshake
// can never complete (no virtual time passes, default high-latency link)
// must keep sampling with a capped backlog instead of growing memory.
func TestPooledBacklogBounded(t *testing.T) {
	clock := vclock.NewManual(poolEpoch)
	s, err := New(Options{
		Clock: clock,
		Seed:  7,
		// A link slower than the whole run: the CONNECT stays in flight for
		// the entire test, so the handshake deterministically never
		// completes and no backlog can ever flush.
		MobileLink: &netsim.Link{Latency: 1000 * time.Hour},
		Pool:       PoolOptions{Connections: 1, FrameSize: 16, SampleInterval: time.Minute, UploadBatch: 4, MaxBacklog: 5},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if err := s.AddDevices(16); err != nil {
		t.Fatalf("AddDevices: %v", err)
	}
	if err := s.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	clock.Advance(20 * time.Minute)
	fleet := s.Shards[0].Metrics
	if got := fleet.Sum("sensocial_sim_samples_total"); got != 16*20 {
		t.Fatalf("samples = %d, want %d", got, 16*20)
	}
	// 5 buffered per device, the rest dropped — never published.
	if got := fleet.Sum("sensocial_sim_items_dropped_total"); got != 16*15 {
		t.Fatalf("dropped = %d, want %d", got, 16*15)
	}
	if got := fleet.Sum("sensocial_sim_backlog"); got != 16*5 {
		t.Fatalf("backlog = %d, want %d", got, 16*5)
	}
}

// TestPooledLifecycleErrors pins the misuse surface: adding after start,
// starting twice, empty start, and double close.
func TestPooledLifecycleErrors(t *testing.T) {
	clock := vclock.NewManual(poolEpoch)
	s := newPooledSim(t, clock, PoolOptions{Connections: 1}, 0)
	defer s.Close()

	if err := s.StartPool(); err == nil {
		t.Fatal("Start with no devices succeeded")
	}
	if err := s.AddDevices(0); err == nil {
		t.Fatal("AddDevices(0) succeeded")
	}
	if err := s.AddDevices(3); err != nil {
		t.Fatalf("AddDevices: %v", err)
	}
	if err := s.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	if err := s.AddDevices(1); err == nil {
		t.Fatal("AddDevices after Start succeeded")
	}
	if err := s.StartPool(); err == nil {
		t.Fatal("second Start succeeded")
	}
	s.Pool.Close()
	s.Pool.Close() // idempotent
}

// TestPooledFallbackGoroutineFrames: the pool has no goroutine-per-frame
// fallback. Frames are scheduled events, so a clock that cannot schedule
// them (a scaled clock) is refused and no frame is built.
func TestPooledFallbackGoroutineFrames(t *testing.T) {
	scaled := newPooledSim(t, vclock.NewScaled(poolEpoch, 1200), PoolOptions{Connections: 1}, 0)
	defer scaled.Close()
	if err := scaled.AddDevices(3); err != nil {
		t.Fatalf("AddDevices: %v", err)
	}
	if err := scaled.StartPool(); err == nil || !strings.Contains(err.Error(), "does not schedule events") {
		t.Fatalf("StartPool on a scaled clock = %v, want a refusal", err)
	}
	if frames := scaled.Pool.Frames(); frames != 0 {
		t.Fatalf("refused pool built %d frames", frames)
	}
}
