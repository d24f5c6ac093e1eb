package sim

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/netsim"
	"repro/internal/obs"
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
	var badLabel, badUser, payloadBytes int
	s.Shards[0].Server.OnItem(func(i core.Item) {
		payload, err := i.Encode()
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Errorf("re-encoding %+v: %v", i, err)
		}
		payloadBytes += len(payload)
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

	// The fleet meter charged every sample, classification and upload at
	// the cost model's prices. Sampling and classification cost whole µAh,
	// so their sums are exact; the meter adds one transmission price per
	// frame flush, and summing those in another order may move the last
	// bit, hence the 1e-12 relative bound on transmission alone.
	cost := energy.DefaultCostModel()
	meter := s.Pool.Charger().Meter()
	const samples = devices * 4
	if got, want := meter.TaskLabel(energy.TaskSampling, poolModality), samples*cost.Sampling[poolModality]; got != want {
		t.Errorf("fleet sampling charge = %v µAh, want %v", got, want)
	}
	if got, want := meter.TaskLabel(energy.TaskClassification, poolModality), samples*cost.Classification[poolModality]; got != want {
		t.Errorf("fleet classification charge = %v µAh, want %v", got, want)
	}
	wantTx := samples*cost.TxPerMessage + float64(payloadBytes)*cost.TxPerByte
	if got := meter.TaskLabel(energy.TaskTransmission, poolModality); math.Abs(got-wantTx) > 1e-12*wantTx {
		t.Errorf("fleet transmission charge = %v µAh, want %v (%d messages, %d bytes)", got, wantTx, samples, payloadBytes)
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
	if err := s.Pool.WaitReady(10 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "0/1 connections ready") {
		t.Fatalf("WaitReady on a handshake that cannot complete = %v, want a timeout", err)
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

// TestPoolNames pins pooled names to the fmt formatting they replaced: ring
// placement hashes the user id, so a changed byte would move devices between
// shards. Two AddDevices calls name devices as one call does.
func TestPoolNames(t *testing.T) {
	for _, idx := range []int{0, 9, 99_999, 100_000, 999_999, 1_000_000} {
		var b strings.Builder
		writePoolName(&b, idx)
		want := fmt.Sprintf("pool%06d", idx) + "-phone"
		if b.String() != want || poolNameLen(idx) != len(want) {
			t.Fatalf("name of %d = %q (length %d), want %q", idx, b.String(), poolNameLen(idx), want)
		}
	}

	one := newPooledSim(t, vclock.NewManual(poolEpoch), PoolOptions{}, 0)
	defer one.Close()
	two := newPooledSim(t, vclock.NewManual(poolEpoch), PoolOptions{}, 0)
	defer two.Close()
	if err := one.AddDevices(1500); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1000, 500} {
		if err := two.AddDevices(n); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 1500 {
		want := fmt.Sprintf("pool%06d", i)
		if one.Pool.users[i] != want || one.Pool.ids[i] != want+"-phone" {
			t.Fatalf("device %d = %q/%q, want %q", i, one.Pool.users[i], one.Pool.ids[i], want)
		}
		if two.Pool.ids[i] != one.Pool.ids[i] || two.Pool.users[i] != one.Pool.users[i] ||
			two.Pool.shard[i] != one.Pool.shard[i] || two.Pool.phase[i] != one.Pool.phase[i] {
			t.Fatalf("device %d differs between one AddDevices call and two", i)
		}
	}
}

// standalonePool is a device pool over a three-shard ring with no
// deployment behind it: enough to populate, not to start.
func standalonePool(tb testing.TB) *DevicePool {
	ring, err := cluster.NewRing([]string{ShardID(0), ShardID(1), ShardID(2)}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return &DevicePool{shardOf: ring.OwnerIndex, series: newFleetSeries(obs.NewRegistry(), 3)}
}

// TestAddDevicesAllocs pins set-up to a fixed number of allocations,
// whatever the number of devices: one per column and one name arena. The
// pool stands alone (no deployment, so no background goroutine allocates
// while it is measured) and is emptied before every call.
func TestAddDevicesAllocs(t *testing.T) {
	p := standalonePool(t)
	// The first GC cycle starts the runtime's mark workers, allocations
	// that would otherwise land inside the measurement.
	runtime.GC()
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			p.ids, p.users, p.phase, p.shard, p.backlog = nil, nil, nil, nil, nil
			if err := p.AddDevices(n); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10_000)
	if small != large {
		t.Fatalf("AddDevices allocates %v times for 1000 devices and %v for 10000, want the same count", small, large)
	}
	// Five columns and the arena; the race detector's unfused appends add
	// one allocation per zeroed column and per slices.Grow.
	if limit := 6.0; !raceEnabled && large > limit {
		t.Fatalf("AddDevices allocates %v times, want at most %v", large, limit)
	}
}

// TestPooledDutyCycle runs unconnected pools (the handshake never completes,
// so nothing flushes) at duty cycles 0.5 and 0.3. The expected samples and
// per-device backlogs were recorded from the device-per-cadence pool: frame
// 0 fires at the end of the run and has one tick more than the later frames.
func TestPooledDutyCycle(t *testing.T) {
	for _, tc := range []struct {
		duty    float64
		minutes int
		samples uint64
		backlog [2]uint16 // frame 0 (devices 0-7), frames 1-2 (devices 8-19)
	}{
		{duty: 0.5, minutes: 38, samples: 368, backlog: [2]uint16{19, 18}},
		{duty: 0.3, minutes: 37, samples: 208, backlog: [2]uint16{11, 10}},
	} {
		clock := vclock.NewManual(poolEpoch)
		s, err := New(Options{
			Clock:      clock,
			Seed:       7,
			MobileLink: &netsim.Link{Latency: 1000 * time.Hour},
			Pool: PoolOptions{Connections: 1, FrameSize: 8, SampleInterval: time.Minute,
				UploadBatch: 64, MaxBacklog: 64, DutyCycle: tc.duty},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := s.AddDevices(20); err != nil {
			t.Fatalf("AddDevices: %v", err)
		}
		if err := s.StartPool(); err != nil {
			t.Fatalf("StartPool: %v", err)
		}
		clock.Advance(time.Duration(tc.minutes) * time.Minute)
		samples, _, _, dropped, backlog := poolLedger(s)
		if samples != tc.samples || backlog != tc.samples || dropped != 0 {
			t.Errorf("duty %v: samples %d, backlog %d, dropped %d; want %d, %d, 0",
				tc.duty, samples, backlog, dropped, tc.samples, tc.samples)
		}
		s.Pool.mu.Lock()
		for i, got := range s.Pool.backlog {
			want := tc.backlog[min(i/8, 1)]
			if got != want {
				t.Errorf("duty %v: device %d backlog %d, want %d", tc.duty, i, got, want)
			}
		}
		s.Pool.mu.Unlock()
		s.Close()
	}
}

// BenchmarkPoolAddDevices populates the 20 000-device fleet of the sim_fleet
// benchmark over a three-shard ring, into an emptied stand-alone pool each
// iteration.
func BenchmarkPoolAddDevices(b *testing.B) {
	p := standalonePool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ids, p.users, p.phase, p.shard, p.backlog = nil, nil, nil, nil, nil
		if err := p.AddDevices(20_000); err != nil {
			b.Fatal(err)
		}
	}
}
