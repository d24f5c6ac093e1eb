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
	"repro/internal/core/server/ingest"
	"repro/internal/energy"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/vclock"
)

var poolEpoch = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)

func newPooledSim(t *testing.T, clock vclock.Clock) *Simulation {
	t.Helper()
	s, err := New(Options{
		Clock:        clock,
		Seed:         7,
		MobileLink:   &netsim.Link{}, // zero latency: handshakes and deliveries never wait on a frozen clock
		IngestShards: 1,              // single shard keeps processing order deterministic
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
// clock and checks the full path: scheduled frame ticks sample every
// minute, backlogs batch, and uploads arrive at the server ingest pipeline
// with per-device attribution intact despite the shared connections. The
// 200 devices fill four frames, each on its own connection.
func TestPooledDevicesPublishThroughBroker(t *testing.T) {
	clock := vclock.NewManual(poolEpoch)
	s := newPooledSim(t, clock)
	defer s.Close()

	const devices = 200
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

	// Eight sampling cycles: with a batch of 4 every device publishes twice,
	// four items per flush (frame offsets are < 3s, so 8m30s covers all).
	// The run quiesces after each flush minute.
	clock.Advance(4*time.Minute + 30*time.Second)
	quiesce(t, s)
	clock.Advance(4 * time.Minute)
	quiesce(t, s)

	fleet := s.Shards[0].Metrics
	for family, want := range map[string]uint64{
		"sensocial_sim_devices":               devices,
		"sensocial_sim_samples_total":         devices * 8,
		"sensocial_sim_items_published_total": devices * 8,
		"sensocial_ingest_processed_total":    devices * 8,
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
		if n != 8 {
			t.Fatalf("device %s delivered %d items, want 8", id, n)
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
	const samples = devices * 8
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

// TestAlignedBurstIngestsEveryItem keeps the fleet's worst burst as a
// fixture: every device starts with an empty backlog, so all of them reach
// their batch in the same minute, and one Advance publishes ten times what
// the shipped ingest queues hold (8 shards × 1 024 slots) into one server.
// A full queue pushes back toward the connections instead of shedding, so
// every published item is ingested and nothing is dropped.
func TestAlignedBurstIngestsEveryItem(t *testing.T) {
	const capacity = ingest.DefaultShards * ingest.DefaultQueueDepth
	const devices = 10 * capacity / poolUploadBatch
	clock := vclock.NewManual(poolEpoch)
	s, err := New(Options{Clock: clock, Seed: 7, MobileLink: &netsim.Link{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if err := s.AddDevices(devices); err != nil {
		t.Fatalf("AddDevices: %v", err)
	}
	if err := s.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	// A frame first ticks one interval after start plus its offset in
	// [0, 1 interval), so just short of four intervals every device holds
	// one sample less than a batch, and the next interval flushes them all.
	clock.Advance(poolUploadBatch*poolSampleInterval - time.Nanosecond)
	quiesce(t, s)
	if samples, published, _, _, _ := poolLedger(s); samples != devices*(poolUploadBatch-1) || published != 0 {
		t.Fatalf("%d samples and %d items published before the burst, want %d and 0",
			samples, published, devices*(poolUploadBatch-1))
	}
	clock.Advance(poolSampleInterval)
	quiesce(t, s)
	samples, published, ackLost, dropped, backlog := poolLedger(s)
	if want := uint64(devices * poolUploadBatch); samples != want || published != want || ackLost+dropped+backlog != 0 {
		t.Fatalf("ledger samples=%d published=%d ackLost=%d dropped=%d backlog=%d; want %d published in the one burst",
			samples, published, ackLost, dropped, backlog, want)
	}
	if got := ingested(s, "sensocial_ingest_processed_total"); got != published {
		t.Errorf("ingested %d of %d published items", got, published)
	}
	if got := ingested(s, "sensocial_ingest_dropped_total"); got != 0 {
		t.Errorf("sensocial_ingest_dropped_total = %d, want 0", got)
	}
	// The burst waits in the device backlogs, not in the fabric: a full send
	// window holds the flush back, so no direction of a connection held more
	// than the window plus one write, a pooled upload (about 230 bytes).
	const oneWrite = 512
	peak := s.Shards[0].Metrics.Sum("sensocial_netsim_queued_bytes_max")
	if peak < netsim.SendWindow || peak > netsim.SendWindow+oneWrite {
		t.Errorf("a connection held %d bytes at once, want the %d-byte window plus at most one write", peak, netsim.SendWindow)
	}
}

// TestPooledBacklogBounded: a fleet that can never connect (its link is
// never delay-free, so no slot dials) must keep sampling with a capped
// backlog instead of growing memory. 80 minutes fill the 64-deep backlog
// and overflow it by 16 samples a device.
func TestPooledBacklogBounded(t *testing.T) {
	clock := vclock.NewManual(poolEpoch)
	s, err := New(Options{
		Clock: clock,
		Seed:  7,
		// A link slower than the whole run: the broker path is never
		// delay-free, so no slot dials and no backlog can ever flush.
		MobileLink: &netsim.Link{Latency: 1000 * time.Hour},
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
	if got := s.Shards[0].Metrics.Sum("sensocial_mqtt_connections"); got != 0 {
		t.Fatalf("broker holds %d connections on a link that is never delay-free, want 0", got)
	}
	clock.Advance(80 * time.Minute)
	fleet := s.Shards[0].Metrics
	if got := fleet.Sum("sensocial_sim_samples_total"); got != 16*80 {
		t.Fatalf("samples = %d, want %d", got, 16*80)
	}
	// 64 buffered per device, the rest dropped — never published.
	if got := fleet.Sum("sensocial_sim_items_dropped_total"); got != 16*16 {
		t.Fatalf("dropped = %d, want %d", got, 16*16)
	}
	if got := fleet.Sum("sensocial_sim_backlog"); got != 16*64 {
		t.Fatalf("backlog = %d, want %d", got, 16*64)
	}
}

// poolSessions is how many broker sessions the device pool holds across a
// ring: every session on every shard, less the n-1 inbound bridge sessions
// each shard of an n-shard ring carries.
func poolSessions(s *Simulation) int {
	sum := 0
	for _, sh := range s.Shards {
		sum += int(sh.Metrics.Sum("sensocial_mqtt_connections")) - (len(s.Shards) - 1)
	}
	return sum
}

// poolRingDevices fill eight frames, so on a ring of one every one of the
// eight slots carries a frame.
const poolRingDevices = 8 * 64

// newPoolRing is a deployment of poolRingDevices pooled devices whose
// bridge sessions are all up.
func newPoolRing(t *testing.T, clock *vclock.Manual, shards int) *Simulation {
	t.Helper()
	s, err := New(Options{
		Clock:      clock,
		Seed:       7,
		Shards:     shards,
		MobileLink: &netsim.Link{},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	if err := s.AddDevices(poolRingDevices); err != nil {
		t.Fatalf("AddDevices: %v", err)
	}
	// Bridges dial their peers on their own goroutines; the pool's count is
	// read net of them, so they must all be up first.
	waitCluster(t, "bridge sessions", func() bool { return poolSessions(s) == 0 })
	return s
}

// TestPoolConnectsInStart: on a delay-free link StartPool returns with
// every slot's session open on its shard's broker, with no wait and no
// clock advance.
func TestPoolConnectsInStart(t *testing.T) {
	clock := vclock.NewManual(poolEpoch)
	s := newPoolRing(t, clock, 3)
	if err := s.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	if got, want := poolSessions(s), s.Pool.Connections(); got != want {
		t.Fatalf("brokers hold %d pool sessions right after StartPool, want %d", got, want)
	}
	if !clock.Now().Equal(poolEpoch) {
		t.Fatalf("StartPool moved the clock to %v", clock.Now())
	}
	if errs := s.Shards[0].Metrics.Sum("sensocial_sim_publish_errors_total"); errs != 0 {
		t.Fatalf("%d dial or handshake errors", errs)
	}
}

// TestPoolConnectsAfterHeal starts a fleet partitioned from the server:
// StartPool connects nothing and the devices buffer. After the heal, the
// first flush of each frame connects its slot and drains the backlog with
// backdated, strictly increasing per-device timestamps, and the ledger
// balances. One shard, so no bridge session shares the broker's count:
// bridges redial on their own goroutines and the clock, and may be down
// after an advance.
func TestPoolConnectsAfterHeal(t *testing.T) {
	clock := vclock.NewManual(poolEpoch)
	s := newPoolRing(t, clock, 1)
	var mu sync.Mutex
	last := make(map[string]time.Time)
	violations := 0
	for _, sh := range s.Shards {
		sh.Server.OnItem(func(i core.Item) {
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := last[i.DeviceID]; ok && !i.Time.After(prev) {
				violations++
			}
			last[i.DeviceID] = i.Time
		})
	}

	s.Fabric.Partition([]string{"device-pool"}, []string{"server"})
	if err := s.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	if got := poolSessions(s); got != 0 {
		t.Fatalf("brokers hold %d pool sessions across the partition, want 0", got)
	}
	// Five minutes: the flush at the fourth finds no path and re-buffers,
	// and the backlog stays far below what the ingest queues can take at
	// once after the heal.
	clock.Advance(5 * time.Minute)
	samples, published, _, dropped, backlog := poolLedger(s)
	if samples == 0 || published != 0 || dropped != 0 || backlog != samples {
		t.Fatalf("partitioned: samples %d, published %d, dropped %d, backlog %d; want every sample buffered",
			samples, published, dropped, backlog)
	}

	s.Fabric.Heal()
	clock.Advance(time.Minute)
	quiesce(t, s)
	if got, want := poolSessions(s), s.Pool.Connections(); got != want {
		t.Fatalf("brokers hold %d pool sessions after the heal, want %d", got, want)
	}
	samples, published, ackLost, dropped, backlog := poolLedger(s)
	if published != samples || ackLost != 0 || dropped != 0 || backlog != 0 {
		t.Fatalf("after the heal: samples %d, published %d, ackLost %d, dropped %d, backlog %d; want every sample published",
			samples, published, ackLost, dropped, backlog)
	}
	if got := ingested(s, "sensocial_ingest_processed_total"); got != published {
		t.Fatalf("ingest processed %d items, pool published %d", got, published)
	}
	if errs := s.Shards[0].Metrics.Sum("sensocial_sim_publish_errors_total"); errs != 0 {
		t.Fatalf("%d dial or handshake errors: the pool dialled into the partition", errs)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(last) != poolRingDevices || violations != 0 {
		t.Fatalf("items from %d devices, %d out-of-order timestamps; want %d and 0", len(last), violations, poolRingDevices)
	}
}

// TestPooledLifecycleErrors pins the misuse surface: adding after start,
// starting twice, empty start, and double close.
func TestPooledLifecycleErrors(t *testing.T) {
	clock := vclock.NewManual(poolEpoch)
	s := newPooledSim(t, clock)
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
	scaled := newPooledSim(t, vclock.NewScaled(poolEpoch, 1200))
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

	one := newPooledSim(t, vclock.NewManual(poolEpoch))
	defer one.Close()
	two := newPooledSim(t, vclock.NewManual(poolEpoch))
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
		id := one.Pool.id(i)
		if user(id) != want || id != want+"-phone" {
			t.Fatalf("device %d = %q/%q, want %q", i, user(id), id, want)
		}
		if two.Pool.id(i) != id || two.Pool.shard[i] != one.Pool.shard[i] || two.Pool.phase[i] != one.Pool.phase[i] {
			t.Fatalf("device %d differs between one AddDevices call and two", i)
		}
	}
}

// TestNextPoolName checks incremented names against fmt across the
// points where a name grows by a byte, and poolNamesLen against the sum of
// the lengths it stands for.
func TestNextPoolName(t *testing.T) {
	for _, from := range []int{0, 99_990, 999_990, 9_999_990} {
		var b strings.Builder
		writePoolName(&b, from)
		var buf [32]byte
		name := append(buf[:0], b.String()...)
		for idx := from + 1; idx <= from+20; idx++ {
			name = nextPoolName(name)
			if want := fmt.Sprintf("pool%06d", idx) + "-phone"; string(name) != want {
				t.Fatalf("name after %d increments from %d = %q, want %q", idx-from, from, name, want)
			}
		}
	}
	for _, r := range [][2]int{{0, 1}, {0, 20_000}, {5, 999_999}, {999_998, 1_000_003}, {17, 10_000_005}} {
		want := 0
		for idx := r[0]; idx < r[1]; idx++ {
			want += poolNameLen(idx)
		}
		if got := poolNamesLen(r[0], r[1]); got != want {
			t.Fatalf("poolNamesLen(%d, %d) = %d, want %d", r[0], r[1], got, want)
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
			p.names, p.ends, p.phase, p.shard, p.backlog = nil, nil, nil, nil, nil
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
	if limit := 6.0; !race.Enabled && large > limit {
		t.Fatalf("AddDevices allocates %v times, want at most %v", large, limit)
	}
}

// TestPoolRetainedBytesPerDevice pins what a pooled device costs at rest,
// at sim_fleet's 20 000 devices: its 16-byte id, once, in its AddDevices
// call's string, a 4-byte end offset, a phase byte, a 4-byte ring shard and
// a backlog byte, so at most 27 B. A string header per id and per user
// beside the names read 58 B.
func TestPoolRetainedBytesPerDevice(t *testing.T) {
	const devices = 20_000
	p := standalonePool(t)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	if err := p.AddDevices(devices); err != nil {
		t.Fatal(err)
	}
	per := (float64(heap()) - float64(before)) / devices
	runtime.KeepAlive(p)
	t.Logf("%.1f B/device", per)
	if per > 27 {
		t.Fatalf("pool retains %.1f B per device, want <= 27", per)
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
		p.names, p.ends, p.phase, p.shard, p.backlog = nil, nil, nil, nil, nil
		if err := p.AddDevices(20_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolStart times StartPool on the sim_fleet shape: 20 000 devices
// over three shards, so six of the eight connections, on a
// delay-free link. StartPool returns with every slot connected; building
// the deployment and adding the devices is not timed. Each iteration builds
// a deployment, so run it with a fixed -benchtime count (100x).
func BenchmarkPoolStart(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(Options{Clock: vclock.NewManual(poolEpoch), Seed: 42, Shards: 3, MobileLink: &netsim.Link{}})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AddDevices(20_000); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.StartPool(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for slot := range s.Pool.clients {
			if s.Pool.clients[slot].Load() == nil {
				b.Fatalf("slot %d not connected after StartPool", slot)
			}
		}
		s.Close()
	}
}
