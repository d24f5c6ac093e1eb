// Simulator scaling benchmark: pooled event-driven device scheduling on
// the timer-wheel manual clock, at fleet sizes the goroutine-per-device
// path cannot reach. `make bench-sim` runs it with BENCH_SIM_JSON set and
// records devices vs ns/tick vs heap bytes/device in BENCH_sim.json.
package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// BenchmarkSimDevices advances a pooled fleet through one-minute virtual
// sampling cycles. ns/op is the host cost of one cycle across the whole
// fleet; the reported ns/tick divides by the frame events executed, and
// heap-B/device is live heap per device after the run (the bytes/device
// budget DESIGN.md §11 states).
func BenchmarkSimDevices(b *testing.B) {
	for _, devices := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("devices-%d", devices), func(b *testing.B) {
			benchSimDevices(b, devices)
		})
	}
}

func benchSimDevices(b *testing.B, devices int) {
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	s, err := sim.New(sim.Options{
		Clock:      clock,
		Seed:       42,
		MobileLink: &netsim.Link{}, // zero latency: handshakes complete without advances
		Pool: sim.PoolOptions{
			Connections:    8,
			FrameSize:      64,
			SampleInterval: time.Minute,
			UploadBatch:    4,
		},
	})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	if err := s.AddDevices(devices); err != nil {
		b.Fatalf("AddDevices: %v", err)
	}
	if err := s.StartPool(); err != nil {
		b.Fatalf("StartPool: %v", err)
	}
	if err := s.Pool.WaitReady(30 * time.Second); err != nil {
		b.Fatalf("WaitReady: %v", err)
	}

	const ticksFamily, publishedFamily = "sensocial_sim_tick_duration_seconds", "sensocial_sim_items_published_total"
	fleet := s.Shards[0].Metrics
	ticksBefore, publishedBefore := fleet.Sum(ticksFamily), fleet.Sum(publishedFamily)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		clock.Advance(time.Minute)
	}
	elapsed := time.Since(start)
	b.StopTimer()

	ticks := fleet.Sum(ticksFamily) - ticksBefore
	if ticks == 0 {
		b.Fatal("no frame ticks executed")
	}
	nsPerTick := float64(elapsed.Nanoseconds()) / float64(ticks)
	b.ReportMetric(nsPerTick, "ns/tick")

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapPerDevice := float64(ms.HeapAlloc) / float64(devices)
	b.ReportMetric(heapPerDevice, "heap-B/device")

	recordSimBenchCase(b, simBenchCase{
		Devices:           devices,
		Frames:            s.Pool.Frames(),
		Ticks:             ticks,
		NsPerTick:         round1(nsPerTick),
		NsPerCycle:        round1(float64(elapsed.Nanoseconds()) / float64(b.N)),
		HeapBytesPerDev:   round1(heapPerDevice),
		ItemsPublished:    fleet.Sum(publishedFamily) - publishedBefore,
		SamplesPerAdvance: devices,
	})
}

func round1(v float64) float64 {
	return float64(int64(v*10+0.5)) / 10
}

type simBenchCase struct {
	Devices           int     `json:"devices"`
	Frames            int     `json:"frames"`
	Ticks             uint64  `json:"ticks"`
	NsPerTick         float64 `json:"ns_per_tick"`
	NsPerCycle        float64 `json:"ns_per_virtual_minute"`
	HeapBytesPerDev   float64 `json:"heap_bytes_per_device"`
	ItemsPublished    uint64  `json:"items_published"`
	SamplesPerAdvance int     `json:"samples_per_virtual_minute"`
}

var (
	simBenchMu    sync.Mutex
	simBenchCases = map[string]simBenchCase{}
)

// recordSimBenchCase appends the sub-benchmark's result to the JSON report
// named by BENCH_SIM_JSON (rewritten after every case so partial runs still
// leave a valid file). Unset, the benchmark only reports metrics.
func recordSimBenchCase(b *testing.B, c simBenchCase) {
	path := os.Getenv("BENCH_SIM_JSON")
	if path == "" {
		return
	}
	simBenchMu.Lock()
	defer simBenchMu.Unlock()
	simBenchCases[fmt.Sprintf("devices-%d", c.Devices)] = c
	report := map[string]any{
		"benchmark": "BenchmarkSimDevices",
		"description": "Pooled event-driven simulator scaling: ns/tick is host CPU per frame event " +
			"(64 devices sampled per tick) while a fleet runs one-minute sampling cycles on the " +
			"timer-wheel manual clock; heap_bytes_per_device is live heap per device after the " +
			"timed cycles (GC'd), the memory budget stated in DESIGN.md §11. Sublinear ns/tick " +
			"growth with fleet size is the acceptance criterion: the per-tick cost must stay " +
			"roughly flat from 1k to 100k devices because a tick touches one frame, not the fleet.",
		"environment": map[string]string{
			"goos":      runtime.GOOS,
			"goarch":    runtime.GOARCH,
			"cpu":       hostCPUModel(),
			"benchtime": os.Getenv("BENCH_SIM_BENCHTIME"),
			"date":      time.Now().UTC().Format("2006-01-02"),
		},
		"cases": simBenchCases,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatalf("marshal %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
}

func hostCPUModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
