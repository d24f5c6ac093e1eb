// Command sensocial-sim drives a complete SenSocial deployment — server,
// broker, simulated OSN and a population of simulated devices — through a
// configurable scenario, printing live statistics and an end-of-run
// summary. It is the workload generator behind the scalability discussion
// of §5.5.
//
// Usage:
//
//	sensocial-sim [-devices 10] [-mode auto] [-hours 2] [-speedup 600] [-rate 4] [-trace 4096] [-durable DIR]
//	sensocial-sim -chaos smoke [-devices 128] [-hours 1] [-trace 4096]
//
// With -durable DIR the document store and broker session state journal to
// write-ahead logs under DIR and recover on the next run over the same
// directory (see docs/DURABILITY.md). The "crash" chaos schedule
// kill-restarts the broker mid-run and recovers it from that journal (a
// throwaway directory is used unless -durable pins one).
//
// With -chaos the simulator instead runs a pooled fleet under a fault
// schedule ("smoke", "dtn", or a schedule file — see internal/netsim
// ParseSchedule) with the invariant checks from internal/chaos, and exits
// nonzero if any invariant is violated.
//
// Two device modes exist (-mode auto picks pooled beyond 500 devices or
// with -shards > 1):
//
//   - full: one complete middleware stack per device on a scaled
//     real-time clock, plus simulated OSN activity. Full fidelity; fleets
//     up to a few hundred devices.
//   - pooled: struct-of-arrays device pool running sampling,
//     classification and upload as scheduled events on the manual clock,
//     advancing virtual time as fast as the host allows.
//     This is how `-devices 100000 -hours 1` completes in seconds.
//
// With -trace N the deployment records up to N spans in a ring buffer and
// dumps the canonical trace (see docs/OBSERVABILITY.md) after the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/netsim"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vclock"
)

func main() {
	devices := flag.Int("devices", 10, "number of simulated devices")
	mode := flag.String("mode", "auto", "device mode: auto, full, or pooled")
	hours := flag.Float64("hours", 1, "virtual hours to simulate")
	speedup := flag.Float64("speedup", 600, "virtual seconds per real second (full mode)")
	rate := flag.Float64("rate", 4, "OSN actions per user per virtual hour (full mode)")
	traceCap := flag.Int("trace", 0, "span ring-buffer capacity; dump the trace after the run (0 = off)")
	chaosSched := flag.String("chaos", "", `fault schedule to run the fleet under: "smoke", "dtn", "crash", "cluster", or a schedule file`)
	durableDir := flag.String("durable", "", "directory for WAL+snapshot durability of the docstore and broker sessions (empty = in-memory)")
	shards := flag.Int("shards", 1, "run a consistent-hash sharded cluster of N brokers bridged by subscription summaries (pooled and chaos modes)")
	flag.Parse()

	n := *devices

	if *chaosSched != "" {
		hoursSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "hours" {
				hoursSet = true
			}
		})
		code, err := runChaos(*chaosSched, n, *hours, hoursSet, *traceCap, *durableDir, *shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sensocial-sim:", err)
			os.Exit(1)
		}
		os.Exit(code)
	}
	pooled := false
	switch *mode {
	case "pooled":
		pooled = true
	case "full":
	case "auto":
		// Beyond a few hundred full stacks the goroutine-per-device path
		// stops being the interesting experiment; switch to the pool. A
		// sharded run is a scaling experiment by construction.
		pooled = n > 500 || *shards > 1
	default:
		fmt.Fprintf(os.Stderr, "sensocial-sim: unknown -mode %q (want auto, full or pooled)\n", *mode)
		os.Exit(2)
	}

	var err error
	switch {
	case *shards > 1 && !pooled:
		err = fmt.Errorf("-shards needs the pooled device mode (or -chaos)")
	case pooled:
		err = runPooled(n, *hours, *traceCap, *durableDir, *shards)
	default:
		err = runFull(n, *hours, *speedup, *rate, *traceCap, *durableDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sensocial-sim:", err)
		os.Exit(1)
	}
}

// runPooled drives a pooled fleet on the manual clock, advancing virtual
// time as fast as the host executes the scheduled events. The deployment is
// a consistent-hash ring of the given number of shards: each device uploads
// to its ring owner's broker, and with more than one shard the per-shard
// publish split is reported in the summary.
func runPooled(devices int, hours float64, traceCap int, durableDir string, shards int) error {
	if devices < 1 {
		return fmt.Errorf("need at least one device")
	}
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	deployment, err := sim.New(sim.Options{
		Clock:  clock,
		Seed:   42,
		Shards: shards,
		// The pooled experiment measures scheduler and pipeline cost, not
		// link latency; an instantaneous link also lets the shared MQTT
		// handshakes finish without virtual-time advances.
		MobileLink:    &netsim.Link{},
		TraceCapacity: traceCap,
		DurableDir:    durableDir,
	})
	if err != nil {
		return err
	}
	defer deployment.Close()
	// Every count below is read where it is kept: the pool's ledger on the
	// fleet registry (shard 0's), ingest on each shard's own.
	fleet := deployment.Shards[0].Metrics
	processed := func() (sum uint64) {
		for _, sh := range deployment.Shards {
			sum += sh.Metrics.Sum("sensocial_ingest_processed_total")
		}
		return sum
	}
	publishedByShard := func() []uint64 {
		by := make([]uint64, shards)
		for i := range by {
			by[i] = fleet.Sum("sensocial_sim_items_published_total", sim.ShardID(i))
		}
		return by
	}

	if err := deployment.AddDevices(devices); err != nil {
		return err
	}
	if err := deployment.StartPool(); err != nil {
		return err
	}
	if err := deployment.Pool.WaitReady(30 * time.Second); err != nil {
		return err
	}

	if shards > 1 {
		fmt.Printf("sensocial-sim: %d pooled devices over %d shards, %.1f virtual hours on the manual clock\n",
			devices, shards, hours)
	} else {
		fmt.Printf("sensocial-sim: %d pooled devices, %.1f virtual hours on the manual clock\n", devices, hours)
	}
	minutes := int(hours * 60)
	if minutes < 1 {
		minutes = 1
	}
	var peakHeap uint64
	var ms runtime.MemStats
	//lint:ignore wallclock ns/tick reports real host cost per virtual tick; the virtual clock is the thing being driven
	start := time.Now()
	for m := 1; m <= minutes; m++ {
		clock.Advance(time.Minute)
		// Peak-heap sampling is cheap relative to a 100k-device minute but
		// not free; every 8 virtual minutes still catches the flush peaks.
		if m%8 == 0 || m == minutes {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
		}
		if m%60 == 0 || m == minutes {
			fmt.Printf("  t=%-8s samples=%-9d published=%-9d processed=%-9d drops=%d",
				time.Duration(m)*time.Minute, fleet.Sum("sensocial_sim_samples_total"),
				fleet.Sum("sensocial_sim_items_published_total"), processed(),
				fleet.Sum("sensocial_sim_items_dropped_total"))
			if shards > 1 {
				fmt.Printf(" by-shard=%v", publishedByShard())
			}
			fmt.Println()
		}
	}
	//lint:ignore wallclock see above: real host cost measurement
	elapsed := time.Since(start)

	// Let the brokers and ingest pipelines drain what the last advance
	// published before reading the final counters.
	if err := deployment.Quiesce(time.Minute); err != nil {
		return err
	}

	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peakHeap {
		peakHeap = ms.HeapAlloc
	}
	ticks := fleet.Sum("sensocial_sim_tick_duration_seconds")
	nsPerTick := float64(0)
	if ticks > 0 {
		nsPerTick = float64(elapsed.Nanoseconds()) / float64(ticks)
	}
	virt := time.Duration(minutes) * time.Minute
	fmt.Printf("\nrun summary:\n")
	fmt.Printf("  devices            %d (pooled, %d frames over %d connections)\n",
		devices, deployment.Pool.Frames(), deployment.Pool.Connections())
	fmt.Printf("  virtual time       %s in %s real (%.0fx)\n",
		virt, elapsed.Round(time.Millisecond), virt.Seconds()/elapsed.Seconds())
	fmt.Printf("  ticks              %d (%.0f ns/tick)\n", ticks, nsPerTick)
	fmt.Printf("  peak heap          %d bytes (%.0f bytes/device)\n", peakHeap, float64(peakHeap)/float64(devices))
	fmt.Printf("  samples            %d\n", fleet.Sum("sensocial_sim_samples_total"))
	fmt.Printf("  items published    %d (dropped %d, publish errors %d)\n", fleet.Sum("sensocial_sim_items_published_total"),
		fleet.Sum("sensocial_sim_items_dropped_total"), fleet.Sum("sensocial_sim_publish_errors_total"))
	if shards > 1 {
		fmt.Printf("  published by shard %v (ring: %d virtual nodes/shard)\n",
			publishedByShard(), deployment.Ring.VirtualNodes())
	}
	fmt.Printf("  items processed    %d\n", processed())
	meter := deployment.Pool.Charger().Meter()
	fmt.Printf("  fleet energy       %.1f µAh total, %.2f µAh/device\n",
		meter.TotalMicroAh(), meter.TotalMicroAh()/float64(devices))

	if traceCap > 0 {
		fmt.Println("\ntrace (canonical span dump, offsets from tracer start):")
		for _, sh := range deployment.Shards {
			if shards > 1 {
				fmt.Printf("=== %s ===\n", sh.ID)
			}
			if err := sh.Tracer.WriteText(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// runFull is the original full-fidelity scenario: complete per-user
// middleware stacks plus simulated OSN activity on a scaled clock.
func runFull(users int, hours, speedup float64, rate float64, traceCap int, durableDir string) error {
	if users < 1 {
		return fmt.Errorf("need at least one user")
	}
	clock := vclock.NewScaled(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC), speedup)
	fbDelay := osn.FacebookDelay()
	deployment, err := sim.New(sim.Options{
		Clock:                 clock,
		Seed:                  42,
		FacebookDelay:         &fbDelay,
		ServerProcessingDelay: 8500 * time.Millisecond,
		PersistItems:          true,
		TraceCapacity:         traceCap,
		DurableDir:            durableDir,
	})
	if err != nil {
		return err
	}
	defer deployment.Close()
	shard := deployment.Shards[0]

	cities := []string{"Paris", "Bordeaux", "Lyon", "Toulouse"}
	activities := []sensors.Activity{sensors.ActivityStill, sensors.ActivityWalking, sensors.ActivityRunning}
	var items, triggers int
	var mu sync.Mutex
	analyzer := behavior.NewAnalyzer()
	shard.Server.OnItem(func(i core.Item) {
		analyzer.OnItem(i)
		mu.Lock()
		items++
		if i.Action != nil {
			triggers++
		}
		mu.Unlock()
	})

	fmt.Printf("sensocial-sim: %d users, %.1f virtual hours at %gx\n", users, hours, speedup)
	for i := 0; i < users; i++ {
		name := fmt.Sprintf("user%02d", i)
		city := cities[i%len(cities)]
		profile, err := sim.StationaryProfile(deployment.Places, city,
			sensors.WithPhases(true,
				sensors.Phase{Activity: activities[i%3], Audio: sensors.AudioNoisy, Duration: 30 * time.Minute},
				sensors.Phase{Activity: sensors.ActivityStill, Audio: sensors.AudioSilent, Duration: 30 * time.Minute},
			))
		if err != nil {
			return err
		}
		if _, err := deployment.AddUser(name, profile); err != nil {
			return err
		}
		// Everyone streams classified activity continuously and location +
		// context on OSN actions.
		if err := shard.Server.CreateRemoteStream(core.StreamConfig{
			ID: "act-" + name, DeviceID: name + "-phone", UserID: name,
			Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified,
			Kind: core.KindContinuous, SampleInterval: 5 * time.Minute,
		}); err != nil {
			return err
		}
		if err := shard.Server.CreateRemoteStream(core.StreamConfig{
			ID: "osn-loc-" + name, DeviceID: name + "-phone", UserID: name,
			Modality: sensors.ModalityLocation, Granularity: core.GranularityClassified,
			Kind: core.KindSocialEvent,
		}); err != nil {
			return err
		}
	}

	gen, err := osn.NewGenerator(deployment.Facebook, clock, nil, 7)
	if err != nil {
		return err
	}
	defer gen.Close()
	for i := 0; i < users; i++ {
		name := fmt.Sprintf("user%02d", i)
		if err := gen.SetBehavior(name, osn.Behavior{ActionsPerHour: rate}); err != nil {
			return err
		}
	}
	if err := gen.Run(30 * time.Second); err != nil {
		return err
	}

	start := clock.Now()
	end := start.Add(time.Duration(hours * float64(time.Hour)))
	//lint:ignore wallclock the live stats line paces on real seconds for the human watching, independent of the compressed virtual clock
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	//lint:ignore wallclock real elapsed time feeds the end-of-run summary
	realStart := time.Now()
	var peakHeap uint64
	var ms runtime.MemStats
	for clock.Now().Before(end) {
		<-ticker.C
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
		mu.Lock()
		i, tr := items, triggers
		mu.Unlock()
		fmt.Printf("  t=%-8s items=%-6d osn-coupled=%-5d actions=%-5d broker{pub=%d del=%d conn=%d}\n",
			clock.Since(start).Round(time.Second), i, tr, deployment.Facebook.ActionCount(),
			shard.Metrics.Sum("sensocial_mqtt_published_total"), shard.Metrics.Sum("sensocial_mqtt_delivered_total"),
			shard.Metrics.Sum("sensocial_mqtt_connections"))
	}
	//lint:ignore wallclock see above: real elapsed time for the summary
	elapsed := time.Since(realStart)
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peakHeap {
		peakHeap = ms.HeapAlloc
	}

	mu.Lock()
	totalItems := items
	mu.Unlock()
	fmt.Printf("\nrun summary:\n")
	fmt.Printf("  devices            %d (full middleware stacks)\n", users)
	fmt.Printf("  virtual time       %s in %s real\n",
		time.Duration(hours*float64(time.Hour)).Round(time.Second), elapsed.Round(time.Millisecond))
	fmt.Printf("  peak heap          %d bytes (%.0f bytes/device)\n", peakHeap, float64(peakHeap)/float64(users))
	fmt.Printf("  items processed    %d\n", totalItems)

	// Final per-user energy summary (the §5.5 "each additional user merely
	// adds the cost of a lightweight local library" argument).
	fmt.Println("\nper-device battery use (µAh):")
	for i := 0; i < users && i < 5; i++ {
		name := fmt.Sprintf("user%02d", i)
		h, ok := deployment.Handle(name)
		if !ok {
			continue
		}
		h.Device.AccrueIdle()
		byTask := h.Device.Meter().ByTask()
		fmt.Printf("  %s: total=%.1f sampling=%.1f classification=%.1f transmission=%.1f idle=%.1f\n",
			name, h.Device.Meter().TotalMicroAh(),
			byTask[energy.TaskSampling], byTask[energy.TaskClassification],
			byTask[energy.TaskTransmission], byTask[energy.TaskIdle])
	}

	// Higher-level behaviour descriptors mined from the joined streams
	// (the paper's §9 future work, implemented in internal/behavior).
	fmt.Println("\nbehaviour descriptors (from linked OSN + sensor streams):")
	for _, u := range analyzer.Users() {
		s, err := analyzer.Summarize(u)
		if err != nil {
			continue
		}
		fmt.Printf("  %s: active=%.0f%% sentiment=%+.2f wellbeing=%.2f actions=%d cities=%v topics=%v\n",
			u, s.ActiveFraction*100, s.SentimentBalance, s.Wellbeing, s.OSNActions, s.Cities, s.TopTopics)
	}

	if tr := shard.Tracer; tr != nil {
		fmt.Println("\ntrace (canonical span dump, offsets from tracer start):")
		if err := tr.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
