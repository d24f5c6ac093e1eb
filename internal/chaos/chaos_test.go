package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// The fault tallies every chaos test reads off Result.Metrics.
const (
	faults = "sensocial_netsim_faults_total"      // by kind
	resets = "sensocial_netsim_conn_resets_total" // by cause
)

// TestSmokeScheduleZeroViolations runs the CI smoke schedule — every
// fault verb once — against a ring of one and a ring of two, and requires a
// clean invariant report from both.
func TestSmokeScheduleZeroViolations(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			res, err := Run(Options{
				Devices:  128,
				Shards:   shards,
				Schedule: Smoke(),
				Step:     time.Minute,
				Pool: sim.PoolOptions{
					Connections:    4,
					SampleInterval: time.Minute,
					UploadBatch:    2,
				},
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Ok() {
				t.Fatalf("invariant violations:\n%s", strings.Join(res.Violations, "\n"))
			}
			if res.Items == 0 {
				t.Fatalf("no items ingested end to end")
			}
			if got := res.Metrics.Sum(faults); got != uint64(len(Smoke().Faults)) {
				t.Fatalf("engine applied %d of %d faults", got, len(Smoke().Faults))
			}
			if res.Metrics.Sum(faults, "partition") == 0 || res.Metrics.Sum(faults, "latency") == 0 || res.Metrics.Sum(resets, "churn") == 0 {
				t.Fatalf("smoke run missed a fault class: partition, link shaping or churn resets")
			}
			if res.StormClients != 64 {
				t.Fatalf("storm joined %d clients, want 64", res.StormClients)
			}
			if res.ProbesSent == 0 || res.ProbesAcked == 0 {
				t.Fatalf("probe rig idle: %+v", res)
			}
			for i := 0; i < shards; i++ {
				if res.Metrics.Sum("sensocial_sim_items_published_total", sim.ShardID(i)) == 0 {
					t.Fatalf("pool ledger shows nothing published to %s", sim.ShardID(i))
				}
			}
		})
	}
}

// TestDTNBatchUploadOnReconnect keeps the fleet dark for four virtual
// hours at QoS 1 and checks that backlogs batch-upload on reconnect with
// every invariant intact.
func TestDTNBatchUploadOnReconnect(t *testing.T) {
	res, err := Run(Options{
		Devices:  64,
		Schedule: DTN(),
		Step:     5 * time.Minute,
		Pool: sim.PoolOptions{
			Connections:    2,
			SampleInterval: time.Minute,
			UploadBatch:    4,
			MaxBacklog:     512,
			UploadQoS:      1,
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("invariant violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	// The partition must actually have disconnected the fleet, and the
	// post-heal flushes must have drained the dark-time backlog.
	if res.Metrics.Sum(resets, "partition") == 0 {
		t.Fatalf("partition cut no connections")
	}
	if got := res.Metrics.Sum("sensocial_sim_backlog"); got != 0 {
		t.Fatalf("backlog of %d not drained after heal", got)
	}
	// Four dark hours at 1-minute sampling far exceeds MaxBacklog=512?
	// No: 240 samples fit, so nothing may be dropped to overflow either.
	if got := res.Metrics.Sum("sensocial_sim_items_dropped_total"); got != 0 {
		t.Fatalf("DTN run dropped %d items despite sufficient backlog", got)
	}
	if res.Items == 0 {
		t.Fatalf("no items ingested end to end")
	}
}

// TestPartitionReconnect1kDevices is the scale acceptance run: 1000
// pooled devices through a partition/reconnect/churn cycle at QoS 1 with
// all four invariants checked.
func TestPartitionReconnect1kDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-device chaos run skipped in -short")
	}
	sched, err := netsim.ParseSchedule("partition-1k", `
@5m  partition device-pool | server
@12m heal
@18m churn device-pool
`)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	res, err := Run(Options{
		Devices:  1000,
		Schedule: sched,
		Duration: 30 * time.Minute,
		Step:     time.Minute,
		Pool: sim.PoolOptions{
			Connections:    8,
			SampleInterval: time.Minute,
			UploadBatch:    4,
			MaxBacklog:     64,
			UploadQoS:      1,
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("invariant violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if got := res.Metrics.Sum("sensocial_sim_samples_total"); got < 1000 {
		t.Fatalf("pool took %d samples, want some from each of 1000 devices", got)
	}
	if res.Metrics.Sum(resets, "partition") == 0 || res.Metrics.Sum(resets, "churn") == 0 {
		t.Fatalf("faults cut no connections")
	}
	if res.Items == 0 {
		t.Fatalf("no items ingested end to end")
	}
}

// chaosTraceRun executes one deterministic chaos run with tracing and
// returns the canonical dump. Single connection, single frame, single
// ingest shard and a shaping-free QoS 1 schedule pin every ordering
// source, mirroring the sim package's trace determinism tests.
func chaosTraceRun(t *testing.T) []byte {
	t.Helper()
	// Every instant that publishes must be the final instant of an
	// Advance window: the run quiesces there with the clock parked, so
	// the async shard-side ingest spans get deterministic stamps. Flushes
	// happen only on frame ticks (every 1m), so Step=1m makes every tick
	// a window end — a coarser step would let a mid-window catch-up flush
	// race the remainder of the Advance and flap a span stamp into the
	// next minute. The faults sit between ticks and publish nothing.
	sched, err := netsim.ParseSchedule("trace", `
@3m30s partition device-pool | server
@7m30s heal
@9m30s churn device-pool
`)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	res, err := Run(Options{
		Devices:  16,
		Schedule: sched,
		Duration: 14 * time.Minute,
		Step:     time.Minute,
		Pool: sim.PoolOptions{
			Connections:    1,
			FrameSize:      16,
			SampleInterval: time.Minute,
			UploadBatch:    2,
			MaxBacklog:     32,
			UploadQoS:      1,
		},
		TraceCapacity: 8192,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("invariant violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if len(res.Trace) == 0 {
		t.Fatalf("no trace captured")
	}
	return res.Trace
}

// TestChaosTraceByteReplayable reruns the same seeded schedule and
// requires byte-identical canonical trace dumps: chaos runs must be
// replayable, faults included.
func TestChaosTraceByteReplayable(t *testing.T) {
	first := chaosTraceRun(t)
	second := chaosTraceRun(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("trace dumps differ across same-seed chaos runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			first, second)
	}
	for _, span := range []string{"mqtt.route", "ingest.enqueue", "ingest.process"} {
		if !bytes.Contains(first, []byte(span)) {
			t.Fatalf("trace missing %s spans:\n%s", span, first)
		}
	}
}

// TestCrashScheduleRecoversWithInvariants runs the crash preset: the
// broker dies twice mid-run and restarts from its session journal, with a
// churn aftershock between the crashes. Every invariant must hold under
// the relaxed at-least-once probe contract, and the recovered broker must
// drain its in-flight set each time.
func TestCrashScheduleRecoversWithInvariants(t *testing.T) {
	res, err := Run(Options{
		Devices:    64,
		Schedule:   Crash(),
		Step:       time.Minute,
		DurableDir: t.TempDir(),
		Pool: sim.PoolOptions{
			Connections:    2,
			SampleInterval: time.Minute,
			UploadBatch:    2,
			UploadQoS:      1,
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("invariant violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if got := res.Metrics.Sum(faults, "crash"); got != 2 {
		t.Fatalf("engine crashed %d times, want 2", got)
	}
	if res.Items == 0 {
		t.Fatalf("no items ingested end to end")
	}
	if res.ProbesSent == 0 || res.ProbesAcked == 0 {
		t.Fatalf("probe rig idle across the crashes: %+v", res)
	}
}

// TestClusterScheduleKillOneShardSurvives runs the cluster preset against
// a 3-shard deployment: shard2 is killed permanently mid-run and the
// survivors must keep serving their ring shares with every invariant —
// ordering, no duplicate delivery, staleness, conservation — intact, the
// probe rig (on shard0) undisturbed, and the flash crowd still landing.
func TestClusterScheduleKillOneShardSurvives(t *testing.T) {
	res, err := Run(Options{
		Devices:  96,
		Shards:   3,
		Schedule: Cluster(),
		Step:     time.Minute,
		Pool: sim.PoolOptions{
			Connections:    3,
			SampleInterval: time.Minute,
			UploadBatch:    2,
			MaxBacklog:     64,
			UploadQoS:      1,
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("invariant violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if got := res.Metrics.Sum(faults, "kill"); got != 1 {
		t.Fatalf("engine killed %d shards, want 1", got)
	}
	if res.Items == 0 {
		t.Fatalf("no items ingested end to end")
	}
	if res.StormClients != 32 {
		t.Fatalf("storm joined %d clients, want 32", res.StormClients)
	}
	if res.ProbesSent == 0 || res.ProbesAcked == 0 {
		t.Fatalf("probe rig idle across the shard kill: %+v", res)
	}
	// The dead shard's devices must degrade to bounded buffering, not
	// vanish from the ledger.
	if res.Metrics.Sum("sensocial_sim_items_dropped_total")+res.Metrics.Sum("sensocial_sim_backlog") == 0 {
		t.Fatalf("killed shard's devices show neither backlog nor drops")
	}
}

// TestValidateRejectsHostileSchedules covers the schedule validation
// rules: probe hosts are off limits, crash faults need a durable
// directory, and QoS 1 runs reject shaping on the pool path.
func TestValidateRejectsHostileSchedules(t *testing.T) {
	probe, err := netsim.ParseSchedule("bad-probe", "@1m latency chaos-probe server 10ms\n")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if _, err := Run(Options{Devices: 1, Schedule: probe}); err == nil {
		t.Fatalf("schedule targeting probe host accepted")
	}
	shape, err := netsim.ParseSchedule("bad-qos1", "@1m latency device-pool server 10ms\n")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	opts := Options{Devices: 1, Schedule: shape, Pool: sim.PoolOptions{UploadQoS: 1}}
	if _, err := Run(opts); err == nil {
		t.Fatalf("QoS1 run accepted shaping on the pool path")
	}
	opts.Pool.UploadQoS = 0
	if err := validate(opts.withDefaults()); err != nil {
		t.Fatalf("QoS0 shaping schedule rejected: %v", err)
	}
	if _, err := Run(Options{Devices: 1, Schedule: Crash()}); err == nil {
		t.Fatalf("crash schedule without DurableDir accepted")
	}
	kill, err := netsim.ParseSchedule("kill", "@1m kill shard2\n")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if err := validate(Options{Devices: 1, Schedule: kill}.withDefaults()); err == nil {
		t.Fatalf("kill schedule accepted without a cluster")
	}
	if err := validate(Options{Devices: 1, Shards: 2, Schedule: kill}.withDefaults()); err == nil {
		t.Fatalf("kill shard2 accepted on a 2-shard cluster")
	}
	if err := validate(Options{Devices: 1, Shards: 3, Schedule: kill}.withDefaults()); err != nil {
		t.Fatalf("valid cluster kill schedule rejected: %v", err)
	}
	killPool, err := netsim.ParseSchedule("kill-pool", "@1m kill shard0\n")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if err := validate(Options{Devices: 1, Shards: 3, Schedule: killPool}.withDefaults()); err == nil {
		t.Fatalf("killing shard0 (where the probe and storm rigs connect) accepted")
	}
	if err := validate(Options{Devices: 1, Shards: 3, Schedule: Crash(), DurableDir: "x"}.withDefaults()); err == nil {
		t.Fatalf("crash schedule accepted on a cluster")
	}
	// One journal directory cannot hold three shards' logs: the deployment
	// refuses before anything touches the disk.
	journal := filepath.Join(t.TempDir(), "journal")
	if _, err := Run(Options{Devices: 1, Shards: 3, Schedule: Cluster(), DurableDir: journal}); err == nil {
		t.Fatalf("DurableDir accepted on a 3-shard run")
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("rejected run left %s behind (stat err %v)", journal, err)
	}
}

// TestLoadSchedulePresets resolves the built-in names and rejects junk.
func TestLoadSchedulePresets(t *testing.T) {
	for _, name := range []string{"smoke", "dtn", "crash", "cluster"} {
		s, err := LoadSchedule(name)
		if err != nil {
			t.Fatalf("LoadSchedule(%q): %v", name, err)
		}
		if len(s.Faults) == 0 {
			t.Fatalf("preset %q is empty", name)
		}
	}
	if _, err := LoadSchedule("no-such-preset-or-file"); err == nil {
		t.Fatalf("junk schedule arg accepted")
	}
}
