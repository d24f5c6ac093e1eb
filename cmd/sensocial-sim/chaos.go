package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
)

// runChaos drives a pooled fleet through the named fault schedule with
// continuous invariant checking and prints the verdict. It returns the
// process exit code: 0 when every invariant held, 1 otherwise.
func runChaos(schedule string, devices int, hours float64, hoursSet bool, traceCap int, durableDir string, shards int) (int, error) {
	sched, err := chaos.LoadSchedule(schedule)
	if err != nil {
		return 0, err
	}
	// Crash schedules need a journal to recover from; when the user did not
	// pin a -durable directory, run against a throwaway one.
	if durableDir == "" && chaos.NeedsDurability(sched) {
		tmp, err := os.MkdirTemp("", "sensocial-chaos-*")
		if err != nil {
			return 0, fmt.Errorf("chaos: temp durable dir: %w", err)
		}
		defer os.RemoveAll(tmp)
		durableDir = tmp
	}
	// Kill faults name their victim shard; grow the cluster to fit when
	// the user did not size it explicitly.
	if min := chaos.MinShards(sched); shards < min {
		shards = min
	}
	opts := chaos.Options{
		Devices:       devices,
		Shards:        shards,
		Schedule:      sched,
		TraceCapacity: traceCap,
		DurableDir:    durableDir,
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	}
	if hoursSet {
		opts.Duration = time.Duration(hours * float64(time.Hour))
	}
	if shards > 1 {
		fmt.Printf("sensocial-sim: %d pooled devices over %d shards under %q fault schedule (%d faults, horizon %s)\n",
			devices, shards, sched.Name, len(sched.Faults), sched.Horizon())
	} else {
		fmt.Printf("sensocial-sim: %d pooled devices under %q fault schedule (%d faults, horizon %s)\n",
			devices, sched.Name, len(sched.Faults), sched.Horizon())
	}

	res, err := chaos.Run(opts)
	if err != nil {
		return 0, err
	}

	fmt.Printf("\nchaos summary:\n")
	fmt.Printf("  steps              %d\n", res.Steps)
	fmt.Printf("  items ingested     %d\n", res.Items)
	// The tallies are series on the fleet registry: faults by kind, forced
	// resets by cause, and the pool's sample ledger.
	faults := func(kinds ...string) (n uint64) {
		for _, k := range kinds {
			n += res.Metrics.Sum("sensocial_netsim_faults_total", k)
		}
		return n
	}
	fmt.Printf("  faults applied     %d (partitions %d, link faults %d, churn resets %d, storm clients %d, crashes %d, shard kills %d)\n",
		res.Metrics.Sum("sensocial_netsim_faults_total"), faults("partition"), faults("latency", "bandwidth", "loss"),
		res.Metrics.Sum("sensocial_netsim_conn_resets_total", "churn"), res.StormClients, faults("crash"), faults("kill"))
	fmt.Printf("  probes             %d sent, %d acked, %d ambiguous\n",
		res.ProbesSent, res.ProbesAcked, res.ProbesAmbiguous)
	fmt.Printf("  pool ledger        samples=%d published=%d ackLost=%d dropped=%d backlog=%d\n",
		res.Metrics.Sum("sensocial_sim_samples_total"), res.Metrics.Sum("sensocial_sim_items_published_total"),
		res.Metrics.Sum("sensocial_sim_items_ack_lost_total"), res.Metrics.Sum("sensocial_sim_items_dropped_total"),
		res.Metrics.Sum("sensocial_sim_backlog"))

	if len(res.Trace) > 0 {
		fmt.Println("\ntrace (canonical span dump, offsets from tracer start):")
		if _, err := os.Stdout.Write(res.Trace); err != nil {
			return 0, err
		}
	}

	if !res.Ok() {
		fmt.Printf("\nINVARIANT VIOLATIONS (%d):\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Printf("  %s\n", v)
		}
		return 1, nil
	}
	fmt.Println("\nall invariants held: per-user ordering, no QoS1 duplicates, snapshot freshness, conservation")
	return 0, nil
}
