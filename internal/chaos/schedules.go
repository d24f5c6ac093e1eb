package chaos

import (
	"fmt"
	"os"

	"repro/internal/netsim"
)

// smokeText exercises every fault verb once in ~35 virtual minutes: a
// latency spike, a bandwidth cap and loss on the pool uplink (QoS 0
// only), a full partition with heal, connection churn and a flash-crowd
// join storm. Short enough for CI, broad enough that every invariant
// path runs.
const smokeText = `
# uplink latency spike, then progressively nastier shaping
@2m  latency device-pool server 80ms 20ms
@6m  bandwidth device-pool server 16384
@10m loss device-pool server 0.2 50ms
@14m heal
# hard partition: devices go dark and buffer
@16m partition device-pool | server
@20m heal
# forced RST churn on the pooled connections
@24m churn device-pool
# flash crowd joins mid-run
@28m storm 64
`

// dtnText is the delay-tolerant-networking scenario: the whole fleet
// goes dark for four virtual hours, batch-uploads its backlog on
// reconnect, then survives a churn aftershock. No shaping verbs, so it
// may run at QoS 1, as its test does; `sensocial-sim -chaos dtn` runs it
// at QoS 0. A device's backlog holds 64 samples; the rest of its dark
// hours' samples are dropped and counted.
const dtnText = `
@30m    partition device-pool | server
@4h30m  heal
@5h     churn device-pool
`

// crashText is the durability scenario: the broker process dies twice
// mid-stream and recovers from its session journal, with a churn
// aftershock between the crashes. No shaping verbs, so it may run at
// QoS 1, as its test does (`sensocial-sim -chaos crash` runs at QoS 0);
// requires Options.DurableDir (validated).
const crashText = `
@8m  crash
@14m churn device-pool
@20m crash
`

// clusterText is the shard-loss scenario for multi-shard deployments
// (Options.Shards >= 3): connection churn as a warm-up, then one shard is
// killed permanently — no restart — while the survivors must keep serving
// their ring shares, and a flash crowd joins afterwards to prove the
// remaining fan-out path still scales. The probe and storm rigs connect
// to shard0, so the victim is always another shard.
const clusterText = `
@6m  churn device-pool
@12m kill shard2
@20m storm 32
`

// Smoke returns the CI smoke-test schedule.
func Smoke() *netsim.Schedule {
	return mustSchedule("smoke", smokeText)
}

// Cluster returns the kill-one-shard scenario (requires Options.Shards >= 3).
func Cluster() *netsim.Schedule {
	return mustSchedule("cluster", clusterText)
}

// Crash returns the broker crash-recovery scenario.
func Crash() *netsim.Schedule {
	return mustSchedule("crash", crashText)
}

// DTN returns the dark-fleet batch-upload scenario.
func DTN() *netsim.Schedule {
	return mustSchedule("dtn", dtnText)
}

// MinShards returns the smallest cluster able to run the schedule: one
// more than the highest shard index a kill fault names, or 0 when the
// schedule kills nothing (any deployment size works).
func MinShards(s *netsim.Schedule) int {
	min := 0
	for _, f := range s.Faults {
		if f.Kind != netsim.FaultKill || len(f.A) != 1 {
			continue
		}
		var k int
		if _, err := fmt.Sscanf(f.A[0], "shard%d", &k); err == nil && k+1 > min {
			min = k + 1
		}
	}
	return min
}

func mustSchedule(name, text string) *netsim.Schedule {
	s, err := netsim.ParseSchedule(name, text)
	if err != nil {
		panic(fmt.Sprintf("chaos: bad built-in schedule %s: %v", name, err))
	}
	return s
}

// LoadSchedule resolves a -chaos argument: a built-in preset name
// ("smoke", "dtn", "crash", "cluster") or a path to a schedule file in
// the netsim DSL.
func LoadSchedule(arg string) (*netsim.Schedule, error) {
	switch arg {
	case "smoke":
		return Smoke(), nil
	case "dtn":
		return DTN(), nil
	case "crash":
		return Crash(), nil
	case "cluster":
		return Cluster(), nil
	}
	text, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("chaos: schedule %q is not a preset and not readable: %w", arg, err)
	}
	return netsim.ParseSchedule(arg, string(text))
}
