package sim

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

var clusterEpoch = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)

// newClusterFixture boots a pooled deployment of the given ring size on a
// manual clock over a zero-latency fabric. The fleet is at most one frame
// (64 devices), which publishes through one connection per shard, so every
// flush is a single ordered publish sequence — the same pinning the pooled
// trace determinism test uses.
func newClusterFixture(t *testing.T, shards, devices, traceCap int) (*Simulation, *vclock.Manual) {
	t.Helper()
	clock := vclock.NewManual(clusterEpoch)
	cl, err := New(Options{
		Clock:         clock,
		Seed:          7,
		Shards:        shards,
		MobileLink:    &netsim.Link{},
		IngestShards:  1,
		TraceCapacity: traceCap,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(cl.Close)
	if err := cl.AddDevices(devices); err != nil {
		t.Fatalf("AddDevices: %v", err)
	}
	if err := cl.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	return cl, clock
}

// clusterProcessed sums ingest-processed items across live shards.
func clusterProcessed(cl *Simulation) uint64 {
	var sum uint64
	for _, s := range cl.Shards {
		if s.Alive() {
			sum += s.Metrics.Sum("sensocial_ingest_processed_total")
		}
	}
	return sum
}

// waitCluster polls cond in real time (the zero-latency fabric settles
// in-flight messages without virtual-time advances).
func waitCluster(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// clusterForeign sums the foreign-item skip counter over every shard's own
// registry (shards keep separate registries, like separate processes).
func clusterForeign(cl *Simulation) uint64 {
	var sum uint64
	for _, s := range cl.Shards {
		sum += s.Metrics.Sum("sensocial_cluster_foreign_items_total")
	}
	return sum
}

// publishedTo reads the pool ledger's per-shard publish split.
func publishedTo(cl *Simulation, shard int) uint64 {
	return cl.Shards[0].Metrics.Sum("sensocial_sim_items_published_total", ShardID(shard))
}

// clusterForwarded sums bridge-forwarded publishes over every shard.
func clusterForwarded(cl *Simulation) uint64 {
	var sum uint64
	for _, s := range cl.Shards {
		sum += s.ClusterMetrics.Forwarded.Value()
	}
	return sum
}

// TestClusterShardLocalDelivery checks the scale-out happy path at ring
// sizes 1 and 3: pooled devices spread over the ring, every item ingested
// exactly once, by its ring owner, with zero cross-shard forwarding (no
// shard has a remote subscriber, so the summary-gated bridges stay silent).
func TestClusterShardLocalDelivery(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const devices = 24
			cl, clock := newClusterFixture(t, shards, devices, 0)

			clock.Advance(4 * time.Minute)
			want := uint64(devices * 4)
			quiesce(t, cl)

			if got := cl.Shards[0].Metrics.Sum("sensocial_sim_items_published_total"); got != want {
				t.Fatalf("published %d items, want %d", got, want)
			}
			if got := clusterProcessed(cl); got != want {
				t.Fatalf("processed %d items ring-wide, want exactly %d (no double ingest)", got, want)
			}
			for i, s := range cl.Shards {
				if p := s.Metrics.Sum("sensocial_ingest_processed_total"); p == 0 {
					t.Fatalf("shard %d processed nothing; the ring left it empty", i)
				} else if p != publishedTo(cl, i) {
					t.Fatalf("shard %d processed %d items, want its ring share %d", i, p, publishedTo(cl, i))
				}
				if got := s.ClusterMetrics.RingShards.Value(); got != float64(shards) {
					t.Fatalf("shard %d reports a ring of %v, want %d", i, got, shards)
				}
			}
			if f := clusterForeign(cl); f != 0 {
				t.Fatalf("%v foreign items counted on a shard-local workload", f)
			}
			if fwd := clusterForwarded(cl); fwd != 0 {
				t.Fatalf("%v publishes crossed the bridge with no remote subscriber", fwd)
			}
		})
	}
}

// TestClusterCrossShardDelivery subscribes on shard1 to a device owned by
// shard0: the summary-gated bridge must carry exactly that device's
// uploads across, the subscriber sees them, and shard1's server skips the
// bridged copies as foreign instead of double-processing them.
func TestClusterCrossShardDelivery(t *testing.T) {
	const devices = 24
	cl, clock := newClusterFixture(t, 3, devices, 0)

	dev := -1
	for i := range cl.Pool.ends {
		if cl.Ring.OwnerIndex(user(cl.Pool.id(i))) == 0 {
			dev = i
			break
		}
	}
	if dev < 0 {
		t.Fatal("no pooled device owned by shard0")
	}
	topic := core.StreamDataTopic(cl.Pool.id(dev))

	conn, err := cl.Fabric.Dial("cross-sub", cl.Shards[1].BrokerAddr)
	if err != nil {
		t.Fatalf("dial shard1: %v", err)
	}
	cli, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: "cross-sub", Clock: clock})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	var got atomic.Int64
	if err := cli.Subscribe(topic, 0, func(mqtt.Message) { got.Add(1) }); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	sc := &cluster.MatchScratch{}
	waitCluster(t, "summary propagation to shard0", func() bool {
		return len(cl.Shards[0].Bridge.Index().Match(topic, sc)) == 1
	})

	clock.Advance(4 * time.Minute)
	waitCluster(t, "cross-shard delivery", func() bool { return got.Load() >= 4 })

	want := uint64(devices * 4)
	quiesce(t, cl)
	if p := clusterProcessed(cl); p != want {
		t.Fatalf("processed %d cluster-wide, want %d: bridged copies were double-ingested", p, want)
	}
	if f := clusterForeign(cl); f < 4 {
		t.Fatalf("foreign counter %v, want >= 4 (shard1 must skip-and-count bridged copies)", f)
	}
}

// TestClusterKillShardSurvivorsServe kills one shard permanently — shard 0
// is as killable as any other — and checks that the survivors keep
// ingesting their ring share while the dead shard's devices degrade to
// bounded buffering, and that the pool's item conservation invariant
// survives the kill.
func TestClusterKillShardSurvivorsServe(t *testing.T) {
	for _, victim := range []int{0, 2} {
		t.Run(fmt.Sprintf("victim=%d", victim), func(t *testing.T) {
			const devices = 24
			cl, clock := newClusterFixture(t, 3, devices, 0)

			clock.Advance(4 * time.Minute)
			quiesce(t, cl)
			var pre [3]uint64
			for i := range pre {
				pre[i] = publishedTo(cl, i)
			}

			if err := cl.KillShard(victim); err != nil {
				t.Fatalf("KillShard: %v", err)
			}
			if cl.Shards[victim].Alive() {
				t.Fatalf("shard%d still alive after kill", victim)
			}
			if err := cl.KillShard(victim); err == nil {
				t.Fatal("double kill accepted")
			}
			if err := cl.KillShard(3); err == nil {
				t.Fatal("killing a shard outside the ring accepted")
			}

			for i := 0; i < 3; i++ {
				clock.Advance(4 * time.Minute)
			}
			quiesce(t, cl)

			var survivorShare uint64
			for i := range cl.Shards {
				now := publishedTo(cl, i)
				switch {
				case i == victim && now != pre[i]:
					t.Fatalf("dead shard%d kept receiving publishes (%d -> %d)", i, pre[i], now)
				case i != victim && now <= pre[i]:
					t.Fatalf("surviving shard %d stopped receiving publishes after the kill (%d -> %d)", i, pre[i], now)
				case i != victim:
					survivorShare += now
				}
			}
			if got := clusterProcessed(cl); got != survivorShare {
				t.Fatalf("survivors processed %d, want %d", got, survivorShare)
			}
			// Items for the dead shard end up buffered or dropped, never lost to
			// accounting: samples == published + ackLost + dropped + backlog.
			samples, published, ackLost, dropped, backlog := poolLedger(cl)
			if samples != published+ackLost+dropped+backlog {
				t.Fatalf("conservation violated after kill: samples=%d published=%d ackLost=%d dropped=%d backlog=%d",
					samples, published, ackLost, dropped, backlog)
			}
			if dropped+backlog == 0 {
				t.Fatal("dead shard's devices show neither backlog nor drops")
			}
		})
	}
}

// clusterTraceRun is one deterministic run at the given ring size; it
// returns the concatenated canonical trace dumps of every shard.
func clusterTraceRun(t *testing.T, shards int) string {
	t.Helper()
	const devices = 12
	cl, clock := newClusterFixture(t, shards, devices, 4096)

	const steps = 3
	for i := 1; i <= steps; i++ {
		clock.Advance(4 * time.Minute)
		quiesce(t, cl)
		if got, want := clusterProcessed(cl), uint64(devices*4*i); got != want {
			t.Fatalf("step %d: processed %d items, want %d", i, got, want)
		}
	}
	cl.Close()

	var buf bytes.Buffer
	for _, s := range cl.Shards {
		fmt.Fprintf(&buf, "=== %s ===\n", s.ID)
		if err := s.Tracer.WriteText(&buf); err != nil {
			t.Fatalf("WriteText %s: %v", s.ID, err)
		}
	}
	return buf.String()
}

// TestClusterTraceDeterministicAcrossRuns holds the byte-determinism
// acceptance check at ring sizes 1 and 3: two same-seed runs must produce
// identical concatenated /trace dumps. Bridge control chatter ($cluster/...
// topics) rides real goroutine scheduling and is therefore excluded from
// tracing by the broker.
func TestClusterTraceDeterministicAcrossRuns(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			first := clusterTraceRun(t, shards)
			second := clusterTraceRun(t, shards)
			if first != second {
				t.Fatalf("trace dumps differ across same-seed runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
			}
			for _, span := range []string{"mqtt.route", "ingest.enqueue", "ingest.process"} {
				if !bytes.Contains([]byte(first), []byte(span)) {
					t.Fatalf("trace missing %s spans:\n%s", span, first)
				}
			}
		})
	}
}

// inboundBridges is how many peer bridges hold a session on shard i's
// broker: each one subscribes once to the shard's summary buckets.
func inboundBridges(cl *Simulation, i int) int {
	return cl.Shards[i].Broker.SessionFilters()["$cluster/summary/"+ShardID(i)+"/+"]
}

// TestClusterBridgesSurviveAdvance: on a started three-shard pooled ring,
// every shard's broker holds its two inbound bridge sessions, and after the
// manual clock jumps ten minutes and then one more it holds the same two:
// no broker accepted a new session in between. A bridge's SUBACK and PUBACK
// waits time out on the deployment's clock, so a jump that lands while a
// handshake is still in flight in real time drops the link, and its
// redial then waits on a backoff timer that only the next advance fires.
func TestClusterBridgesSurviveAdvance(t *testing.T) {
	clock := vclock.NewManual(poolEpoch)
	cl := newPoolRing(t, clock, 3)
	if err := cl.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	connects := func() (n []uint64) {
		for _, sh := range cl.Shards {
			n = append(n, sh.Metrics.Sum("sensocial_mqtt_connects_total"))
		}
		return n
	}
	check := func(when string) {
		t.Helper()
		for i := range cl.Shards {
			if got := inboundBridges(cl, i); got != 2 {
				t.Fatalf("%s: %s holds %d inbound bridge sessions, want 2", when, ShardID(i), got)
			}
		}
	}
	check("before the advances")
	before := connects()
	clock.Advance(10 * time.Minute)
	clock.Advance(time.Minute)
	quiesce(t, cl)
	check("after Advance(10m), Advance(1m)")
	if after := connects(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("brokers accepted sessions across the advances: connects %v -> %v", before, after)
	}
}
