// Cluster scale-out benchmark suite (DESIGN.md §12): three criteria for
// the consistent-hash sharded deployment, recorded into BENCH_cluster.json
// by `make bench-cluster` (BENCH_CLUSTER_JSON set).
//
//	(a) fanout:    aggregate fan-out throughput of a 3-shard ring vs a
//	               single shard on a shard-local workload. Each shard
//	               terminates its own bandwidth-shaped ingress uplink —
//	               the resource a new shard actually adds in a real
//	               deployment, where every shard is a separate machine
//	               with its own NIC. CPU stays shared in-process, so the
//	               uplink bandwidth is pinned low enough that network
//	               capacity, not the host's cores, is the binding
//	               constraint, exactly as in the deployment the bench
//	               models.
//	(b) bridge:    cross-shard PUBLISH volume with no remote subscriber —
//	               the summary-gated bridge sends nothing while a naive
//	               flood-all-peers bridge would send publishes × peers —
//	               plus the targeted contrast where exactly one remote
//	               shard subscribes and exactly one link carries traffic.
//	(c) peer-index: per-publish bridge-check cost (PeerIndex.Match) as the
//	               peer count grows 2 → 32: a trie walk keyed by the
//	               topic, not a per-peer scan, so ns/match stays flat.
package repro

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/vclock"
)

func BenchmarkCluster(b *testing.B) {
	b.Run("fanout/shards-1", func(b *testing.B) { benchClusterFanout(b, 1) })
	b.Run("fanout/shards-3", func(b *testing.B) { benchClusterFanout(b, 3) })
	b.Run("bridge/suppression", func(b *testing.B) { benchBridgeSuppression(b, false) })
	b.Run("bridge/targeted-forward", func(b *testing.B) { benchBridgeSuppression(b, true) })
	for _, peers := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("peer-index/peers-%d", peers), func(b *testing.B) {
			benchPeerIndexMatch(b, peers)
		})
	}
}

// benchClusterShard is one broker of a benchmark mesh plus its bridge,
// its ingress publisher client and the delivery counter its local
// subscribers bump.
type benchClusterShard struct {
	id        string
	addr      string
	broker    *mqtt.Broker
	bridge    *cluster.Bridge
	bm        *cluster.Metrics
	pub       *mqtt.Client
	delivered atomic.Int64
}

type benchClusterMesh struct {
	fabric *netsim.Network
	shards []*benchClusterShard
}

// newBenchClusterMesh boots `shards` brokers on one fabric, spreads
// `groups` subscriber groups across them round-robin (group g on shard
// g%shards, subsPerGroup wire sessions each on filter bench/g<g>/#),
// dials one ingress publisher conn per shard, and — when sharded —
// bridges the brokers full-mesh with per-shard metrics registries.
// uplinkBps > 0 shapes each publisher→broker link to that bandwidth
// (the per-shard ingress capacity); return-path acks stay unshaped.
func newBenchClusterMesh(b *testing.B, shards, groups, subsPerGroup int, uplinkBps float64) *benchClusterMesh {
	b.Helper()
	mesh := &benchClusterMesh{fabric: netsim.NewNetwork(vclock.NewReal(), 1)}
	var clients []*mqtt.Client
	for i := 0; i < shards; i++ {
		s := &benchClusterShard{id: fmt.Sprintf("bshard%d", i)}
		s.addr = s.id + ":1883"
		s.bm = cluster.NewMetrics(obs.NewRegistry())
		s.broker = mqtt.NewBroker(mqtt.BrokerOptions{})
		l, err := mesh.fabric.Listen(s.addr)
		if err != nil {
			b.Fatal(err)
		}
		go func(br *mqtt.Broker, l net.Listener) { _ = br.Serve(l) }(s.broker, l)
		mesh.shards = append(mesh.shards, s)
	}

	for g := 0; g < groups; g++ {
		s := mesh.shards[g%shards]
		filter := fmt.Sprintf("bench/g%d/#", g)
		for j := 0; j < subsPerGroup; j++ {
			conn, err := mesh.fabric.Dial(fmt.Sprintf("bsub-g%d-%d", g, j), s.addr)
			if err != nil {
				b.Fatal(err)
			}
			c, err := mqtt.Connect(conn, mqtt.ClientOptions{
				ClientID: fmt.Sprintf("bsub-g%d-%d", g, j), AckTimeout: 30 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			clients = append(clients, c)
			if err := c.Subscribe(filter, 0, func(mqtt.Message) { s.delivered.Add(1) }); err != nil {
				b.Fatal(err)
			}
		}
	}

	for i, s := range mesh.shards {
		host := fmt.Sprintf("bpub%d", i)
		if uplinkBps > 0 {
			mesh.fabric.SetLink(host, s.id, netsim.Link{BandwidthBps: uplinkBps})
			mesh.fabric.SetLink(s.id, host, netsim.Link{})
		}
		conn, err := mesh.fabric.Dial(host, s.addr)
		if err != nil {
			b.Fatal(err)
		}
		if s.pub, err = mqtt.Connect(conn, mqtt.ClientOptions{ClientID: host, AckTimeout: 30 * time.Second}); err != nil {
			b.Fatal(err)
		}
		clients = append(clients, s.pub)
	}

	if shards > 1 {
		for i, s := range mesh.shards {
			var peers []cluster.Peer
			for j, p := range mesh.shards {
				if j == i {
					continue
				}
				addr := p.addr
				src := s.id + "-bridge"
				peers = append(peers, cluster.Peer{ID: p.id, Dial: func() (net.Conn, error) {
					return mesh.fabric.Dial(src, addr)
				}})
			}
			br, err := cluster.NewBridge(cluster.BridgeOptions{
				ShardID: s.id, Broker: s.broker, Peers: peers,
				Metrics: s.bm, QueueSize: 1024,
			})
			if err != nil {
				b.Fatal(err)
			}
			s.bridge = br
		}
	}

	// Bridges close before any broker dies so no peer link is torn down
	// mid-handshake into a dead listener.
	b.Cleanup(func() {
		for _, s := range mesh.shards {
			if s.bridge != nil {
				_ = s.bridge.Close()
			}
		}
		for _, c := range clients {
			_ = c.Close()
		}
		for _, s := range mesh.shards {
			_ = s.broker.Close()
		}
		_ = mesh.fabric.Close()
	})

	// Wait until every bridge has absorbed its peers' summaries: each
	// group advertises exactly one filter from its home shard.
	if shards > 1 && groups > 0 {
		for i, s := range mesh.shards {
			want := 0
			for g := 0; g < groups; g++ {
				if g%shards != i {
					want++
				}
			}
			br := s.bridge
			waitClusterBench(b, fmt.Sprintf("%s summary sync", s.id), func() bool {
				return br.Index().Len() == want
			})
		}
	}
	return mesh
}

// waitClusterBench polls cond off the benchmark clock with a real-time
// deadline; the sleep keeps the single-core scheduler free for the
// goroutines doing the actual work.
func waitClusterBench(b *testing.B, what string, cond func() bool) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			b.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// benchClusterFanout measures aggregate shard-local fan-out throughput:
// b.N publishes split across the shards' ingress uplinks, each fanning
// out to its group's 8 local subscribers, timed until every delivery
// lands. The uplinks are shaped to 1 MiB/s each, so a 3-shard ring has
// 3× the ingress capacity of a single shard — the scale-out claim the
// recorded speedup verifies (criterion (a): ≥ 2×).
func benchClusterFanout(b *testing.B, shards int) {
	const groups, subsPerGroup = 3, 8
	const uplinkBps = float64(1 << 20)
	mesh := newBenchClusterMesh(b, shards, groups, subsPerGroup, uplinkBps)
	payload := make([]byte, 256)

	type plan struct {
		s      *benchClusterShard
		n      int
		topics []string
	}
	plans := make([]plan, shards)
	for i, s := range mesh.shards {
		plans[i].s = s
		for g := 0; g < groups; g++ {
			if g%shards != i {
				continue
			}
			for d := 0; d < 16; d++ {
				plans[i].topics = append(plans[i].topics, fmt.Sprintf("bench/g%d/dev%d", g, d))
			}
		}
	}
	for i := 0; i < shards; i++ {
		plans[i].n = b.N / shards
		if i < b.N%shards {
			plans[i].n++
		}
	}

	errCh := make(chan error, shards)
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for _, p := range plans {
		if p.n == 0 {
			continue
		}
		wg.Add(1)
		go func(p plan) {
			defer wg.Done()
			for k := 0; k < p.n; k++ {
				if err := p.s.pub.Publish(p.topics[k%len(p.topics)], payload, 0, false); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, p := range plans {
		want := int64(p.n) * subsPerGroup
		s := p.s
		waitClusterBench(b, s.id+" deliveries", func() bool { return s.delivered.Load() >= want })
	}
	elapsed := time.Since(start)
	b.StopTimer()
	select {
	case err := <-errCh:
		b.Fatal(err)
	default:
	}

	pubPerSec := float64(b.N) / elapsed.Seconds()
	b.ReportMetric(pubPerSec, "pub/s")
	b.ReportMetric(pubPerSec*subsPerGroup, "deliv/s")

	c := map[string]any{
		"shards":                shards,
		"groups":                groups,
		"subscribers_per_group": subsPerGroup,
		"uplink_bytes_per_sec":  uplinkBps,
		"publishes":             b.N,
		"deliveries":            b.N * subsPerGroup,
		"elapsed_ms":            round1(float64(elapsed.Nanoseconds()) / 1e6),
		"publishes_per_sec":     round1(pubPerSec),
		"deliveries_per_sec":    round1(pubPerSec * subsPerGroup),
	}
	clusterBenchMu.Lock()
	if shards == 1 {
		benchFanoutSingleShard = pubPerSec
	} else if benchFanoutSingleShard > 0 {
		c["speedup_vs_single_shard"] = round2(pubPerSec / benchFanoutSingleShard)
	}
	clusterBenchMu.Unlock()
	recordClusterBenchCase(b, fmt.Sprintf("fanout-shards-%d", shards), c)
}

// benchBridgeSuppression measures criterion (b) on a 3-shard mesh with
// unshaped links. Without a remote subscriber every publish is suppressed
// on both links (forwarded stays 0 while a naive flood bridge would send
// publishes × 2); with one remote subscriber on shard1, exactly one link
// carries exactly the publish volume and shard1's bridge loop-suppresses
// every re-injected copy.
func benchBridgeSuppression(b *testing.B, remote bool) {
	mesh := newBenchClusterMesh(b, 3, 0, 0, 0)
	s0 := mesh.shards[0]
	var delivered atomic.Int64
	if remote {
		conn, err := mesh.fabric.Dial("bwatch", mesh.shards[1].addr)
		if err != nil {
			b.Fatal(err)
		}
		c, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: "bwatch", AckTimeout: 30 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Close() })
		if err := c.Subscribe("streamdata/#", 0, func(mqtt.Message) { delivered.Add(1) }); err != nil {
			b.Fatal(err)
		}
		waitClusterBench(b, "remote summary", func() bool { return s0.bridge.Index().Len() == 1 })
	}

	topics := make([]string, 64)
	for i := range topics {
		topics[i] = fmt.Sprintf("streamdata/dev%d", i)
	}
	payload := make([]byte, 64)
	fwd := func() uint64 { return s0.bm.Forwarded.Value() }

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := s0.pub.Publish(topics[i%len(topics)], payload, 0, false); err != nil {
			b.Fatal(err)
		}
		// Drain the bridge queue periodically so a fast publisher can
		// never overflow it: dropped forwards would understate volume.
		if remote && i%128 == 127 {
			n := uint64(i + 1)
			waitClusterBench(b, "bridge forwards", func() bool { return fwd() >= n })
		}
	}
	if remote {
		waitClusterBench(b, "all forwards", func() bool { return fwd() == uint64(b.N) })
		waitClusterBench(b, "remote deliveries", func() bool { return delivered.Load() == int64(b.N) })
		loop := mesh.shards[1].bm.LoopSuppressed
		waitClusterBench(b, "loop suppression", func() bool { return loop.Value() == uint64(b.N) })
	} else {
		want := 2 * uint64(b.N)
		waitClusterBench(b, "suppression count", func() bool { return s0.bm.Suppressed.Value() == want })
	}
	elapsed := time.Since(start)
	b.StopTimer()

	name := "bridge-suppression"
	c := map[string]any{
		"shards":            3,
		"peers_per_shard":   2,
		"publishes":         b.N,
		"forwarded":         s0.bm.Forwarded.Value(),
		"suppressed":        s0.bm.Suppressed.Value(),
		"dropped":           s0.bm.Dropped.Value(),
		"naive_flood_sends": 2 * b.N,
		"ns_per_publish":    round1(float64(elapsed.Nanoseconds()) / float64(b.N)),
	}
	if remote {
		name = "bridge-targeted-forward"
		c["remote_subscribers"] = 1
		c["delivered_remote"] = delivered.Load()
		c["loop_suppressed_remote"] = mesh.shards[1].bm.LoopSuppressed.Value()
	}
	recordClusterBenchCase(b, name, c)
}

// benchPeerIndexMatch measures criterion (c): the per-publish bridge
// check against the merged peer-summary trie. Every peer carries 64
// exact streamdata filters plus a wildcard family; the probed topic
// matches exactly one peer, and ns/match must stay flat from 2 to 32
// peers because the walk is keyed by the topic's segments, never by
// iterating peers.
func benchPeerIndexMatch(b *testing.B, peers int) {
	const filtersPerPeer = 64
	x := cluster.NewPeerIndex(peers)
	for p := 0; p < peers; p++ {
		for k := 0; k < filtersPerPeer; k++ {
			x.Add(p, fmt.Sprintf("streamdata/p%d-dev%d", p, k))
		}
		x.Add(p, fmt.Sprintf("notify/p%d/#", p))
	}
	sc := &cluster.MatchScratch{}
	const topic = "streamdata/p1-dev7"
	const inner = 512
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for j := 0; j < inner; j++ {
			if got := x.Match(topic, sc); len(got) != 1 {
				b.Fatalf("Match returned %d peers, want 1", len(got))
			}
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	ns := float64(elapsed.Nanoseconds()) / float64(b.N*inner)
	b.ReportMetric(ns, "ns/match")

	c := map[string]any{
		"peers":           peers,
		"indexed_filters": peers * (filtersPerPeer + 1),
		"ns_per_match":    round1(ns),
	}
	clusterBenchMu.Lock()
	if peers == 2 {
		benchPeerIndexBaseNs = ns
	} else if benchPeerIndexBaseNs > 0 {
		c["ns_ratio_vs_2_peers"] = round2(ns / benchPeerIndexBaseNs)
	}
	clusterBenchMu.Unlock()
	recordClusterBenchCase(b, fmt.Sprintf("peer-index-peers-%d", peers), c)
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

var (
	clusterBenchMu         sync.Mutex
	clusterBenchCases      = map[string]any{}
	benchFanoutSingleShard float64
	benchPeerIndexBaseNs   float64
)

// recordClusterBenchCase appends the sub-benchmark's result to the JSON
// report named by BENCH_CLUSTER_JSON (rewritten after every case so a
// partial run still leaves a valid file). Unset, the benchmark only
// reports metrics.
func recordClusterBenchCase(b *testing.B, name string, c map[string]any) {
	path := os.Getenv("BENCH_CLUSTER_JSON")
	if path == "" {
		return
	}
	clusterBenchMu.Lock()
	defer clusterBenchMu.Unlock()
	clusterBenchCases[name] = c
	report := map[string]any{
		"benchmark": "BenchmarkCluster",
		"description": "Horizontal scale-out acceptance (DESIGN.md §12). fanout: aggregate shard-local " +
			"fan-out throughput, one bandwidth-shaped 1 MiB/s ingress uplink per shard (the resource a " +
			"new shard adds — its own machine's network capacity; CPU is shared in-process, so the " +
			"uplink is pinned as the binding constraint); speedup_vs_single_shard must be >= 2 at 3 " +
			"shards. bridge-suppression: cross-shard PUBLISH volume with no remote subscriber must be " +
			"0 where a naive flood bridge sends publishes x peers; bridge-targeted-forward shows one " +
			"remote subscriber pulls exactly the publish volume over exactly one link, loop-suppressed " +
			"on arrival. peer-index: the per-publish bridge check is one FilterTrie walk, so " +
			"ns_per_match stays flat from 2 to 32 peers (ns_ratio_vs_2_peers ~ 1, not ~ 16).",
		"environment": map[string]string{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpu":        hostCPUModel(),
			"gomaxprocs": fmt.Sprintf("%d", runtime.GOMAXPROCS(0)),
			"benchtime":  os.Getenv("BENCH_CLUSTER_BENCHTIME"),
			"date":       time.Now().UTC().Format("2006-01-02"),
		},
		"cases": clusterBenchCases,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatalf("marshal %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
}
