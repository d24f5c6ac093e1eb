package cluster

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Bridge integration tests run real brokers over the netsim fabric on a
// manual clock: redialer backoff timers fire on Advance, transport
// progress is real goroutine scheduling, so the poll helper interleaves
// the two.

var testEpoch = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)

type testShard struct {
	id       string
	addr     string
	broker   *mqtt.Broker
	listener net.Listener
	bridge   *Bridge
	mtx      *Metrics
}

type testCluster struct {
	t      *testing.T
	clock  *vclock.Manual
	fabric *netsim.Network
	shards []*testShard
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	clock := vclock.NewManual(testEpoch)
	fabric := netsim.NewNetwork(clock, 1)
	tc := &testCluster{t: t, clock: clock, fabric: fabric}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("shard%d", i)
		sh := &testShard{id: id, addr: id + ":1883"}
		sh.broker = mqtt.NewBroker(mqtt.BrokerOptions{Clock: clock})
		l, err := fabric.Listen(sh.addr)
		if err != nil {
			t.Fatalf("listen %s: %v", sh.addr, err)
		}
		sh.listener = l
		go func() { _ = sh.broker.Serve(l) }()
		tc.shards = append(tc.shards, sh)
	}
	for i, sh := range tc.shards {
		var peers []Peer
		for j, other := range tc.shards {
			if j == i {
				continue
			}
			addr, host := other.addr, sh.id+"-bridge"
			peers = append(peers, Peer{ID: other.id, Dial: func() (net.Conn, error) {
				return fabric.Dial(host, addr)
			}})
		}
		sh.mtx = NewMetrics(obs.NewRegistry())
		bridge, err := NewBridge(BridgeOptions{
			ShardID: sh.id,
			Broker:  sh.broker,
			Peers:   peers,
			Clock:   clock,
			Metrics: sh.mtx,
		})
		if err != nil {
			t.Fatalf("bridge %s: %v", sh.id, err)
		}
		sh.bridge = bridge
	}
	// Teardown order matters: every bridge must stop before any broker
	// dies, or a surviving bridge's redialer can be mid-CONNECT into a
	// broker that will never answer, wedging its Close.
	t.Cleanup(func() {
		for _, sh := range tc.shards {
			_ = sh.bridge.Close()
		}
		for _, sh := range tc.shards {
			_ = sh.listener.Close()
			_ = sh.broker.Close()
		}
		_ = fabric.Close()
	})
	return tc
}

// wait advances the virtual clock while polling cond in real time.
func (tc *testCluster) wait(what string, cond func() bool) {
	tc.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tc.t.Fatalf("timed out waiting for %s", what)
		}
		tc.clock.Advance(250 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
}

// settle gives any in-flight (erroneous) deliveries time to surface.
func (tc *testCluster) settle() {
	for i := 0; i < 20; i++ {
		tc.clock.Advance(250 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
}

func (tc *testCluster) client(host string, shard int) *mqtt.Client {
	tc.t.Helper()
	conn, err := tc.fabric.Dial(host, tc.shards[shard].addr)
	if err != nil {
		tc.t.Fatalf("dial from %s: %v", host, err)
	}
	cli, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: host, Clock: tc.clock})
	if err != nil {
		tc.t.Fatalf("connect %s: %v", host, err)
	}
	tc.t.Cleanup(func() { _ = cli.Close() })
	return cli
}

func TestBridgeForwardsOnlyWithRemoteSubscriber(t *testing.T) {
	tc := newTestCluster(t, 2)
	a, b := tc.shards[0], tc.shards[1]

	var got atomic.Int64
	sub := tc.client("sub-host", 1)
	if err := sub.Subscribe("streamdata/u1", 0, func(m mqtt.Message) { got.Add(1) }); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	// shard0's bridge learns shard1's summary via delta/snapshot.
	tc.wait("summary propagation", func() bool {
		sc := &MatchScratch{}
		return len(a.bridge.Index().Match("streamdata/u1", sc)) == 1
	})

	pub := tc.client("pub-host", 0)
	if err := pub.Publish("streamdata/u1", []byte("x"), 0, false); err != nil {
		t.Fatalf("publish: %v", err)
	}
	tc.wait("cross-shard delivery", func() bool { return got.Load() == 1 })

	// A topic with no remote subscriber must not cross the bridge.
	if err := pub.Publish("streamdata/u2", []byte("y"), 0, false); err != nil {
		t.Fatalf("publish: %v", err)
	}
	tc.settle()
	if n := got.Load(); n != 1 {
		t.Fatalf("subscriber saw %d messages, want 1", n)
	}
	if f := a.mtx.Forwarded.Value(); f != 1 {
		t.Fatalf("shard0 forwarded %d publishes, want 1", f)
	}
	if s := a.mtx.Suppressed.Value(); s == 0 {
		t.Fatal("shard0 suppressed no sends despite unmatched publish")
	}
	_ = b
}

func TestBridgeLoopSuppression(t *testing.T) {
	tc := newTestCluster(t, 3)
	a, b, c := tc.shards[0], tc.shards[1], tc.shards[2]

	// Subscribers to the same filter on every shard: if any bridge
	// re-forwarded a bridged-in publish, somebody would see a duplicate.
	var gotA, gotB, gotC atomic.Int64
	for _, s := range []struct {
		shard int
		got   *atomic.Int64
	}{{0, &gotA}, {1, &gotB}, {2, &gotC}} {
		cli := tc.client(fmt.Sprintf("sub%d-host", s.shard), s.shard)
		got := s.got
		if err := cli.Subscribe("osn/status/#", 0, func(m mqtt.Message) { got.Add(1) }); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
	}
	tc.wait("summaries propagated", func() bool {
		sc := &MatchScratch{}
		return len(a.bridge.Index().Match("osn/status/u1", sc)) == 2 &&
			len(b.bridge.Index().Match("osn/status/u1", sc)) == 2 &&
			len(c.bridge.Index().Match("osn/status/u1", sc)) == 2
	})

	pub := tc.client("pub-host", 0)
	if err := pub.Publish("osn/status/u1", []byte("hi"), 1, false); err != nil {
		t.Fatalf("publish: %v", err)
	}
	tc.wait("all three deliveries", func() bool {
		return gotA.Load() >= 1 && gotB.Load() >= 1 && gotC.Load() >= 1
	})
	tc.settle()
	if gotA.Load() != 1 || gotB.Load() != 1 || gotC.Load() != 1 {
		t.Fatalf("delivery counts a=%d b=%d c=%d, want exactly 1 each (A→B must not echo A→B→A or relay A→B→C)",
			gotA.Load(), gotB.Load(), gotC.Load())
	}
	if b.mtx.LoopSuppressed.Value() == 0 && c.mtx.LoopSuppressed.Value() == 0 {
		t.Fatal("no bridged-in publish was loop-suppressed on the receiving shards")
	}
	if a.mtx.Forwarded.Value() != 2 {
		t.Fatalf("origin shard forwarded %d, want 2 (one per interested peer)", a.mtx.Forwarded.Value())
	}
}

func TestBridgeSummaryResyncAfterPartition(t *testing.T) {
	tc := newTestCluster(t, 2)
	a, b := tc.shards[0], tc.shards[1]

	subOld := tc.client("old-host", 1)
	if err := subOld.Subscribe("streamdata/u1", 0, func(mqtt.Message) {}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	tc.wait("initial summary", func() bool {
		sc := &MatchScratch{}
		return len(a.bridge.Index().Match("streamdata/u1", sc)) == 1
	})

	// Cut shard0's bridge link to shard1 (PR 8 partition verb semantics:
	// established conns reset, dials refused until heal).
	tc.fabric.Partition([]string{"shard0-bridge"}, []string{"shard1"})

	// While shard0 is deaf, shard1's summary changes: one filter leaves,
	// another arrives. The deltas published now are lost to shard0.
	if err := subOld.Unsubscribe("streamdata/u1"); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}
	var got atomic.Int64
	subNew := tc.client("new-host", 1)
	if err := subNew.Subscribe("osn/u9", 0, func(mqtt.Message) { got.Add(1) }); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	tc.settle()

	tc.fabric.Heal()
	// Reconnect resubscribes, the retained snapshot replays, and the
	// sync request covers the race: shard0 must converge on the new set.
	tc.wait("summary convergence after heal", func() bool {
		sc := &MatchScratch{}
		return len(a.bridge.Index().Match("osn/u9", sc)) == 1 &&
			len(a.bridge.Index().Match("streamdata/u1", sc)) == 0
	})
	if a.mtx.SummaryResyncs.Value() == 0 {
		t.Fatal("no resync was requested across the partition heal")
	}

	// And the converged summary is live: a publish on shard0 reaches the
	// post-partition subscriber on shard1.
	pub := tc.client("pub-host", 0)
	if err := pub.Publish("osn/u9", []byte("z"), 0, false); err != nil {
		t.Fatalf("publish: %v", err)
	}
	tc.wait("post-heal delivery", func() bool { return got.Load() == 1 })
	_ = b
}

func TestBridgeVersionGapTriggersResync(t *testing.T) {
	tc := newTestCluster(t, 2)
	a, b := tc.shards[0], tc.shards[1]

	sub := tc.client("sub-host", 1)
	if err := sub.Subscribe("streamdata/u1", 0, func(mqtt.Message) {}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	tc.wait("initial summary", func() bool {
		sc := &MatchScratch{}
		return len(a.bridge.Index().Match("streamdata/u1", sc)) == 1
	})
	// The link's connect-time sync request must be answered first: while it
	// is pending, a gap joins it rather than counting a new resync.
	link := a.bridge.links[0]
	tc.wait("connect-time sync answered", func() bool {
		link.mu.Lock()
		defer link.mu.Unlock()
		return a.mtx.SummaryResyncs.Value() > 0 && link.synced && !link.syncPending
	})
	before := a.mtx.SummaryResyncs.Value()

	// Inject a delta far ahead of shard1's real version directly onto its
	// summary topic: shard0 must detect the gap and request a snapshot,
	// converging back to the true set instead of trusting the delta.
	if err := b.broker.PublishLocal(mqtt.Message{
		Topic:   summaryTopicPrefix + "shard1",
		Payload: appendDelta(nil, 1000, opAdd, "bogus/filter"),
	}); err != nil {
		t.Fatalf("inject delta: %v", err)
	}
	tc.wait("gap resync", func() bool { return a.mtx.SummaryResyncs.Value() > before })
	tc.wait("converged past injected gap", func() bool {
		sc := &MatchScratch{}
		return len(a.bridge.Index().Match("streamdata/u1", sc)) == 1 &&
			len(a.bridge.Index().Match("bogus/filter", sc)) == 0
	})
}
