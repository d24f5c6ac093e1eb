package shard

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/server/ingest"
	"repro/internal/docstore"
	"repro/internal/mqtt"
	"repro/internal/sensors"
	"repro/internal/vclock"
	"repro/internal/wal"
)

func listenTCP(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// tcpOptions is what cmd/sensocial-server hands New, on ephemeral loopback
// ports.
func tcpOptions() Options {
	return Options{
		Listen:       listenTCP,
		BrokerAddr:   "127.0.0.1:0",
		HTTPAddr:     "127.0.0.1:0",
		Clock:        vclock.NewReal(),
		PersistItems: true,
	}
}

func newTCPShard(t *testing.T, opts Options) *Shard {
	t.Helper()
	sh, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(sh.Stop)
	return sh
}

func connectTCP(t *testing.T, addr, clientID string) *mqtt.Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	cli, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: clientID, Clock: vclock.NewReal()})
	if err != nil {
		t.Fatalf("connect %s: %v", clientID, err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return cli
}

func itemPayload(user string, seq int) (topic string, payload []byte) {
	item := core.Item{
		StreamID:    "s-" + user,
		DeviceID:    user + "-phone",
		UserID:      user,
		Modality:    sensors.ModalityAccelerometer,
		Granularity: core.GranularityClassified,
		Time:        time.Unix(int64(seq), 0).UTC(),
		Classified:  "walking",
	}
	payload, err := item.Encode()
	if err != nil {
		panic(err)
	}
	return core.StreamDataTopic(item.DeviceID), payload
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStopUnderLoadLosesNoAcceptedItem stops a durable shard while QoS 1
// publishers hammer it over real TCP. Stop closes the broker — and with it
// every session reader — before the server drains its pipeline, so nothing is
// enqueued behind a worker that has already exited or shed at a closed
// pipeline while the broker still PUBACKs: every acknowledged item was
// enqueued, every enqueued item was processed, and every processed item is
// in the journal a later process reopens.
func TestStopUnderLoadLosesNoAcceptedItem(t *testing.T) {
	opts := tcpOptions()
	opts.DurableDir = t.TempDir()
	sh := newTCPShard(t, opts)

	const publishers = 16
	var acked atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		user := fmt.Sprintf("user%d", p)
		cli := connectTCP(t, sh.BrokerAddr, user)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; ; seq++ {
				topic, payload := itemPayload(user, seq)
				if cli.Publish(topic, payload, 1, false) != nil {
					return
				}
				acked.Add(1)
			}
		}()
	}
	waitFor(t, "load to build", func() bool {
		return sh.Metrics.Sum("sensocial_ingest_processed_total") >= 50*publishers
	})
	sh.Stop()
	wg.Wait()

	enqueued := sh.Metrics.Sum("sensocial_ingest_enqueued_total")
	processed := sh.Metrics.Sum("sensocial_ingest_processed_total")
	if dropped := sh.Metrics.Sum("sensocial_ingest_dropped_total"); dropped != 0 {
		t.Errorf("%d items shed: the pipeline closed while the broker was still acknowledging", dropped)
	}
	if enqueued != processed {
		t.Errorf("enqueued %d != processed %d: items parked behind an exited worker", enqueued, processed)
	}
	if a := acked.Load(); a > enqueued {
		t.Errorf("%d publishes acknowledged but only %d enqueued", a, enqueued)
	}
	if persisted := sh.Metrics.Sum("sensocial_delivery_persisted_total"); persisted != processed {
		t.Errorf("persisted %d != processed %d", persisted, processed)
	}

	store, _, err := docstore.OpenDurable(filepath.Join(opts.DurableDir, "docstore"),
		wal.Options{Clock: opts.Clock})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer store.Close()
	if n := store.Collection("items").Len(); uint64(n) != processed {
		t.Errorf("reopened store holds %d items, want the %d processed", n, processed)
	}
}

// TestStoppedShardStaysDown: a stopped shard must not bind fresh listeners
// that the idempotent Stop would never join.
func TestStoppedShardStaysDown(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(*Shard) error
	}{
		{"StartHTTP", (*Shard).StartHTTP},
		{"RestartBroker", (*Shard).RestartBroker},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := newTCPShard(t, tcpOptions())
			if err := tc.call(sh); err != nil {
				t.Fatalf("%s on a live shard: %v", tc.name, err)
			}
			sh.Stop()
			if sh.Alive() {
				t.Fatal("Alive after Stop")
			}
			if err := tc.call(sh); err == nil {
				t.Fatalf("%s on a stopped shard succeeded", tc.name)
			}
			for _, addr := range []string{sh.BrokerAddr, sh.HTTPAddr} {
				if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
					_ = conn.Close()
					t.Fatalf("%s still accepts connections after Stop", addr)
				}
			}
		})
	}
}

var (
	docFamilyRE   = regexp.MustCompile("`(sensocial_[a-z0-9_]+)`")
	typeLineRE    = regexp.MustCompile(`(?m)^# TYPE (sensocial_[a-z0-9_]+) [a-z]+$`)
	fleetFamilyRE = regexp.MustCompile(`^sensocial_(sim|netsim|device)_`)
)

// TestTwoShardsOverTCP boots the two-process deployment of README
// "Clustering" in one process: an item published on the shard that owns its
// user reaches a subscriber on the other shard exactly once and only through
// the bridge, the other shard's server skips the bridged copy as foreign, and
// both serve the per-shard half of the docs/OBSERVABILITY.md contract — the
// families cmd/obscheck expects of a shard that exports no fleet.
func TestTwoShardsOverTCP(t *testing.T) {
	ring, err := cluster.NewRing([]string{"shard0", "shard1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var shards []*Shard
	for _, id := range ring.Shards() {
		opts := tcpOptions()
		opts.ID, opts.Ring = id, ring
		sh := newTCPShard(t, opts)
		if err := sh.StartHTTP(); err != nil {
			t.Fatalf("StartHTTP: %v", err)
		}
		shards = append(shards, sh)
	}
	a, b := shards[0], shards[1]
	for _, pair := range [][2]*Shard{{a, b}, {b, a}} {
		addr := pair[1].BrokerAddr
		peer := cluster.Peer{ID: pair[1].ID, Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }}
		if err := pair[0].StartBridge([]cluster.Peer{peer}); err != nil {
			t.Fatalf("StartBridge: %v", err)
		}
	}

	user := ""
	for i := 0; ring.Owner(user) != a.ID; i++ {
		user = fmt.Sprintf("user%d", i)
	}
	topic, payload := itemPayload(user, 1)

	var got atomic.Int64
	sub := connectTCP(t, b.BrokerAddr, "sub-on-b")
	if err := sub.Subscribe(topic, 1, func(mqtt.Message) { got.Add(1) }); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	sc := &cluster.MatchScratch{}
	waitFor(t, "b's subscription summary to reach a", func() bool {
		return len(a.Bridge.Index().Match(topic, sc)) == 1
	})
	if err := connectTCP(t, a.BrokerAddr, "pub-on-a").Publish(topic, payload, 1, false); err != nil {
		t.Fatalf("publish: %v", err)
	}
	waitFor(t, "the bridged copy to be counted foreign on b", func() bool {
		return b.Metrics.Sum("sensocial_cluster_foreign_items_total") == 1
	})
	waitFor(t, "delivery on b", func() bool { return got.Load() >= 1 })
	waitFor(t, "a to process its own item", func() bool {
		return a.Metrics.Sum("sensocial_ingest_processed_total") == 1
	})
	// A duplicate would come from a forwarding loop; give one the time to
	// show up before counting.
	time.Sleep(50 * time.Millisecond)
	if n := got.Load(); n != 1 {
		t.Errorf("subscriber on b received the item %d times, want exactly once", n)
	}
	if fwd := a.ClusterMetrics.Forwarded.Value(); fwd != 1 {
		t.Errorf("a forwarded %v publishes across the bridge, want 1", fwd)
	}
	if n := b.Metrics.Sum("sensocial_ingest_enqueued_total"); n != 0 {
		t.Errorf("b ingested %d items of a user it does not own", n)
	}

	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		resp, err := http.Get("http://" + sh.HTTPAddr + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics on %s: %v", sh.ID, err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics on %s: %s, %v", sh.ID, resp.Status, err)
		}
		exported := make(map[string]bool)
		for _, m := range typeLineRE.FindAllStringSubmatch(string(body), -1) {
			exported[m[1]] = true
		}
		documented := make(map[string]bool)
		for _, m := range docFamilyRE.FindAllStringSubmatch(string(doc), -1) {
			if !fleetFamilyRE.MatchString(m[1]) {
				documented[m[1]] = true
			}
		}
		if len(documented) == 0 {
			t.Fatal("docs/OBSERVABILITY.md documents no per-shard family; parsing bug or gutted doc")
		}
		for name := range documented {
			if !exported[name] {
				t.Errorf("%s: documented family %s not on /metrics", sh.ID, name)
			}
		}
		for name := range exported {
			if !documented[name] {
				t.Errorf("%s: /metrics exports %s, which is not a documented per-shard family", sh.ID, name)
			}
		}
	}
}

// TestFullIngestQueuesDoNotDeadlock holds both shards' only ingest worker
// until its queue is full, so session readers and the bridge link readers
// that carry misrouted uploads to their owner wait on Enqueue. Every path a
// worker takes out of processItem then leads to a reader that is itself
// stalled: a synchronous Hub listener sends a 16 KiB notification per item
// (sendTrigger's PublishLocal), which fans out to subscribers that stopped
// reading their sockets and across the bridge (onLocalPublish) to the
// other shard, whose link reader waits on that shard's full queue; every
// upload also fans out to the stalled subscribers. The notes fill the
// link's socket buffers within a few hundred items, so a worker that
// waited on a full link queue would close the cycle; as it is, every
// upload a shard's own user made to it is processed once the gate opens,
// and nothing is rejected.
func TestFullIngestQueuesDoNotDeadlock(t *testing.T) {
	ring, err := cluster.NewRing([]string{"shard0", "shard1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var shards []*Shard
	for _, id := range ring.Shards() {
		opts := tcpOptions()
		opts.ID, opts.Ring, opts.IngestShards = id, ring, 1
		shards = append(shards, newTCPShard(t, opts))
	}
	a, b := shards[0], shards[1]
	for _, pair := range [][2]*Shard{{a, b}, {b, a}} {
		addr := pair[1].BrokerAddr
		peer := cluster.Peer{ID: pair[1].ID, Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }}
		if err := pair[0].StartBridge([]cluster.Peer{peer}); err != nil {
			t.Fatalf("StartBridge: %v", err)
		}
	}
	owned := func(sh *Shard) string {
		for i := 0; ; i++ {
			if user := fmt.Sprintf("user%d", i); ring.Owner(user) == sh.ID {
				return user
			}
		}
	}
	users := map[*Shard]string{a: owned(a), b: owned(b)}

	note := strings.Repeat("n", 16<<10)
	gate := make(chan struct{})
	sc := &cluster.MatchScratch{}
	for _, sh := range shards {
		sh.Server.OnItem(func(it core.Item) {
			<-gate
			_ = sh.Server.NotifyDevice(it.DeviceID, note)
		})
		subscribeStalled(t, sh.BrokerAddr, "stalled-"+sh.ID, core.StreamDataFilter(), core.DeviceTriggerFilter())
	}
	for _, pair := range [][2]*Shard{{a, b}, {b, a}} {
		topic, _ := itemPayload(users[pair[0]], 0)
		waitFor(t, pair[1].ID+"'s summary to reach "+pair[0].ID, func() bool {
			return len(pair[0].Bridge.Index().Match(topic, sc)) == 1
		})
	}

	// Each shard takes 2 048 uploads from each user: its own, and the other
	// shard's, which its bridge forwards to the owner; the steady stream of
	// those keeps both link readers waiting.
	const perUser = 2048
	var wg sync.WaitGroup
	for _, sh := range shards {
		for _, user := range []string{users[a], users[b]} {
			cli := connectTCP(t, sh.BrokerAddr, "pub-"+user+"-on-"+sh.ID)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := 0; seq < perUser; seq++ {
					topic, payload := itemPayload(user, seq)
					if err := cli.Publish(topic, payload, 0, false); err != nil {
						t.Errorf("publish %s/%d: %v", user, seq, err)
						return
					}
				}
			}()
		}
	}
	for _, sh := range shards {
		waitFor(t, sh.ID+"'s ingest queue to fill", func() bool {
			return sh.Metrics.Sum("sensocial_ingest_backlog") == ingest.DefaultQueueDepth
		})
	}
	close(gate)
	wg.Wait()
	for _, sh := range shards {
		waitFor(t, sh.ID+" to process its own user's uploads", func() bool {
			return sh.Metrics.Sum("sensocial_ingest_processed_total") >= perUser
		})
	}
	for _, sh := range shards {
		if d := sh.Metrics.Sum("sensocial_ingest_dropped_total"); d != 0 {
			t.Errorf("%s rejected %d items", sh.ID, d)
		}
	}
}

// stallConn is a client transport that stops reading once stalled is set,
// until release closes: the subscriber's socket fills, and the broker's
// writer for it blocks.
type stallConn struct {
	net.Conn
	stalled atomic.Bool
	release chan struct{}
}

func (c *stallConn) Read(p []byte) (int, error) {
	if c.stalled.Load() {
		<-c.release
	}
	return c.Conn.Read(p)
}

// subscribeStalled connects a client that subscribes to filters and then
// never reads again while the test runs.
func subscribeStalled(t *testing.T, addr, clientID string, filters ...string) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	conn := &stallConn{Conn: raw, release: make(chan struct{})}
	cli, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: clientID, Clock: vclock.NewReal()})
	if err != nil {
		t.Fatalf("connect %s: %v", clientID, err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	t.Cleanup(func() { close(conn.release) }) // runs first
	for _, filter := range filters {
		if err := cli.Subscribe(filter, 0, func(mqtt.Message) {}); err != nil {
			t.Fatalf("subscribe %s: %v", filter, err)
		}
	}
	conn.stalled.Store(true)
}

// TestDurableShardCheckpointsAfterRecovery: a durable shard compacts its
// document store journal once recovery is done and before it serves, so a
// restart replays only what the run before it wrote, not every run's.
func TestDurableShardCheckpointsAfterRecovery(t *testing.T) {
	opts := tcpOptions()
	opts.DurableDir = t.TempDir()
	var ids []string
	for run, writes := range []int{5, 3, 0} {
		sh, err := New(opts)
		if err != nil {
			t.Fatalf("run %d: New: %v", run, err)
		}
		replayed := sh.Metrics.Sum("sensocial_wal_replayed_records_total")
		if run == 2 && replayed != 3 {
			t.Errorf("run %d replayed %d records, want the 3 run 1 wrote", run, replayed)
		}
		c := sh.store.Collection("probe")
		for _, id := range ids {
			if _, err := c.Get(id); err != nil {
				t.Errorf("run %d: %s written before is gone: %v", run, id, err)
			}
		}
		for i := 0; i < writes; i++ {
			id, err := c.Insert(docstore.Doc{"run": run, "i": i})
			if err != nil {
				t.Fatalf("run %d: Insert: %v", run, err)
			}
			ids = append(ids, id)
		}
		sh.Stop()
	}
}
