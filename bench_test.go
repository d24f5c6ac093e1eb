// Root benchmark suite: one testing.B benchmark per table and figure of
// the paper (delegating to internal/experiments and reporting headline
// metrics), micro-benchmarks of the middleware hot paths, and ablation
// benches for the design choices called out in DESIGN.md.
//
// Run: go test -bench=. -benchmem .
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/docstore"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// --- Table and figure reproductions -----------------------------------

func BenchmarkTable1SourceCode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MobileLines), "mobile-loc")
		b.ReportMetric(float64(res.ServerLines), "server-loc")
	}
}

func BenchmarkTable2MemoryFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SenSocialHeapBytes), "sensocial-heap-B")
		b.ReportMetric(float64(res.GARHeapBytes), "gar-heap-B")
	}
}

func BenchmarkTable3TriggerDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ToServerMean.Seconds(), "osn-to-server-s")
		b.ReportMetric(res.ToMobileMean.Seconds(), "osn-to-mobile-s")
	}
}

func BenchmarkTable4OSNActionBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MeasuredUAh, "1-action-uAh")
		b.ReportMetric(res.Rows[6].MeasuredUAh, "7-action-uAh")
	}
}

func BenchmarkTable5ProgrammingEffort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5()
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range res.Apps {
			b.ReportMetric(float64(app.WithoutLines)/float64(app.WithLines), "x-reduction")
		}
	}
}

func BenchmarkFigure4EnergyPerModality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure4()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Modality == "accelerometer" {
				suffix := "acc-raw-uAh"
				if row.Granularity == "classified" {
					suffix = "acc-cls-uAh"
				}
				b.ReportMetric(row.TotalUAh, suffix)
			}
		}
	}
}

func BenchmarkFigure5CPUvsStreams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5()
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.LocalCPU*100, "local-cpu-pct")
		b.ReportMetric(last.ServerCPU*100, "server-cpu-pct")
	}
}

// --- Middleware hot-path micro-benchmarks ------------------------------

func BenchmarkFilterEval(b *testing.B) {
	filter, err := core.NewFilter(
		core.Condition{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals, Value: "walking"},
		core.Condition{Modality: core.CtxPlace, Operator: core.OpEquals, Value: "Paris"},
		core.Condition{Modality: core.CtxTimeOfDay, Operator: core.OpGTE, Value: "08:00"},
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := core.Context{
		core.CtxPhysicalActivity: "walking",
		core.CtxPlace:            "Paris",
		core.CtxTimeOfDay:        "09:30",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !filter.Eval(ctx) {
			b.Fatal("filter must pass")
		}
	}
}

func BenchmarkItemEncodeDecode(b *testing.B) {
	item := core.Item{
		StreamID: "s", DeviceID: "d", UserID: "u",
		Modality: "location", Granularity: core.GranularityClassified,
		Time: time.Now(), Classified: "Paris",
		Context: core.Context{core.CtxPlace: "Paris", core.CtxPhysicalActivity: "walking"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := item.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.DecodeItem(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopicMatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !mqtt.TopicMatches("sensocial/device/+/trigger", "sensocial/device/dev42/trigger") {
			b.Fatal("must match")
		}
	}
}

// fanoutBus boots a broker over a netsim fabric and connects n MQTT
// sessions, subscribing each with filterFor(i). Every handler bumps the
// returned counter, so benchmarks can wait for deliveries to complete and
// the broker's bounded per-session queues never trim the fan-out.
func fanoutBus(b *testing.B, n int, filterFor func(i int) string) (*mqtt.Broker, *atomic.Int64) {
	b.Helper()
	net := netsim.NewNetwork(vclock.NewReal(), 1)
	broker := mqtt.NewBroker(mqtt.BrokerOptions{})
	l, err := net.Listen("broker:1883")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = broker.Serve(l) }()
	b.Cleanup(func() {
		_ = broker.Close()
		_ = net.Close()
	})
	var delivered atomic.Int64
	for i := 0; i < n; i++ {
		conn, err := net.Dial(fmt.Sprintf("sub-%d", i), "broker:1883")
		if err != nil {
			b.Fatal(err)
		}
		c, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: fmt.Sprintf("sub-%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Close() })
		if err := c.Subscribe(filterFor(i), 0, func(mqtt.Message) { delivered.Add(1) }); err != nil {
			b.Fatal(err)
		}
	}
	return broker, &delivered
}

// waitDelivered spins until the subscriber-side counter reaches want.
func waitDelivered(b *testing.B, delivered *atomic.Int64, want int64) {
	for delivered.Load() < want {
		runtime.Gosched()
	}
}

// BenchmarkBrokerFanout covers §5.5 scalability: broker-side routing cost
// per published message across session count, filter shape and match ratio.
// The match-1 pair is the headline: route cost must not grow with the
// number of NON-matching sessions, and the all-match case must not pay a
// per-subscriber encode.
func BenchmarkBrokerFanout(b *testing.B) {
	deviceFilter := func(i int) string { return fmt.Sprintf("sensocial/device/dev%d/trigger", i) }
	payload := []byte(`{"action":"start-sensing"}`)

	// runMatchFew publishes to a topic matching matched of the sessions,
	// syncing on delivery every 64 publishes: the wait cost amortizes to
	// noise while at most 64 frames are ever in flight per session, well
	// inside the delivery queue bound, so nothing is dropped.
	runMatchFew := func(b *testing.B, broker *mqtt.Broker, delivered *atomic.Int64, msg mqtt.Message, matched int64) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := broker.PublishLocal(msg); err != nil {
				b.Fatal(err)
			}
			if i%64 == 63 {
				waitDelivered(b, delivered, int64(i+1)*matched)
			}
		}
		waitDelivered(b, delivered, int64(b.N)*matched)
	}

	for _, sessions := range []int{10, 1000} {
		b.Run(fmt.Sprintf("sessions-%d-match-1", sessions), func(b *testing.B) {
			broker, delivered := fanoutBus(b, sessions, deviceFilter)
			msg := mqtt.Message{Topic: "sensocial/device/dev7/trigger", Payload: payload}
			runMatchFew(b, broker, delivered, msg, 1)
		})
	}

	b.Run("sessions-1000-match-all", func(b *testing.B) {
		broker, delivered := fanoutBus(b, 1000, func(int) string { return "sensocial/broadcast" })
		msg := mqtt.Message{Topic: "sensocial/broadcast", Payload: payload}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := broker.PublishLocal(msg); err != nil {
				b.Fatal(err)
			}
			// Draining 1000 subscribers is the consumers' work, not the
			// publisher's: wait for it off the clock so ns/op and
			// allocs/op report the broker-side cost of the fan-out.
			b.StopTimer()
			waitDelivered(b, delivered, int64(i+1)*1000)
			b.StartTimer()
		}
	})

	b.Run("sessions-1000-deep-wildcard", func(b *testing.B) {
		// Deep filters exercising both wildcard edge kinds on every level;
		// only session 13's filter survives the literal levels.
		broker, delivered := fanoutBus(b, 1000, func(i int) string {
			return fmt.Sprintf("sensocial/+/region%d/+/sector%d/#", i%97, i)
		})
		msg := mqtt.Message{Topic: "sensocial/eu/region13/cell4/sector13/dev8/trigger", Payload: payload}
		runMatchFew(b, broker, delivered, msg, 1)
	})

	// In-process handler fan-out (the server's colocated subscriptions).
	for _, subs := range []int{1, 100} {
		b.Run(fmt.Sprintf("local-subs-%d", subs), func(b *testing.B) {
			broker := mqtt.NewBroker(mqtt.BrokerOptions{})
			defer broker.Close()
			n := 0
			for i := 0; i < subs; i++ {
				if err := broker.SubscribeLocal("bcast", func(mqtt.Message) { n++ }); err != nil {
					b.Fatal(err)
				}
			}
			msg := mqtt.Message{Topic: "bcast", Payload: []byte("x")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := broker.PublishLocal(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDocstoreIndexedQuery(b *testing.B) {
	c := docstore.NewStore().Collection("users")
	if err := c.CreateIndex("city"); err != nil {
		b.Fatal(err)
	}
	// 1 000 cities of 10 users each: the index answers with 10 documents.
	for i := 0; i < 10000; i++ {
		if _, err := c.Insert(docstore.Doc{"city": fmt.Sprintf("city%03d", i%1000), "n": i}); err != nil {
			b.Fatal(err)
		}
	}
	q := docstore.Doc{"city": "city007"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs, err := c.Find(q, docstore.FindOpts{})
		if err != nil || len(docs) != 10 {
			b.Fatalf("find: %v (%d docs)", err, len(docs))
		}
	}
}

// BenchmarkDocstoreScan times a query no plan narrows: a Find over every
// user-shaped document (friends, location, city) of a collection with no
// index on the queried field, for the 1 % that match.
func BenchmarkDocstoreScan(b *testing.B) {
	cities := []string{"Paris", "Bordeaux", "Lyon", "Toulouse"}
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			c := docstore.NewStore().Collection("users")
			for i := 0; i < n; i++ {
				if _, err := c.Insert(docstore.Doc{
					docstore.IDField: fmt.Sprintf("u%05d", i),
					"friends":        []any{fmt.Sprintf("u%05d", (i+1)%n), fmt.Sprintf("u%05d", (i+7)%n), fmt.Sprintf("u%05d", (i+31)%n)},
					"loc":            docstore.Doc{"lat": 48.8 + float64(i%100)/1000, "lon": 2.3 + float64(i%70)/1000},
					"city":           cities[i%4],
					"visits":         i % 100,
				}); err != nil {
					b.Fatal(err)
				}
			}
			q := docstore.Doc{"visits": 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				docs, err := c.Find(q, docstore.FindOpts{})
				if err != nil || len(docs) != n/100 {
					b.Fatalf("find: %v (%d docs)", err, len(docs))
				}
			}
		})
	}
}

// benchAccelWindows returns n raw accelerometer windows in the uploader's
// transport form, as bench/'s uplink_capacity workload generates them: 50
// samples per axis in milli-m/s² drawn from ±10 000 by a seeded generator,
// so no two windows are alike.
func benchAccelWindows(n int) []string {
	rng := rand.New(rand.NewSource(1))
	out := make([]string, n)
	for k := range out {
		var b strings.Builder
		b.WriteString(`{"rate_hz":50`)
		for _, axis := range []string{"x", "y", "z"} {
			b.WriteString(`,"` + axis + `":[`)
			for i := 0; i < 50; i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(rng.Intn(20000) - 10000))
			}
			b.WriteByte(']')
		}
		b.WriteByte('}')
		out[k] = b.String()
	}
	return out
}

// benchItemDoc is the document server.DeliveryHub persists for item i, in
// bench/'s uplink_capacity mix (60 % classified, 30 % a raw ~840 B
// accelerometer window from accel, 10 % a raw location fix). Every document
// gets strings of its own, as items off the wire have: a store that keeps
// the caller's strings pays for them too.
func benchItemDoc(i int, accel []string) docstore.Doc {
	user := strconv.Itoa(100000 + i%1000)[1:]
	d := docstore.Doc{
		"stream": "activity-" + user, "device": "d" + user, "user": "u" + user,
		"modality": "accelerometer", "granularity": "classified",
		"time": int64(1_700_000_000_000 + i), "classified": "walking",
	}
	switch {
	case i%10 >= 7:
		d["granularity"], d["classified"], d["raw"] = "raw", "", strings.Clone(accel[i%len(accel)])
	case i%10 == 6:
		d["granularity"], d["classified"], d["raw"] = "raw", "", strings.Clone(`{"lat":48.85661,"lon":2.35222,"accuracy_m":12,"fix_seconds":1.5}`)
	}
	return d
}

// BenchmarkDocstoreInsertItem builds and inserts benchItemDoc documents and
// reports what the store keeps per document once the garbage is gone.
func BenchmarkDocstoreInsertItem(b *testing.B) {
	accel := benchAccelWindows(64)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c := docstore.NewStore().Collection("items")
	before := heap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(benchItemDoc(i, accel)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric((float64(heap())-float64(before))/float64(b.N), "B/doc")
	runtime.KeepAlive(c)
}

// BenchmarkDocstoreGetItem reads back by id, as a fresh Doc, a stored item
// carrying a raw accelerometer window: the read side of what
// BenchmarkDocstoreInsertItem stores, and what a snapshot pays per item.
func BenchmarkDocstoreGetItem(b *testing.B) {
	accel := benchAccelWindows(64)
	c := docstore.NewStore().Collection("items")
	ids := make([]string, len(accel))
	for k := range ids {
		id, err := c.Insert(benchItemDoc(10*k+7, accel))
		if err != nil {
			b.Fatal(err)
		}
		ids[k] = id
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.Get(ids[i%len(ids)])
		if err != nil || len(d["raw"].(string)) < 800 {
			b.Fatalf("Get = %v, %v", d, err)
		}
	}
}

// BenchmarkDocstoreInsertAction is BenchmarkDocstoreInsertItem for the item
// bench/'s osn_trigger workload persists: a classified location of one of
// 256 users that carries the OSN action it answers, as a subdocument whose
// id is new every time. It reports what the store keeps per document.
func BenchmarkDocstoreInsertAction(b *testing.B) {
	cities := []string{"Paris", "Lyon", "Lille", "Nice"}
	types := []string{"post", "like", "comment"}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c := docstore.NewStore().Collection("items")
	before := heap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		user := strconv.Itoa(100000 + i%256)[1:]
		d := docstore.Doc{
			"stream": "location-" + user, "device": "d" + user, "user": "u" + user,
			"modality": "location", "granularity": "classified",
			"time": int64(1_700_000_000_000 + i), "classified": cities[i%256%4],
			"action": docstore.Doc{
				"id": "a" + strconv.Itoa(i), "type": types[i%3],
				"text": "status update " + strconv.Itoa(i%64), "network": "facebook",
			},
		}
		if _, err := c.Insert(d); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric((float64(heap())-float64(before))/float64(b.N), "B/doc")
	runtime.KeepAlive(c)
}

// durableItems is how many benchItemDoc documents the checkpoint and
// reopen benchmarks store: about a minute of uplink_capacity's persisted
// items.
const durableItems = 100_000

// durableItemStore opens a durable store in a fresh directory and inserts
// durableItems items of the uplink_capacity mix into it.
func durableItemStore(b *testing.B) (*docstore.Store, string) {
	b.Helper()
	dir := b.TempDir()
	s, _, err := docstore.OpenDurable(dir, wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	accel := benchAccelWindows(64)
	c := s.Collection("items")
	for i := 0; i < durableItems; i++ {
		if _, err := c.Insert(benchItemDoc(i, accel)); err != nil {
			b.Fatal(err)
		}
	}
	return s, dir
}

// BenchmarkDocstoreCheckpoint writes a compacting snapshot of a durable
// store holding durableItems items: encoding, write, fsync and rename.
func BenchmarkDocstoreCheckpoint(b *testing.B) {
	s, _ := durableItemStore(b)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDocstoreReopen recovers a durable store of durableItems items,
// from its journal alone and from a snapshot, and closes it again.
func BenchmarkDocstoreReopen(b *testing.B) {
	for _, snapshot := range []bool{false, true} {
		name := "journal"
		if snapshot {
			name = "snapshot"
		}
		b.Run(name, func(b *testing.B) {
			s, dir := durableItemStore(b)
			if snapshot {
				if err := s.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, _, err := docstore.OpenDurable(dir, wal.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if n := s.Collection("items").Len(); n != durableItems {
					b.Fatalf("reopened %d items, want %d", n, durableItems)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sessionFrame is a 300-byte QoS 1 PUBLISH frame as a session store keeps
// it in flight.
var sessionFrame = make([]byte, 300)

// BenchmarkSessionStoreInflight journals one durable QoS 1 delivery and
// its acknowledgement: RecordInflight of a 300-byte frame, then Ack.
func BenchmarkSessionStoreInflight(b *testing.B) {
	s, err := mqtt.OpenSessionStore(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pid := uint16(i%0xFFFF + 1)
		s.RecordInflight("dev-1", pid, sessionFrame)
		s.Ack("dev-1", pid)
	}
}

// BenchmarkSessionStoreCheckpoint writes a compacting snapshot of a
// session store holding 20 000 clients, each with one subscription and
// one 300-byte frame in flight. The checkpoint holds the store's lock, so
// its time is the longest a durable QoS 1 delivery waits for it.
func BenchmarkSessionStoreCheckpoint(b *testing.B) {
	s, err := mqtt.OpenSessionStore(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20_000; i++ {
		id := "dev-" + strconv.Itoa(i)
		s.AddSub(id, "sensocial/trigger/"+id, 1)
		s.RecordInflight(id, 1, sessionFrame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetsimThroughput(b *testing.B) {
	net := netsim.NewNetwork(vclock.NewReal(), 1)
	defer net.Close()
	l, err := net.Listen("sink:1")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 64<<10)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("src", "sink:1")
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeoDistance(b *testing.B) {
	p := geo.Point{Lat: 48.8566, Lon: 2.3522}
	q := geo.Point{Lat: 44.8378, Lon: -0.5792}
	for i := 0; i < b.N; i++ {
		if p.DistanceMeters(q) < 1 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkIngest measures end-to-end server ingest throughput — enqueue
// through the sharded pipeline to delivery — as the item stream spreads
// over more users. One user serializes onto a single shard worker (the
// per-user ordering guarantee); more users engage more shards, so
// throughput should scale until workers saturate the cores.
func BenchmarkIngest(b *testing.B) {
	for _, users := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("users-%d", users), func(b *testing.B) {
			broker := mqtt.NewBroker(mqtt.BrokerOptions{})
			defer broker.Close()
			mgr, err := server.New(server.Options{Clock: vclock.NewReal(), Broker: broker})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			var processed atomic.Uint64
			mgr.OnItem(func(core.Item) { processed.Add(1) })
			items := make([]core.Item, users)
			for u := range items {
				items[u] = core.Item{
					StreamID: fmt.Sprintf("s-%d", u), DeviceID: fmt.Sprintf("u%d-phone", u),
					UserID: fmt.Sprintf("u%d", u), Modality: "wifi",
					Granularity: core.GranularityRaw, Raw: []byte(`{"ssids":3}`),
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for u := 0; u < users; u++ {
				n := b.N / users
				if u < b.N%users {
					n++
				}
				wg.Add(1)
				go func(it core.Item, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						mgr.Ingest(it) // a full shard queue waits for a slot
					}
				}(items[u], n)
			}
			wg.Wait()
			for processed.Load() < uint64(b.N) {
				runtime.Gosched()
			}
			b.StopTimer()
		})
	}
}

// BenchmarkIngestLatencyBound repeats the scaling sweep with a fixed
// per-item delivery latency (a stand-in for a real datastore round trip).
// Distinct users land on distinct shard workers, so their latencies
// overlap: throughput rises with the user count even on a single core,
// while a single user is pinned to one worker by the ordering guarantee
// and pays the full latency serially.
func BenchmarkIngestLatencyBound(b *testing.B) {
	const perItem = 50 * time.Microsecond
	for _, users := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("users-%d", users), func(b *testing.B) {
			broker := mqtt.NewBroker(mqtt.BrokerOptions{})
			defer broker.Close()
			mgr, err := server.New(server.Options{Clock: vclock.NewReal(), Broker: broker})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			var processed atomic.Uint64
			mgr.OnItem(func(core.Item) {
				time.Sleep(perItem)
				processed.Add(1)
			})
			b.ResetTimer()
			var wg sync.WaitGroup
			for u := 0; u < users; u++ {
				n := b.N / users
				if u < b.N%users {
					n++
				}
				item := core.Item{
					StreamID: fmt.Sprintf("s-%d", u), DeviceID: fmt.Sprintf("u%d-phone", u),
					UserID: fmt.Sprintf("u%d", u), Modality: "wifi",
					Granularity: core.GranularityRaw, Raw: []byte(`{"ssids":3}`),
				}
				wg.Add(1)
				go func(it core.Item, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						mgr.Ingest(it)
					}
				}(item, n)
			}
			wg.Wait()
			for processed.Load() < uint64(b.N) {
				runtime.Gosched()
			}
			b.StopTimer()
		})
	}
}

// BenchmarkFilterComplexity covers §5.5 "Impact of Filter Complexity":
// evaluation cost as conditions are added to a stream's filter.
func BenchmarkFilterComplexity(b *testing.B) {
	ctx := core.Context{
		core.CtxPhysicalActivity: "walking",
		core.CtxAudioEnvironment: "not silent",
		core.CtxPlace:            "Paris",
		core.CtxWiFiPlace:        "home",
		core.CtxBTSocial:         "small-group",
		core.CtxTimeOfDay:        "09:30",
	}
	pool := []core.Condition{
		{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals, Value: "walking"},
		{Modality: core.CtxAudioEnvironment, Operator: core.OpEquals, Value: "not silent"},
		{Modality: core.CtxPlace, Operator: core.OpEquals, Value: "Paris"},
		{Modality: core.CtxWiFiPlace, Operator: core.OpEquals, Value: "home"},
		{Modality: core.CtxBTSocial, Operator: core.OpNotEquals, Value: "crowd"},
		{Modality: core.CtxTimeOfDay, Operator: core.OpGTE, Value: "08:00"},
		{Modality: core.CtxTimeOfDay, Operator: core.OpLT, Value: "22:00"},
		{Modality: core.CtxPlace, Operator: core.OpContains, Value: "par"},
	}
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("conditions-%d", n), func(b *testing.B) {
			f, err := core.NewFilter(pool[:n]...)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !f.Eval(ctx) {
					b.Fatal("must pass")
				}
			}
		})
	}
}
