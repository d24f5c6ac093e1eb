package sim

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sensors"
	"repro/internal/shard"
	"repro/internal/vclock"
)

// deterministicTraceRun boots a deployment on a manual clock with
// zero-latency links, drives one continuous stream for a few sampling
// cycles — quiescing between steps so no span straddles a clock advance —
// and returns the canonical trace dump.
func deterministicTraceRun(t *testing.T) string {
	t.Helper()
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	s, err := New(Options{
		Clock:         clock,
		Seed:          7,
		MobileLink:    &netsim.Link{}, // zero latency: deliveries never wait on the frozen clock
		TraceCapacity: 4096,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	profile, err := StationaryProfile(s.Places, "Paris")
	if err != nil {
		t.Fatalf("StationaryProfile: %v", err)
	}
	h, err := s.AddUser("alice", profile)
	if err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	if err := s.Shards[0].Server.CreateRemoteStream(core.StreamConfig{
		ID: "act-alice", DeviceID: "alice-phone", UserID: "alice",
		Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified,
		Kind: core.KindContinuous, SampleInterval: time.Minute,
	}); err != nil {
		t.Fatalf("CreateRemoteStream: %v", err)
	}
	// The config reaches the device asynchronously over MQTT; its sampler
	// ticker must exist (anchored at t0) before the first advance, or the
	// first cycle lands a step late and run-to-run alignment is lost.
	installed := func() bool {
		for _, cfg := range h.Mobile.StreamConfigs() {
			if cfg.ID == "act-alice" {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(30 * time.Second); !installed(); {
		if time.Now().After(deadline) {
			t.Fatal("stream config never reached the device")
		}
		time.Sleep(time.Millisecond)
	}

	const steps = 5
	for i := 1; i <= steps; i++ {
		clock.Advance(time.Minute)
		// The advance fires the sampler; the item then crosses the (real)
		// goroutines of the device, broker and pipeline while the virtual
		// clock stands still. The sampler is a goroutine of its own, so the
		// deployment can look quiescent before it has emitted anything:
		// quiesce until the step's item has landed.
		for deadline := time.Now().Add(30 * time.Second); ; {
			quiesce(t, s)
			got := ingested(s, "sensocial_ingest_processed_total")
			if got == uint64(i) {
				break
			}
			if got > uint64(i) || time.Now().After(deadline) {
				t.Fatalf("step %d: processed %d items, want %d", i, got, i)
			}
		}
	}

	// Close drains the pipeline and joins every goroutine, so the ring
	// buffer is complete and stable before it is rendered.
	s.Close()
	var buf bytes.Buffer
	if err := s.Shards[0].Tracer.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.String()
}

// TestTraceDeterministicAcrossRuns is the determinism acceptance check:
// two runs of the identical scenario under the same seed and a manual
// clock must produce byte-identical canonical dumps, even though span IDs
// are allocated by racing goroutines.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	first := deterministicTraceRun(t)
	second := deterministicTraceRun(t)
	if first != second {
		t.Fatalf("trace dumps differ across same-seed runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}
	// The dump must actually cover the item path, or determinism is vacuous.
	for _, span := range []string{"device.sample", "mobile.upload", "mqtt.route", "ingest.enqueue", "ingest.process", "delivery.deliver"} {
		if !strings.Contains(first, span) {
			t.Fatalf("trace missing %s spans:\n%s", span, first)
		}
	}
}

// deterministicPooledTraceRun is the pooled-mode twin of
// deterministicTraceRun: one frame of pooled devices over a single shared
// connection, quiescing between advances. A single connection and a single
// ingest shard pin every ordering source, so the dump must be stable.
func deterministicPooledTraceRun(t *testing.T) string {
	t.Helper()
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	s, err := New(Options{
		Clock:      clock,
		Seed:       7,
		MobileLink: &netsim.Link{},
		Pool: PoolOptions{
			Connections:    1,
			FrameSize:      32, // one frame: ticks and flushes are a single ordered sequence
			SampleInterval: time.Minute,
			UploadBatch:    2,
		},
		IngestShards:  1,
		TraceCapacity: 4096,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	const devices = 12
	if err := s.AddDevices(devices); err != nil {
		t.Fatalf("AddDevices: %v", err)
	}
	if err := s.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	// UploadBatch=2: every second cycle publishes 2 items per device.
	const steps = 3
	for i := 1; i <= steps; i++ {
		clock.Advance(2 * time.Minute)
		quiesce(t, s)
		if got, want := ingested(s, "sensocial_ingest_processed_total"), uint64(devices*2*i); got != want {
			t.Fatalf("step %d: processed %d items, want %d", i, got, want)
		}
	}

	s.Close()
	var buf bytes.Buffer
	if err := s.Shards[0].Tracer.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.String()
}

// TestPooledTraceDeterministicAcrossRuns extends the determinism
// acceptance check to the pooled fleet: same-seed pooled runs must stay
// byte-identical on the canonical /trace dump.
func TestPooledTraceDeterministicAcrossRuns(t *testing.T) {
	first := deterministicPooledTraceRun(t)
	second := deterministicPooledTraceRun(t)
	if first != second {
		t.Fatalf("pooled trace dumps differ across same-seed runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}
	// Pooled uploads skip the device/mobile spans but must still cover the
	// broker and server pipeline.
	for _, span := range []string{"mqtt.route", "ingest.enqueue", "ingest.process"} {
		if !strings.Contains(first, span) {
			t.Fatalf("pooled trace missing %s spans:\n%s", span, first)
		}
	}
}

// scrapeMetrics GETs a shard's /metrics over the simulated fabric and sums
// the Prometheus text by sample name — all the accounting below uses is what
// an operator's scraper would have.
func scrapeMetrics(t *testing.T, client *http.Client, sh *shard.Shard) (text string, sums map[string]float64) {
	t.Helper()
	resp, err := client.Get("http://" + sh.HTTPAddr + "/metrics")
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", sh.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: %s", sh.ID, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET %s/metrics Content-Type = %q, want Prometheus text 0.0.4", sh.ID, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	sums = make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		// "<name>[{labels}] <value>": the value follows the last space.
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("%s/metrics: unparseable sample line %q", sh.ID, line)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		sums[name] += v
	}
	return string(body), sums
}

// TestMetricsAndTraceOverHTTP runs a pooled fleet at ring sizes 1 and 3 and
// then works from GET /metrics and GET /trace alone, through the simulated
// fabric: the exposition basics (format header, a family from each
// instrumented component), and the run's accounting recomputed from the
// Prometheus text — the pool's conservation identity from shard 0's scrape,
// and ingest enqueued == processed == published summed over every shard's.
func TestMetricsAndTraceOverHTTP(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const devices = 24
			cl, clock := newClusterFixture(t, shards, devices, 128)
			for _, sh := range cl.Shards {
				if err := sh.StartHTTP(); err != nil {
					t.Fatalf("StartHTTP: %v", err)
				}
			}
			// Three cycles at UploadBatch=2: one flush of two items per device,
			// and a third sample left buffered.
			clock.Advance(3 * time.Minute)
			quiesce(t, cl)
			client := cl.HTTPClient("prober")

			var fleet map[string]float64
			var enqueued, processed float64
			for i, sh := range cl.Shards {
				text, sums := scrapeMetrics(t, client, sh)
				enqueued += sums["sensocial_ingest_enqueued_total"]
				processed += sums["sensocial_ingest_processed_total"]
				if sums["sensocial_ingest_queue_capacity"] == 0 {
					t.Errorf("%s: no ingest queue capacity on the scrape; depth/capacity is not computable", sh.ID)
				}
				if i > 0 {
					continue
				}
				fleet = sums
				for _, family := range []string{
					"# TYPE sensocial_netsim_dials_total counter",
					"# TYPE sensocial_mqtt_connections gauge",
					"# TYPE sensocial_device_samples_total counter",
					"# TYPE sensocial_ingest_process_duration_seconds histogram",
					"# TYPE sensocial_delivery_published_total counter",
					"# TYPE sensocial_sim_items_published_total counter",
				} {
					if !strings.Contains(text, family) {
						t.Errorf("/metrics missing %q", family)
					}
				}
			}
			samples, published := fleet["sensocial_sim_samples_total"], fleet["sensocial_sim_items_published_total"]
			ackLost, dropped := fleet["sensocial_sim_items_ack_lost_total"], fleet["sensocial_sim_items_dropped_total"]
			backlog := fleet["sensocial_sim_backlog"]
			if samples != devices*3 || published != devices*2 || backlog != devices {
				t.Errorf("scraped ledger samples=%v published=%v backlog=%v, want %d, %d, %d",
					samples, published, backlog, devices*3, devices*2, devices)
			}
			if samples != published+ackLost+dropped+backlog {
				t.Errorf("conservation broken on the scrape: samples=%v != published=%v + ackLost=%v + dropped=%v + backlog=%v",
					samples, published, ackLost, dropped, backlog)
			}
			if enqueued != processed || processed != published {
				t.Errorf("scraped ingest enqueued=%v processed=%v, want both equal to published=%v",
					enqueued, processed, published)
			}

			tr, err := client.Get("http://" + cl.Shards[0].HTTPAddr + "/trace")
			if err != nil {
				t.Fatalf("GET /trace: %v", err)
			}
			defer tr.Body.Close()
			if tr.StatusCode != http.StatusOK {
				t.Fatalf("GET /trace: %s", tr.Status)
			}
			trace, err := io.ReadAll(tr.Body)
			if err != nil {
				t.Fatalf("read trace: %v", err)
			}
			if !strings.HasPrefix(string(trace), "# trace:") {
				t.Fatalf("trace dump missing header: %q", string(trace[:min(len(trace), 40)]))
			}
		})
	}
}
