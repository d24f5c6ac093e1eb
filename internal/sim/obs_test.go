package sim

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sensors"
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
		// clock stands still. Wait on real time for it to land.
		deadline := time.Now().Add(30 * time.Second)
		for s.Shards[0].Server.Stats().Pipeline.Processed < uint64(i) {
			if time.Now().After(deadline) {
				t.Fatalf("step %d: item not processed within 30s (processed=%d)",
					i, s.Shards[0].Server.Stats().Pipeline.Processed)
			}
			time.Sleep(time.Millisecond)
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
	// The shared client's handshake happens on a background goroutine; wait
	// for it before advancing so every flush lands at a deterministic
	// virtual time.
	if err := s.Pool.WaitReady(30 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}

	// UploadBatch=2: every second cycle publishes 2 items per device.
	const steps = 3
	for i := 1; i <= steps; i++ {
		clock.Advance(2 * time.Minute)
		deadline := time.Now().Add(30 * time.Second)
		want := uint64(devices * 2 * i)
		for s.Shards[0].Server.Stats().Pipeline.Processed < want {
			if time.Now().After(deadline) {
				t.Fatalf("step %d: processed=%d within 30s, want %d",
					i, s.Shards[0].Server.Stats().Pipeline.Processed, want)
			}
			time.Sleep(time.Millisecond)
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

// TestMetricsAndTraceOverHTTP scrapes GET /metrics and GET /trace through
// the simulated fabric, pinning the exposition basics end to end (format
// header, a family from each instrumented component).
func TestMetricsAndTraceOverHTTP(t *testing.T) {
	opts := fastOptions()
	opts.TraceCapacity = 128
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	profile, err := StationaryProfile(s.Places, "Paris")
	if err != nil {
		t.Fatalf("StationaryProfile: %v", err)
	}
	if _, err := s.AddUser("alice", profile); err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	if err := s.Shards[0].StartHTTP(); err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	client := s.HTTPClient("prober")

	resp, err := client.Get("http://" + HTTPAddr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	for _, family := range []string{
		"# TYPE sensocial_netsim_dials_total counter",
		"# TYPE sensocial_mqtt_connections gauge",
		"# TYPE sensocial_device_samples_total counter",
		"# TYPE sensocial_ingest_process_duration_seconds histogram",
		"# TYPE sensocial_delivery_published_total counter",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	tr, err := client.Get("http://" + HTTPAddr + "/trace")
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
}
