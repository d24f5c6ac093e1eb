package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
)

// tickNs is the open-loop grid: arrivals are bursts every 5 ms.
const tickNs = 5_000_000

// waitUntil returns once the harness clock has reached due and reports how
// late it returned. It closes in on the deadline in three steps, because the
// time spent in the last one is generator CPU that cpu_us_per_op includes:
// a runtime sleep to 1.3 ms before (the runtime rounds sleeps up to whole
// milliseconds, so a plain sleep to the deadline returns about half a
// millisecond late, which would otherwise be the median latency of
// everything sent on that tick); a nanosleep system call, which returns
// 0.1–0.2 ms late on this class of host, to 0.3 ms before; then a loop of
// runtime.Gosched to the deadline itself.
func waitUntil(due int64) (lag int64) {
	if d := due - nowNs() - 1_300_000; d > 0 {
		sleepNs(d)
	}
	if d := due - nowNs() - 300_000; d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) only lengthens the yield loop
	}
	for {
		now := nowNs()
		if now >= due {
			return now - due
		}
		runtime.Gosched()
	}
}

// cpuNs is the process's user+system CPU time so far (getrusage). It
// includes the load generator, which runs in-process.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// resourceMark is a reading of the process's cumulative resource counters;
// two marks bracket a timed phase.
type resourceMark struct {
	wall, cpu  int64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcCPUSec   float64
}

func markResources() resourceMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	m := resourceMark{wall: nowNs(), cpu: cpuNs(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPUSec = sample[0].Value.Float64()
	}
	return m
}

// liveHeapMB forces a collection and returns what survives it, in MB
// (10^6 bytes). It counts the harness's own sample arrays, which are the
// same size on every run of a workload. Two collections, because a
// sync.Pool's contents survive the first in its victim cache.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runtimeMetrics files the runtime.* per-layer metrics for the phase between
// two marks, per delivered operation.
func runtimeMetrics(out *metricSet, from, to resourceMark, ops int) {
	if ops < 1 {
		ops = 1
	}
	out.set("runtime.allocs_per_op", float64(to.mallocs-from.mallocs)/float64(ops), ops)
	out.set("runtime.alloc_bytes_per_op", float64(to.allocBytes-from.allocBytes)/float64(ops), ops)
	out.set("runtime.gc_cycles", float64(to.gcCycles-from.gcCycles), 1)
	share := 0.0
	if cpu := float64(to.cpu-from.cpu) / 1e9; cpu > 0 {
		share = (to.gcCPUSec - from.gcCPUSec) / cpu
	}
	out.set("runtime.gc_cpu_share", share, 1)
}

// counterDelta is after − before for every registry series.
func counterDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// fileSharedCounts files the registry counts every TCP workload reports.
func fileSharedCounts(m *metricSet, c map[string]float64, docs int) {
	m.set("mqtt.published", c["sensocial_mqtt_published_total"], 1)
	m.set("mqtt.delivered", c["sensocial_mqtt_delivered_total"], 1)
	m.set("mqtt.fanout_dropped", c["sensocial_mqtt_fanout_dropped_total"], 1)
	// Every routed message counts: client publishes and, on osn_trigger,
	// the server's own triggers.
	if routed := c["sensocial_mqtt_route_duration_seconds_count"]; routed > 0 {
		m.set("mqtt.match_nodes_per_publish", c["sensocial_mqtt_match_nodes_total"]/routed, int(routed))
	}
	m.set("ingest.enqueued", c["sensocial_ingest_enqueued_total"], 1)
	m.set("ingest.processed", c["sensocial_ingest_processed_total"], 1)
	m.set("ingest.dropped", c["sensocial_ingest_dropped_total"], 1)
	m.set("server.persisted", c["sensocial_delivery_persisted_total"], 1)
	m.set("docstore.docs_final", float64(docs), 1)
}

// fileGenLag files how late the open-loop ticks fired.
func fileGenLag(m *metricSet, lags []int64) {
	if len(lags) == 0 {
		return
	}
	sorted := sortedCopy(lags)
	m.set("harness.gen_lag_p50_us", float64(percentile(sorted, 0.5))/1e3, len(lags))
	m.set("harness.gen_lag_p99_us", float64(percentile(sorted, 0.99))/1e3, len(lags))
}

// fileTraceOverhead files the traced phase's CPU per operation against the
// untraced reference phase's, in percent.
func fileTraceOverhead(m *metricSet, traced, ref phaseOutcome) {
	if traced.ops == 0 || ref.ops == 0 || ref.cpuNs == 0 {
		return
	}
	with, without := float64(traced.cpuNs)/float64(traced.ops), float64(ref.cpuNs)/float64(ref.ops)
	m.set("harness.trace_overhead_pct", (with-without)/without*100, traced.ops)
}
