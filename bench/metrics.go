package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef is one entry of the benchmark's metric catalogue. BENCHMARK.json
// at the repo root lists the same names, units and directions; a test keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics: what a user of the system would see and
// what repeats from run to run on the reference host, with the issue's
// bounds. Every workload reports every one of them (the driver's contract).
//
// The issue names eight end-to-end metrics. Three are here: setup_s (25%, the
// largest bound the contract allows, standing in for the issue's "10% or
// +0.25 s, whichever is larger", which for set-ups of under 0.1 s is always
// the +0.25 s), live_heap_mb (10%), and lost_share as its complement
// delivered_share = 1 − lost_share (a gated metric may never be 0; a relative
// bound of 0.0005 on a share that is 1 is the issue's +0.0005 absolute). The
// other five are timings, and no timing repeats within 10% between runs made
// minutes apart on a shared 2-vCPU guest (BASELINE.md has the spreads), so by
// the issue's own rule — demote, do not widen the bound — they are reported
// under harness.*, from the same untraced phases, and not gated:
// harness.throughput_ops_s, harness.throughput_p1_ops_s,
// harness.latency_p50_ms, harness.latency_p99_ms, harness.cpu_us_per_op.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "delivered_share", Unit: "ratio", Better: "higher", Bound: 0.0005},
}

// perLayer are the metrics of single layers (layer = module name before the
// dot). A workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{Name: "core.item_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.item_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.item_codec_allocs", Unit: "count", Better: "lower"},
	{Name: "core.item_bytes", Unit: "B", Better: "lower"},
	{Name: "core.trigger_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "core.trigger_codec_allocs", Unit: "count", Better: "lower"},
	{Name: "core.filter_eval_ns", Unit: "ns", Better: "lower"},
	{Name: "core.encode_us", Unit: "us", Better: "lower"},

	{Name: "mqtt.publish_call_us", Unit: "us", Better: "lower"},
	{Name: "mqtt.qos1_publish_us", Unit: "us", Better: "lower"},
	{Name: "mqtt.wire_to_route_us", Unit: "us", Better: "lower"},
	{Name: "mqtt.route_local_ns", Unit: "ns", Better: "lower"},
	{Name: "mqtt.route_allocs", Unit: "count", Better: "lower"},
	{Name: "mqtt.trigger_deliver_us", Unit: "us", Better: "lower"},
	{Name: "mqtt.published", Unit: "count", Better: "higher"},
	{Name: "mqtt.delivered", Unit: "count", Better: "higher"},
	{Name: "mqtt.fanout_dropped", Unit: "count", Better: "lower"},
	{Name: "mqtt.match_nodes_per_publish", Unit: "count", Better: "lower"},

	{Name: "ingest.enqueue_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest.route_to_hook_us", Unit: "us", Better: "lower"},
	{Name: "ingest.enqueued", Unit: "count", Better: "higher"},
	{Name: "ingest.processed", Unit: "count", Better: "higher"},
	{Name: "ingest.dropped", Unit: "count", Better: "lower"},
	{Name: "ingest.backlog_max", Unit: "count", Better: "lower"},

	{Name: "server.process_us", Unit: "us", Better: "lower"},
	{Name: "server.filter_rejected", Unit: "count", Better: "lower"},
	{Name: "server.persisted", Unit: "count", Better: "higher"},
	{Name: "server.registry_location_writes", Unit: "count", Better: "lower"},
	{Name: "server.registry_location_skips", Unit: "count", Better: "higher"},
	{Name: "server.hook_to_listener_us", Unit: "us", Better: "lower"},
	{Name: "server.trigger_dispatch_us", Unit: "us", Better: "lower"},
	{Name: "server.triggers_sent", Unit: "count", Better: "higher"},

	{Name: "device.stub_us", Unit: "us", Better: "lower"},

	{Name: "docstore.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "docstore.insert_allocs", Unit: "count", Better: "lower"},
	{Name: "docstore.find_indexed_ns", Unit: "ns", Better: "lower"},
	{Name: "docstore.update_geo_ns", Unit: "ns", Better: "lower"},
	{Name: "docstore.docs_final", Unit: "count", Better: "lower"},
	{Name: "docstore.heap_bytes_per_doc", Unit: "B", Better: "lower"},

	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.peerindex_match_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "vclock.schedule_fire_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.write_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.write_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "sim.heap_bytes_per_device", Unit: "B", Better: "lower"},
	{Name: "sim.items_published", Unit: "count", Better: "higher"},
	{Name: "sim.items_processed", Unit: "count", Better: "higher"},
	{Name: "sim.items_dropped", Unit: "count", Better: "lower"},
	{Name: "sim.virtual_speedup", Unit: "ratio", Better: "higher"},

	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "harness.gen_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "harness.gen_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.burst_wait_us", Unit: "us", Better: "lower"},
	{Name: "harness.throughput_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "harness.throughput_p1_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "harness.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "harness.traced_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.stage_sum_share", Unit: "ratio", Better: "higher"},
	{Name: "harness.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.lost_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one measured metric with the sample count behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects the metrics of one run.
type metricSet struct {
	vals map[string]metricValue
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]metricValue{}} }

func (m *metricSet) set(name string, v float64, n int) {
	m.vals[name] = metricValue{Value: v, N: n}
}

// merge copies every metric of other into m.
func (m *metricSet) merge(other *metricSet) {
	for k, v := range other.vals {
		m.vals[k] = v
	}
}

// project returns every measured metric with its unit, plus a 0 (n=0) for
// any of defs the run did not measure; a name outside the catalogue is a bug.
func (m *metricSet) project(defs []metricDef) (map[string]metricValue, error) {
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	out := make(map[string]metricValue, len(m.vals)+len(defs))
	for name, v := range m.vals {
		unit, known := units[name]
		if !known {
			return nil, fmt.Errorf("metric %q is not in the catalogue", name)
		}
		v.Unit = unit
		out[name] = v
	}
	for _, d := range defs {
		if _, measured := out[d.Name]; !measured {
			out[d.Name] = metricValue{Unit: d.Unit}
		}
	}
	return out, nil
}

// print writes "name unit value n=<samples>" for every measured metric, the
// end-to-end ones first, the rest by name.
func (m *metricSet) print(w io.Writer) {
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
		if v, ok := m.vals[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %-6s %14.4f  n=%d\n", d.Name, d.Unit, v.Value, v.N)
		}
	}
	var names []string
	for _, d := range perLayer {
		units[d.Name] = d.Unit
		if _, ok := m.vals[d.Name]; ok {
			names = append(names, d.Name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v := m.vals[name]
		fmt.Fprintf(w, "  %-34s %-6s %14.4f  n=%d\n", name, units[name], v.Value, v.N)
	}
}
