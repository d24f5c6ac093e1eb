package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	digest := func(seed uint64) string {
		return newUplinkPlan(seed, 1000, mixCapacity, 250).Digest(5000) + newTriggerPlan(seed, 256).Digest(5000)
	}
	if a, b := digest(1), digest(1); a != b {
		t.Fatalf("same seed, different inputs:\n%s\n%s", a, b)
	}
	if digest(1) == digest(2) {
		t.Fatal("seeds 1 and 2 generate identical inputs")
	}
}

func TestUplinkPlanExpectations(t *testing.T) {
	p := newUplinkPlan(7, 1000, mixCapacity, 250)
	const n = 20000
	e := p.Expect(n)
	if e.Delivered+e.Rejected != n {
		t.Fatalf("delivered %d + rejected %d != %d", e.Delivered, e.Rejected, n)
	}
	var conditioned, classes [numClasses]int
	for u := 0; u < p.Users; u++ {
		if f := p.CondFriend[u]; f >= 0 {
			conditioned[0]++
			if p.AnchorLabel[f] == "" || p.AnchorLabel[u] != "" {
				t.Fatalf("user %d: conditions must run from a non-anchor to an anchor", u)
			}
		}
	}
	// A quarter of the non-anchor streams, give or take sampling noise.
	if c := conditioned[0]; c < 150 || c > 290 {
		t.Errorf("%d conditioned streams of 875 non-anchor users, want about 219", c)
	}
	for i := 0; i < n; i++ {
		classes[p.Spec(i).Class]++
	}
	for c, want := range mixCapacity {
		if got := classes[c] * 1000 / n; got < want-30 || got > want+30 {
			t.Errorf("class %s: %d per mille, want about %d", classNames[c], got, want)
		}
	}
	if e.LocWrites == 0 || e.LocWrites+e.LocSkips != classes[classFix] {
		t.Errorf("location writes %d + skips %d, want %d fixes", e.LocWrites, e.LocSkips, classes[classFix])
	}
	if e.LocWrites < 9*e.LocSkips {
		t.Errorf("most fixes must move the user: %d writes, %d skips", e.LocWrites, e.LocSkips)
	}
}

func TestIDRoundTrips(t *testing.T) {
	p := newUplinkPlan(1, 1000, mixClassified, 0)
	for _, u := range []int{0, 42, 999} {
		if got := indexOfID(p.UserIDs[u]); got != u {
			t.Errorf("indexOfID(%q) = %d", p.UserIDs[u], got)
		}
		if got := indexOfID(streamTopic(p.DeviceIDs[u])); got != u {
			t.Errorf("indexOfID(topic of %q) = %d", p.DeviceIDs[u], got)
		}
	}
	if parseActionID(actionID(1234567)) != 1234567 || parseActionID("w00001") != -1 || parseActionID("a12x") != -1 {
		t.Error("action ids do not round-trip")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.0, 10}, {1, 100}, {0.11, 20}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianFloat = %v, want 2.5", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5], n=4) = [1.5, 3, 4.5]: spread 3/3.
	// statistics.quantiles of the ten values below = [10, 11.25, 12.625]:
	// spread 2.625/11.25; the outlier 40 does not move it.
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{5, 3, 1, 2, 4}, 1},
		{[]float64{10, 12, 11, 13, 40, 9, 10.5, 11.5, 12.5, 10}, 2.625 / 11.25},
		{[]float64{7}, 0},
		{[]float64{0, 0, 0}, 0},
	} {
		if got := spread(c.v); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestWindowP99Median(t *testing.T) {
	// Three one-second windows of 100 samples each. Latencies are 1..100 in
	// every window, except that the middle window's top two are 10 000: its
	// p99 (the 99th of 100) is 10 000, the others' are 99, so the median of
	// the three window p99s is 99 — one bad second does not move the metric.
	// A ragged fourth window of 5 samples is ignored.
	var start, lat []int64
	for w := int64(0); w < 3; w++ {
		for i := int64(1); i <= 100; i++ {
			l := i
			if w == 1 && i >= 99 {
				l = 10000
			}
			start = append(start, 5_000_000_000+w*1_000_000_000+i)
			lat = append(lat, l)
		}
	}
	for i := int64(0); i < 5; i++ {
		start, lat = append(start, 8_000_000_010+i), append(lat, 999999)
	}
	p99, windows := windowP99Median(start, lat, 1_000_000_000, 50)
	if p99 != 99 || windows != 3 {
		t.Fatalf("windowP99Median = %d over %d windows, want 99 over 3", p99, windows)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100]; children [0,30], [20,50] (overlapping), [60,110]
	// (sticking out); grandchild [5,10] under the first child.
	// Root cover: [0,50] ∪ [60,100] = 90 → self 10.
	// First child: 30 − 5 = 25. The rest have no children: full duration.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 0, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},
		{Name: "c", Parent: 0, Start: 60, End: 110},
		{Name: "a1", Parent: 1, Start: 5, End: 10},
	}
	if got, want := selfTimes(spans), []int64{10, 25, 30, 50, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestStageBudgetSumsToMedianBand(t *testing.T) {
	// 100 operations of latency 1..100 µs split 30/70 between two stages:
	// the budget is taken over the middle tenth by end-to-end latency
	// (operations 46..55), so the stages are 0.3 and 0.7 of 50.5 µs.
	var traces [][]span
	for i := int64(1); i <= 100; i++ {
		end, mid := i*1000, i*300
		traces = append(traces, []span{
			{Name: "op", Parent: -1, Start: 0, End: end},
			{Name: "s1", Start: 0, End: mid},
			{Name: "s2", Start: mid, End: end},
		})
	}
	m := newMetricSet()
	stageMetrics(m, traces, []stage{{Span: "s1", Metric: "core.encode_us"}, {Span: "s2", Metric: "mqtt.publish_call_us"}})
	approx := func(name string, want float64) {
		if got := m.vals[name].Value; got < want*0.999 || got > want*1.001 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("core.encode_us", 15.15)
	approx("mqtt.publish_call_us", 35.35)
	approx("harness.stage_sum_share", 1)
	if got := m.vals["harness.unattributed_share"].Value; got != 0 {
		t.Errorf("unattributed share = %v, want 0", got)
	}
}

// capturedSimSummary is the tail of a real
// `sensocial-sim -mode pooled -devices 20000 -hours 1 -shards 3` run.
const capturedSimSummary = `sensocial-sim: 20000 pooled devices over 3 shards, 1.0 virtual hours on the manual clock
  t=1h0m0s   samples=1180320   published=1121280   processed=1096999   drops=0 by-shard=[382604 377724 360952]

run summary:
  devices            20000 (pooled, 313 frames over 6 connections)
  virtual time       1h0m0s in 5.461s real (659x)
  ticks              18472 (295634 ns/tick)
  peak heap          57083592 bytes (2854 bytes/device)
  samples            1180320
  items published    1121280 (dropped 0, publish errors 0)
  published by shard [382604 377724 360952] (ring: 2048 virtual nodes/shard)
  items processed    1121280
  fleet energy       8613456.7 µAh total, 430.67 µAh/device
`

func TestParseSimSummary(t *testing.T) {
	got, err := parseSimSummary(capturedSimSummary)
	if err != nil {
		t.Fatal(err)
	}
	want := simSummary{Devices: 20000, VirtualSeconds: 3600, RealSeconds: 5.461, Speedup: 659,
		Ticks: 18472, NsPerTick: 295634, PeakHeapBytes: 57083592, BytesPerDevice: 2854,
		Published: 1121280, ByShard: []int{382604, 377724, 360952}, Processed: 1121280}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", got, want)
	}
	if skew := got.shardSkew(); skew < 1.02 || skew > 1.03 {
		t.Errorf("shard skew = %v, want 382604·3/1121280 ≈ 1.0237", skew)
	}
	if _, err := parseSimSummary("sensocial-sim: 10 users"); err == nil {
		t.Error("output without a summary must not parse")
	}
	if _, err := parseSimSummary("run summary:\n  devices 5 (pooled)\n"); err == nil {
		t.Error("a truncated summary must not parse")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, in step with the metrics and workloads the program reports.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	defs := workloads()
	if len(doc.Workloads) != len(defs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(defs))
	}
	for i, w := range doc.Workloads {
		if w.Name != defs[i].Name || w.Why != defs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, defs[i].Name, defs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalogue %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound mismatch", kind, g.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
}

// TestShortUplinkSteadyPassesItsChecks runs the -short form of uplink_steady
// end to end over loopback TCP: every delivered item must equal the generated
// one and every count must match the generator's expectation.
func TestShortUplinkSteadyPassesItsChecks(t *testing.T) {
	res, err := runUplink(&uplinkWorkloads[0], 1, 1, false, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != rounds*3000 {
		t.Fatalf("attempted %d, failed %d, correct %v: %v", res.Attempted, res.Failed, res.Correct, res.Failures)
	}
	if err := res.finish(); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if v := res.Values[d.Name]; v.Value <= 0 || v.N == 0 {
			t.Errorf("%s = %v (n=%d), want a measured, non-zero value", d.Name, v.Value, v.N)
		}
	}
}
