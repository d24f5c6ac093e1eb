package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create returns the same series.
	if again := r.Counter("test_events_total", "Events."); again != c {
		t.Fatal("re-registration did not return existing counter")
	}

	g := r.Gauge("test_depth", "Depth.")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestCounterVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_by_kind_total", "By kind.", "kind")
	v.WithLabelValues("a").Add(2)
	v.WithLabelValues("b").Inc()
	if v.WithLabelValues("a").Value() != 2 || v.WithLabelValues("b").Value() != 1 {
		t.Fatal("labelled children not independent")
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound semantics:
// an observation exactly equal to a bucket's bound lands in that bucket,
// the smallest epsilon above it lands in the next one, and values above
// the last finite bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})

	h.Observe(0.01)  // exactly on first bound -> bucket 0
	h.Observe(0.011) // just above -> bucket 1
	h.Observe(0.1)   // exactly on second bound -> bucket 1
	h.Observe(1)     // exactly on last bound -> bucket 2
	h.Observe(1.5)   // above all -> +Inf
	h.Observe(-3)    // below everything -> bucket 0

	snap := findFamily(t, r, "test_latency_seconds")
	sample := snap.Samples[0]
	wantCum := []uint64{2, 4, 5, 6} // cumulative per bucket incl. +Inf
	if len(sample.Buckets) != len(wantCum) {
		t.Fatalf("got %d buckets, want %d", len(sample.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if got := sample.Buckets[i].CumulativeCount; got != want {
			t.Errorf("bucket %d (le=%v): cumulative = %d, want %d",
				i, sample.Buckets[i].UpperBound, got, want)
		}
	}
	if sample.Count != 6 {
		t.Errorf("count = %d, want 6", sample.Count)
	}
	if want := 0.01 + 0.011 + 0.1 + 1 + 1.5 - 3; sample.Sum != want {
		t.Errorf("sum = %v, want %v", sample.Sum, want)
	}
}

func TestHistogramValidation(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "no buckets", func() { r.Histogram("test_h", "H.", nil) })
	mustPanic(t, "unsorted buckets", func() { r.Histogram("test_h2", "H.", []float64{1, 1}) })
}

func TestRegistrationConflictsPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "X.")
	mustPanic(t, "type conflict", func() { r.Gauge("test_x_total", "X.") })
	mustPanic(t, "help conflict", func() { r.Counter("test_x_total", "Y.") })
	r.CounterVec("test_y_total", "Y.", "kind")
	mustPanic(t, "label conflict", func() { r.CounterVec("test_y_total", "Y.", "mode") })
	r.Histogram("test_z", "Z.", []float64{1, 2})
	mustPanic(t, "bucket conflict", func() { r.Histogram("test_z", "Z.", []float64{1, 3}) })
	mustPanic(t, "bad name", func() { r.Counter("9bad", "Bad.") })
}

// TestGaugeFuncReplace pins the replace-on-reregister contract that a
// restarted broker relies on: the gauge must report the new instance.
func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_live", "Live.", func() float64 { return 1 })
	r.GaugeFunc("test_live", "Live.", func() float64 { return 7 })
	snap := findFamily(t, r, "test_live")
	if got := snap.Samples[0].Value; got != 7 {
		t.Fatalf("gauge func value = %v, want 7 (replacement not applied)", got)
	}
}

// TestSum pins the read side: a family sums over its series, a label value
// narrows it, every collector type reads as a count, and an unknown family
// is a programmer error rather than a silent zero.
func TestSum(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_by_kind_total", "By kind.", "kind")
	v.WithLabelValues("a").Add(2)
	v.WithLabelValues("b").Inc()
	r.Gauge("test_depth", "Depth.").Set(4)
	r.GaugeFunc("test_live", "Live.", func() float64 { return 7 })
	h := r.Histogram("test_seconds", "Seconds.", LatencyBuckets)
	h.Observe(0.5)
	h.Observe(50)
	for _, c := range []struct {
		name   string
		labels []string
		want   uint64
	}{
		{"test_by_kind_total", nil, 3},
		{"test_by_kind_total", []string{"a"}, 2},
		{"test_by_kind_total", []string{"absent"}, 0},
		{"test_depth", nil, 4},
		{"test_live", nil, 7},
		{"test_seconds", nil, 2},
	} {
		if got := r.Sum(c.name, c.labels...); got != c.want {
			t.Errorf("Sum(%s, %v) = %d, want %d", c.name, c.labels, got, c.want)
		}
	}
	mustPanic(t, "unregistered family", func() { r.Sum("test_missing_total") })
}

// TestConcurrentRegistration hammers get-or-create from many goroutines;
// run under -race this verifies the registry's synchronization.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("test_shared_%d_total", i%10)
				r.Counter(name, "Shared.").Inc()
				vec := r.CounterVec("test_labelled_total", "Labelled.", "g")
				vec.WithLabelValues(fmt.Sprintf("%d", g%4)).Inc()
				r.Histogram("test_conc_seconds", "Conc.", LatencyBuckets).Observe(float64(i) / 1000)
				r.GaugeFunc("test_conc_live", "Live.", func() float64 { return float64(g) })
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < 10; i++ {
		total += r.Counter(fmt.Sprintf("test_shared_%d_total", i), "Shared.").Value()
	}
	if want := uint64(goroutines * perG); total != want {
		t.Fatalf("shared counters sum = %d, want %d", total, want)
	}
	if got := r.Histogram("test_conc_seconds", "Conc.", LatencyBuckets).Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_items_total", "Items processed.", "shard")
	c.WithLabelValues("0").Add(3)
	c.WithLabelValues("1").Inc()
	r.Gauge("test_backlog", "Backlog.").Set(2)
	r.Histogram("test_dur_seconds", "Duration.", []float64{0.5, 1}).Observe(0.75)
	r.GaugeFunc("test_live", "Live gauge.", func() float64 { return 4 })
	r.Counter("test_empty_total", "Registered but never incremented.")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP test_items_total Items processed.\n",
		"# TYPE test_items_total counter\n",
		`test_items_total{shard="0"} 3` + "\n",
		`test_items_total{shard="1"} 1` + "\n",
		"# TYPE test_backlog gauge\n",
		"test_backlog 2\n",
		"# TYPE test_dur_seconds histogram\n",
		`test_dur_seconds_bucket{le="0.5"} 0` + "\n",
		`test_dur_seconds_bucket{le="1"} 1` + "\n",
		`test_dur_seconds_bucket{le="+Inf"} 1` + "\n",
		"test_dur_seconds_sum 0.75\n",
		"test_dur_seconds_count 1\n",
		"test_live 4\n",
		// Registering alone makes a family scrape-visible.
		"# TYPE test_empty_total counter\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\nfull output:\n%s", want, out)
		}
	}

	// Families must appear in sorted order for deterministic scrapes.
	idxBacklog := strings.Index(out, "# HELP test_backlog")
	idxItems := strings.Index(out, "# HELP test_items_total")
	if idxBacklog == -1 || idxItems == -1 || idxBacklog > idxItems {
		t.Error("families not emitted in name order")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_esc_total", "Esc.", "val")
	v.WithLabelValues("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `test_esc_total{val="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped output missing %q in:\n%s", want, b.String())
	}
}

func findFamily(t *testing.T, r *Registry, name string) FamilySnapshot {
	t.Helper()
	for _, f := range r.Snapshot() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("family %q not in snapshot", name)
	return FamilySnapshot{}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}
