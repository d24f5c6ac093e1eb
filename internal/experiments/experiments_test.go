package experiments

import (
	"runtime"
	"strings"
	"testing"
)

func TestFigure4ShapeHolds(t *testing.T) {
	res, err := RunFigure4()
	if err != nil {
		t.Fatalf("RunFigure4: %v", err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatalf("shape: %v\n%s", err, res.Report())
	}
	if len(res.Rows) != 11 { // 5 modalities x 2 granularities + GAR
		t.Fatalf("rows = %d", len(res.Rows))
	}
	report := res.Report()
	if !strings.Contains(report, "accelerometer") || !strings.Contains(report, "acc-gar") {
		t.Fatalf("report incomplete:\n%s", report)
	}
}

func TestTable4ShapeHolds(t *testing.T) {
	res, err := RunTable4()
	if err != nil {
		t.Fatalf("RunTable4: %v", err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatalf("shape: %v\n%s", err, res.Report())
	}
	// The measured magnitudes should be in the paper's ballpark, since the
	// cost model is calibrated: row 1 within 2x of 51.7 µAh.
	if res.Rows[0].MeasuredUAh < 25 || res.Rows[0].MeasuredUAh > 105 {
		t.Fatalf("1-action consumption %.1f µAh far from paper's 51.7", res.Rows[0].MeasuredUAh)
	}
}

func TestFigure5ShapeHolds(t *testing.T) {
	res, err := RunFigure5()
	if err != nil {
		t.Fatalf("RunFigure5: %v", err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatalf("shape: %v\n%s", err, res.Report())
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	res, err := RunTable2()
	if err != nil {
		t.Fatalf("RunTable2: %v", err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatalf("shape: %v\n%s", err, res.Report())
	}
	if res.SenSocialObjects == 0 || res.GARObjects == 0 {
		t.Fatalf("zero object counts: %+v", res)
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("table 3 runs a 600x-compressed hour of virtual time")
	}
	res, err := RunTable3()
	if err != nil {
		t.Fatalf("RunTable3: %v", err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatalf("shape: %v\n%s", err, res.Report())
	}
	if res.ToServerStd <= 0 || res.ToMobileStd <= 0 {
		t.Fatalf("zero variance measured: %+v", res)
	}
}

func TestTable1CountsThisRepo(t *testing.T) {
	res, err := RunTable1()
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatalf("shape: %v\n%s", err, res.Report())
	}
	if res.SubstrateLines < 3000 {
		t.Fatalf("substrate lines = %d, expected the simulators to be substantial", res.SubstrateLines)
	}
}

func TestTable5ShapeHolds(t *testing.T) {
	res, err := RunTable5()
	if err != nil {
		t.Fatalf("RunTable5: %v", err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatalf("shape: %v\n%s", err, res.Report())
	}
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Fatalf("mean = %f", m)
	}
	if s < 2.0 || s > 2.3 { // sample std of that series ≈ 2.138
		t.Fatalf("std = %f", s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty series must be zero")
	}
	if _, s := meanStd([]float64{42}); s != 0 {
		t.Fatal("single sample has zero std")
	}
}

func TestTableBuilderAlignment(t *testing.T) {
	tb := &tableBuilder{}
	tb.add("a", "bb")
	tb.add("ccc", "d")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[1], "ccc  d") {
		t.Fatalf("alignment broken: %q", lines[1])
	}
}

// TestStreamCountMemoryScaling covers §5.5 "Impact of Multiple Streams":
// "the number of streams does not affect the memory consumption of the
// application". Per-stream heap growth must stay small (kilobytes, not
// megabytes).
func TestStreamCountMemoryScaling(t *testing.T) {
	heapWithStreams := func(n int) uint64 {
		heap, _, closer, err := measureStreams(n)
		if err != nil {
			t.Fatalf("measureStreams(%d): %v", n, err)
		}
		defer closer()
		return heap
	}
	small := heapWithStreams(5)
	large := heapWithStreams(50)
	perStream := float64(large-small) / 45
	if large > small && perStream > 64*1024 {
		t.Fatalf("per-stream heap = %.0f B, want kilobytes at most", perStream)
	}
}

// TestReportsReadable asserts every report prints both measured numbers and
// the paper's reference values, so EXPERIMENTS.md regeneration stays
// self-describing.
func TestReportsReadable(t *testing.T) {
	type reporter interface{ Report() string }
	cases := []struct {
		name string
		run  func() (reporter, error)
		want []string
	}{
		{"table1", func() (reporter, error) { return RunTable1() }, []string{"paper LoC", "2635", "mobile middleware"}},
		{"table2", func() (reporter, error) { return RunTable2() }, []string{"12.342 MB", "GAR stub", "heap"}},
		{"table4", func() (reporter, error) { return RunTable4() }, []string{"51.7", "324.3", "actions"}},
		{"table5", func() (reporter, error) { return RunTable5() }, []string{"ConWeb", "3423", "reduction"}},
		{"figure4", func() (reporter, error) { return RunFigure4() }, []string{"accelerometer", "acc-gar", "transmission"}},
		{"figure5", func() (reporter, error) { return RunFigure5() }, []string{"local CPU %", "server CPU %", "50"}},
	}
	for _, c := range cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		report := res.Report()
		for _, want := range c.want {
			if !strings.Contains(report, want) {
				t.Errorf("%s report missing %q:\n%s", c.name, want, report)
			}
		}
		if strings.Contains(report, "SHAPE CHECK FAILED") {
			t.Errorf("%s report shows failed shape check:\n%s", c.name, report)
		}
	}
}

// TestMeasureDiscardsWindowsThatShrank reproduces the Table 2 flake: work
// left over from before the measurement lets go of its objects once a
// collection has run, as a closing simulation's goroutines do, so they are
// freed inside the window measure reads the heap across and cancel out the
// build's 100 objects. measure must see the shrunken window and measure
// again.
func TestMeasureDiscardsWindowsThatShrank(t *testing.T) {
	held := make([]*[64]byte, 20000)
	for i := range held {
		held[i] = new([64]byte)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	released := make(chan struct{})
	go func(start uint32) {
		defer close(released)
		for {
			var now runtime.MemStats
			runtime.ReadMemStats(&now)
			if now.NumGC >= start+2 {
				break
			}
			runtime.Gosched()
		}
		held = nil
	}(ms.NumGC)

	var kept []*[64]byte
	_, objects, closer, err := measure(func() (func(), error) {
		kept = make([]*[64]byte, 100)
		for i := range kept {
			kept[i] = new([64]byte)
		}
		return func() { kept = nil }, nil
	})
	<-released
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	if objects < 100 {
		t.Fatalf("measure counted %d objects for a build that keeps 101", objects)
	}
}
