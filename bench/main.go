// Command bench is the repository's end-to-end benchmark: the item path
// (device upload → broker → ingest → filter → listener), the OSN trigger
// loop and the fleet simulator, each measured from outside with a per-layer
// budget. BENCHMARK.json at the repo root describes it to the driver;
// bench/README.md is the manual.
//
// Usage:
//
//	go run ./bench                       every workload, untraced then traced; writes bench/out/result.json
//	go run ./bench -short                a smoke: the untraced pass of every workload at a tenth of the work
//	go run ./bench -aa                   two sets of five runs per workload, compared against the bounds (bench/BASELINE.md)
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                     one pass of one workload; the last stdout line is the driver's JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// repoRoot is the module root; outDir is where traces, results and the
// simulator binary go (ignored by git).
var repoRoot, outDir string

// keepWarmOn says whether a pass runs the keep-warm helper beside it.
var keepWarmOn bool

// workloadDef is one benchmark workload.
type workloadDef struct {
	Name string
	Why  string
	Run  func(seed uint64, seconds float64, traced bool, o runOpts) (*result, error)
}

// runOpts are the knobs -short turns down.
type runOpts struct {
	simDevices, simHours int
	probeMin             time.Duration
}

func workloads() []workloadDef {
	whys := []string{
		"open loop at 10k items/s, about 12% of capacity, nothing persisted: service latency and CPU cost of codec, broker read path, ingest, registry and filter without queueing or the document store",
		"closed loop with the backlog pinned at 512, everything persisted, three payload sizes: the highest rate without a growing backlog, where the document store works hardest; once more at GOMAXPROCS(1)",
	}
	var defs []workloadDef
	for i := range uplinkWorkloads {
		w := &uplinkWorkloads[i]
		defs = append(defs, workloadDef{Name: w.Name, Why: whys[i],
			Run: func(seed uint64, seconds float64, traced bool, o runOpts) (*result, error) {
				return runUplink(w, seed, seconds, traced, o.probeMin)
			}})
	}
	return append(defs,
		workloadDef{Name: "osn_trigger",
			Why: "the paper's core loop over 256 device sessions: the broker in the fan-out direction (QoS 1 to wire sessions) and indexed document-store reads beside writes, with no bulk uplink traffic",
			Run: func(seed uint64, seconds float64, traced bool, o runOpts) (*result, error) {
				return runTrigger(seed, seconds, traced, o.probeMin)
			}},
		workloadDef{Name: "sim_fleet",
			Why: "sensocial-sim pooled fleet of 20000 devices over 3 shards on the manual clock: vclock timer wheel, netsim, device pool, cluster ring and bridge; no real TCP, no document store",
			Run: func(seed uint64, seconds float64, traced bool, o runOpts) (*result, error) {
				return runSimFleet(seed, seconds, o, traced)
			}})
}

// result is the outcome of one pass of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Values    map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes"`
	Failures  []string               `json:"failures,omitempty"`

	Metrics *metricSet `json:"-"`
}

func newResult(workload string, seed uint64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Traced: traced, Correct: true, Metrics: newMetricSet()}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// check records a correctness failure unless got equals want.
func (r *result) check(what string, got, want int) {
	if got != want {
		r.fail("%s: got %d, want %d", what, got, want)
	}
}

// defs is the part of the catalogue the driver reads from this pass.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// finish files the share of operations delivered and lost, and checks the
// measured metrics against the catalogue. Values then holds everything the
// pass measured plus a 0 for any metric of its part of the catalogue that it
// did not.
func (r *result) finish() error {
	lost := float64(r.Failed) / float64(max(r.Attempted, 1))
	r.Metrics.set("delivered_share", 1-lost, r.Attempted)
	r.Metrics.set("harness.lost_share", math.Round(lost*10000)/10000, r.Attempted)
	vals, err := r.Metrics.project(r.defs())
	r.Values = vals
	return err
}

func (r *result) print() {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Printf("== %s (%s pass, seed %d): attempted %d, failed %d, correct %v\n", r.Workload, pass, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Printf("  # %s\n", n)
	}
	r.Metrics.print(os.Stdout)
	for _, f := range r.Failures {
		fmt.Printf("  FAIL %s\n", f)
	}
}

// driverLine is the one-line JSON object the driver reads.
func (r *result) driverLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]mv{}}
	for _, d := range r.defs() {
		line.Metrics[d.Name] = mv{r.Values[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the repro module (no go.mod found)")
		}
		dir = parent
	}
}

// hostFacts describes where the numbers were taken.
func hostFacts() []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	sha := "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repoRoot
	if out, err := cmd.Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return []string{
		"CPU model: " + cpu,
		fmt.Sprintf("nproc: %d", runtime.NumCPU()),
		fmt.Sprintf("GOMAXPROCS: %d", runtime.GOMAXPROCS(0)),
		"Go version: " + runtime.Version(),
		"git SHA (HEAD): " + sha,
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run one pass of this workload and print the driver's JSON line (default: all workloads, untraced then traced)")
		seed     = flag.Uint64("seed", 1, "workload seed; the program under test receives only the generated inputs")
		seconds  = flag.Float64("seconds", 30, "length of one measured run")
		trace    = flag.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		out      = flag.String("out", "", "output directory (default <repo>/bench/out)")
		short    = flag.Bool("short", false, "a smoke: the untraced pass of every workload at a tenth of the work")
		aa       = flag.Bool("aa", false, "run two sets of runs and compare every end-to-end metric against its bound, as the driver does")
	)
	flag.BoolVar(&keepWarmOn, "keepwarm", true, "keep the CPUs out of idle during a pass (keepwarm.go); false shows what the helper is for")
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		if err := spinUntilStdinCloses(); err != nil {
			fmt.Fprintln(os.Stderr, "bench keep-warm helper:", err)
			os.Exit(1)
		}
		return
	}
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *out, *short, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace int, out string, short, aa bool) error {
	var err error
	if repoRoot, err = findRepoRoot(); err != nil {
		return err
	}
	outDir = out
	if outDir == "" {
		outDir = filepath.Join(repoRoot, "bench", "out")
	}
	if seconds <= 0 || seconds > 60 {
		return fmt.Errorf("-seconds must be in (0, 60]")
	}
	defs := workloads()

	if workload != "" {
		for _, def := range defs {
			if def.Name != workload {
				continue
			}
			opts := runOpts{simDevices: 20000, simHours: simHours(seconds), probeMin: probeMinRun}
			if short {
				// A tenth of the work: a tenth of the length, and a tenth of the
				// fleet over the full six hours.
				seconds /= 10
				opts = runOpts{simDevices: 2000, simHours: 6, probeMin: probeMinRun / 10}
			}
			res, err := runPass(def, seed, seconds, trace == 1, opts)
			if err != nil {
				return err
			}
			res.print()
			if err := res.writePassFile(); err != nil {
				return err
			}
			line, err := res.driverLine()
			if err != nil {
				return err
			}
			fmt.Println(line)
			if !res.Correct {
				return fmt.Errorf("%s: correctness checks failed", workload)
			}
			return nil
		}
		return fmt.Errorf("unknown workload %q", workload)
	}

	if aa {
		return runAA(defs, seed, seconds, short)
	}
	results, err := runSet(defs, []uint64{seed}, seconds, short)
	if err != nil {
		return err
	}
	return writeResults(results)
}

// passFile is where one pass of one workload leaves its full result.
func passFile(workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("pass_%s_trace%d.json", workload, t))
}

func (r *result) writePassFile() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(passFile(r.Workload, r.Traced), append(b, '\n'), 0o644)
}

// runPass runs one pass of one workload with the keep-warm helper beside it.
func runPass(def workloadDef, seed uint64, seconds float64, traced bool, o runOpts) (*result, error) {
	stop := func() error { return nil }
	if keepWarmOn {
		warm, err := startKeepWarm()
		if err != nil {
			return nil, err
		}
		stop = warm.Stop
	}
	res, err := def.Run(seed, seconds, traced, o)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	return res, res.finish()
}

// runSet runs every workload — one untraced pass per seed, then (without
// -short) one traced pass with the first seed — each pass in a process of its
// own, exactly as the driver does, so that no pass sees the heap, the
// goroutines or the GC pacing another left behind. The child prints its
// metrics (passed through, minus the driver's JSON line) and leaves its full
// result in a pass file.
func runSet(defs []workloadDef, seeds []uint64, seconds float64, short bool) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*result
	pass := func(def workloadDef, seed uint64, traced bool) error {
		trace := 0
		if traced {
			trace = 1
		}
		args := []string{"-workload", def.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-out", outDir, fmt.Sprintf("-keepwarm=%v", keepWarmOn)}
		if short {
			args = append(args, "-short")
		}
		if err := os.Remove(passFile(def.Name, traced)); err != nil && !os.IsNotExist(err) {
			return err
		}
		cmd := exec.Command(self, args...)
		cmd.Dir, cmd.Stderr = repoRoot, os.Stderr
		out, runErr := cmd.Output()
		for _, line := range strings.Split(strings.TrimRight(string(out), "\n"), "\n") {
			if !strings.HasPrefix(line, "{") {
				fmt.Println(line)
			}
		}
		// A failed correctness check exits non-zero but still leaves its
		// result; anything else that goes wrong leaves none.
		b, err := os.ReadFile(passFile(def.Name, traced))
		if err != nil {
			return fmt.Errorf("%s: %v (%v)", def.Name, runErr, err)
		}
		res := &result{}
		if err := json.Unmarshal(b, res); err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		results = append(results, res)
		return nil
	}
	for _, def := range defs {
		for _, seed := range seeds {
			if err := pass(def, seed, false); err != nil {
				return nil, err
			}
		}
		if !short {
			if err := pass(def, seeds[0], true); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// writeResults writes <out>/result.json and fails if any check failed.
func writeResults(results []*result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Host    []string  `json:"host"`
		Results []*result `json:"results"`
	}{hostFacts(), results}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range results {
		if !r.Correct {
			return fmt.Errorf("%s: correctness checks failed", r.Workload)
		}
	}
	return nil
}

// aaRuns is how many untraced runs per workload, each with a seed of its
// own, one set of -aa makes.
const aaRuns = 5

// runAA does what the driver does to accept the benchmark, with aaRuns runs
// per workload and set where the driver makes ten: two sets of runs of the
// same code, back to back; per end-to-end metric and workload the median of
// each set, how much worse the second is than the first, each set's spread —
// the distance between its quartiles as a share of its median — and the
// bound. It fails if the second median is worse than the first by more than
// the bound or, setup_s apart, a spread exceeds it: the driver's rule for
// BENCHMARK.json's bounds and nothing else. The timings that are
// reported but not gated follow, without a verdict, then the per-layer
// metrics of the first set. The output is Markdown: bench/BASELINE.md is a
// committed copy of it.
func runAA(defs []workloadDef, seed uint64, seconds float64, short bool) error {
	seeds := make([]uint64, aaRuns)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	var sets [2][]*result
	for i := range sets {
		fmt.Printf("---- set %d ----\n", i+1)
		var err error
		if sets[i], err = runSet(defs, seeds, seconds, short); err != nil {
			return err
		}
	}
	if err := writeResults(append(sets[0], sets[1]...)); err != nil {
		return err
	}
	// values collects one metric of one workload over a set's untraced runs.
	values := func(set []*result, workload, metric string) (v []float64) {
		for _, r := range set {
			if x := r.Values[metric]; r.Workload == workload && !r.Traced && x.N > 0 {
				v = append(v, x.Value)
			}
		}
		return v
	}
	if short {
		seconds /= 10
	}
	fmt.Printf("\n# Baseline (A/A, seeds %d–%d, %g s runs, %d runs per workload and set)\n\n", seeds[0], seeds[aaRuns-1], seconds, aaRuns)
	for _, h := range hostFacts() {
		fmt.Printf("- %s\n", h)
	}
	const header = "| workload | metric | unit | median 1 | median 2 | worse by | spread 1 | spread 2 | bound | ok |\n|---|---|---|---|---|---|---|---|---|---|\n"
	agree := true
	compare := func(metrics []metricDef, gated bool) {
		for _, def := range defs {
			for _, d := range metrics {
				a, b := values(sets[0], def.Name, d.Name), values(sets[1], def.Name, d.Name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				ma, mb := medianFloat(a), medianFloat(b)
				worse := relDiff(ma, mb)
				if d.Better == "higher" {
					worse = -worse
				}
				row := fmt.Sprintf("| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.2f%% | %.2f%% |", def.Name, d.Name, d.Unit, ma, mb, worse*100, spread(a)*100, spread(b)*100)
				if !gated {
					fmt.Println(row + " | |")
					continue
				}
				ok := worse <= d.Bound
				if d.Name != "setup_s" {
					ok = ok && spread(a) <= d.Bound && spread(b) <= d.Bound
				}
				agree = agree && ok
				fmt.Printf("%s %g%% | %v |\n", row, d.Bound*100, ok)
			}
		}
	}
	fmt.Printf("\n## End to end: two sets of runs of the same code\n\n" + header)
	compare(endToEnd, true)
	fmt.Printf("\n## Timings reported but not gated (untraced passes)\n\n" + header)
	compare(perLayer, false)
	fmt.Printf("\n## Per layer (set 1, traced pass)\n\n| workload | metric | unit | value | n |\n|---|---|---|---|---|\n")
	for _, r := range sets[0] {
		if !r.Traced {
			continue
		}
		for _, d := range perLayer {
			if v := r.Values[d.Name]; v.N > 0 {
				fmt.Printf("| %s | %s | %s | %.4f | %d |\n", r.Workload, d.Name, d.Unit, v.Value, v.N)
			}
		}
	}
	if !agree {
		return fmt.Errorf("A/A: two sets of runs of the same code disagree by more than a bound")
	}
	return nil
}
