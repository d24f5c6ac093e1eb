package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The sim_fleet workload runs the cmd/sensocial-sim binary — its CLI flags
// are the simulator's stable surface — as a pooled, sharded fleet on the
// manual clock and reads its run summary. Real TCP and the document store do
// no work here; vclock, netsim, sim.DevicePool, the cluster ring and bridge
// and three brokers/servers do all of it.
const (
	simShards = 3
)

// simHours is the virtual time one fleet run covers: six hours in a full
// 30 s run (one virtual hour takes about 4.5 s of real time on the reference
// host), at least one.
func simHours(seconds float64) int { return min(max(int(seconds/6+0.5), 1), 6) }

// simPublished is the recorded "items published" per fleet size and virtual
// hours: the CLI hard-codes its seed (42), so the count must repeat exactly.
var simPublished = map[[2]int]int{{20000, 6}: 7121280, {20000, 5}: 5921280, {20000, 1}: 1121280, {2000, 6}: 712256}

// simSummary is the parsed end-of-run summary of sensocial-sim -mode pooled.
type simSummary struct {
	Devices        int
	VirtualSeconds float64
	RealSeconds    float64
	Speedup        float64
	Ticks          int
	NsPerTick      float64
	PeakHeapBytes  int
	BytesPerDevice float64
	Published      int
	Dropped        int
	PublishErrors  int
	ByShard        []int
	Processed      int
}

// parseSimSummary reads the "run summary:" block of the simulator's output.
func parseSimSummary(out string) (simSummary, error) {
	var s simSummary
	_, block, found := strings.Cut(out, "run summary:")
	if !found {
		return s, fmt.Errorf("no run summary in simulator output")
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		line = strings.TrimSpace(line)
		var err error
		switch {
		case strings.HasPrefix(line, "devices"):
			_, err = fmt.Sscanf(line, "devices %d", &s.Devices)
			seen["devices"] = true
		case strings.HasPrefix(line, "virtual time"):
			var virt, real string
			if _, err = fmt.Sscanf(line, "virtual time %s in %s real (%fx)", &virt, &real, &s.Speedup); err == nil {
				var v, r time.Duration
				if v, err = time.ParseDuration(virt); err == nil {
					if r, err = time.ParseDuration(real); err == nil {
						s.VirtualSeconds, s.RealSeconds = v.Seconds(), r.Seconds()
					}
				}
			}
			seen["virtual time"] = true
		case strings.HasPrefix(line, "ticks"):
			_, err = fmt.Sscanf(line, "ticks %d (%f ns/tick)", &s.Ticks, &s.NsPerTick)
			seen["ticks"] = true
		case strings.HasPrefix(line, "peak heap"):
			_, err = fmt.Sscanf(line, "peak heap %d bytes (%f bytes/device)", &s.PeakHeapBytes, &s.BytesPerDevice)
			seen["peak heap"] = true
		case strings.HasPrefix(line, "items published"):
			_, err = fmt.Sscanf(line, "items published %d (dropped %d, publish errors %d)", &s.Published, &s.Dropped, &s.PublishErrors)
			seen["items published"] = true
		case strings.HasPrefix(line, "published by shard"):
			open, close := strings.Index(line, "["), strings.Index(line, "]")
			if open < 0 || close < open {
				err = fmt.Errorf("no shard list")
				break
			}
			for _, f := range strings.Fields(line[open+1 : close]) {
				n := parseDigits(f)
				if n < 0 {
					err = fmt.Errorf("bad shard count %q", f)
				}
				s.ByShard = append(s.ByShard, n)
			}
		case strings.HasPrefix(line, "items processed"):
			_, err = fmt.Sscanf(line, "items processed %d", &s.Processed)
			seen["items processed"] = true
		}
		if err != nil {
			return s, fmt.Errorf("summary line %q: %w", line, err)
		}
	}
	for _, want := range []string{"devices", "virtual time", "ticks", "peak heap", "items published", "items processed"} {
		if !seen[want] {
			return s, fmt.Errorf("run summary has no %q line", want)
		}
	}
	return s, nil
}

// shardSkew is max÷mean of the per-shard publish counts (1 = even).
func (s simSummary) shardSkew() float64 {
	if len(s.ByShard) == 0 {
		return 0
	}
	sum, peak := 0, 0
	for _, n := range s.ByShard {
		sum += n
		peak = max(peak, n)
	}
	if sum == 0 {
		return 0
	}
	return float64(peak) * float64(len(s.ByShard)) / float64(sum)
}

// buildSim compiles cmd/sensocial-sim into the output directory, before any
// timing.
func buildSim() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "sensocial-sim"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sensocial-sim")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build sensocial-sim: %w\n%s", err, out)
	}
	return bin, nil
}

// simRun is one execution of the simulator as seen from outside.
type simRun struct {
	summary simSummary
	setupS  float64 // process start to the "pooled devices" banner
	cpuS    float64 // the child's user+system CPU
	rssMB   float64 // median resident set from the banner to the exit, sampled at 20 Hz
	rssN    int
}

// sampleRSS reads the resident set of process pid from /proc every 50 ms
// until stop is closed or the process is gone, and returns the samples in MB.
func sampleRSS(pid int, stop <-chan struct{}) []float64 {
	var mb []float64
	for {
		select {
		case <-stop:
			return mb
		default:
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
		if err != nil {
			return mb
		}
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages := parseDigits(f[1]); pages > 0 {
				mb = append(mb, float64(pages)*float64(os.Getpagesize())/1e6)
			}
		}
		sleepNs(50_000_000)
	}
}

// runSim runs the simulator to its end, or, with setupOnly, to its banner and
// then stops it.
func runSim(bin string, devices, hours int, setupOnly bool) (simRun, error) {
	var r simRun
	cmd := exec.Command(bin, "-mode", "pooled", "-devices", fmt.Sprint(devices),
		"-hours", fmt.Sprint(hours), "-shards", fmt.Sprint(simShards))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	began := nowNs()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	var text strings.Builder
	var rss []float64
	var sampler sync.WaitGroup
	stopSampler := make(chan struct{})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if r.setupS == 0 && strings.Contains(line, "pooled devices") {
			r.setupS = float64(nowNs()-began) / 1e9
			if setupOnly {
				if err := cmd.Process.Kill(); err != nil {
					return r, err
				}
			} else {
				sampler.Add(1)
				go func() {
					defer sampler.Done()
					rss = sampleRSS(cmd.Process.Pid, stopSampler)
				}()
			}
		}
		text.WriteString(line + "\n")
	}
	err = cmd.Wait()
	close(stopSampler)
	sampler.Wait()
	r.rssMB, r.rssN = medianFloat(rss), len(rss)
	if r.setupS == 0 {
		return r, fmt.Errorf("sensocial-sim printed no pooled-devices banner (%v)", err)
	}
	if setupOnly {
		return r, nil // killed on purpose: the exit status says so
	}
	if err != nil {
		return r, fmt.Errorf("sensocial-sim: %w", err)
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	r.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	r.summary, err = parseSimSummary(text.String())
	return r, err
}

// runSimFleet runs the fleet once; an untraced run also samples the set-up,
// a traced run also runs the probes of the layers only the simulator uses.
func runSimFleet(seed uint64, seconds float64, o runOpts, traced bool) (*result, error) {
	res := newResult("sim_fleet", seed, traced)
	res.note("sensocial-sim -mode pooled -devices %d -hours %d -shards %d on the manual clock; the CLI hard-codes seed 42, so -seed does not reach this workload", o.simDevices, o.simHours, simShards)
	bin, err := buildSim()
	if err != nil {
		return nil, err
	}
	r, err := runSim(bin, o.simDevices, o.simHours, false)
	if err != nil {
		return nil, err
	}
	sum := r.summary
	res.Attempted = sum.Published
	res.Failed = sum.Dropped + sum.PublishErrors
	if want, ok := simPublished[[2]int{o.simDevices, o.simHours}]; ok {
		res.check("sim items published", sum.Published, want)
	}
	// The CLI reads its counters after a fixed drain wait, so a few items
	// may still be in the pipeline; more than 0.1% is a loss.
	if short := sum.Published - sum.Processed; short < 0 || short*1000 > sum.Published {
		res.fail("sim items processed: got %d of %d published", sum.Processed, sum.Published)
	}

	m := res.Metrics
	// An untraced run starts the simulator some more times just to time its
	// set-up, stopping it at the banner.
	setups := []float64{r.setupS}
	if !traced {
		until := nowNs() + int64(seconds*setupShare*1e9)
		for i := 0; i < minSetupSamples || nowNs() < until; i++ {
			s, err := runSim(bin, o.simDevices, o.simHours, true)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.setupS)
		}
	}
	m.set("setup_s", medianFloat(setups), len(setups))
	m.set("live_heap_mb", r.rssMB, r.rssN)
	m.set("harness.throughput_ops_s", float64(sum.Processed)/sum.RealSeconds, sum.Processed)
	m.set("harness.cpu_us_per_op", r.cpuS*1e6/float64(max(sum.Processed, 1)), sum.Processed)
	if !traced {
		return res, nil
	}
	m.set("sim.ns_per_tick", sum.NsPerTick, sum.Ticks)
	m.set("sim.heap_bytes_per_device", sum.BytesPerDevice, sum.Devices)
	m.set("sim.items_published", float64(sum.Published), 1)
	m.set("sim.items_processed", float64(sum.Processed), 1)
	m.set("sim.items_dropped", float64(sum.Dropped), 1)
	m.set("sim.virtual_speedup", sum.Speedup, 1)
	m.set("cluster.shard_skew", sum.shardSkew(), len(sum.ByShard))
	probes, cleanup, err := simProbes()
	if err != nil {
		return nil, err
	}
	runProbes(probes, o.probeMin, m)
	return res, cleanup()
}
