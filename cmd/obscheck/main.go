// Command obscheck verifies that docs/OBSERVABILITY.md and the /metrics
// exposition agree. It boots a minimal simulated deployment (manual clock,
// zero-latency links — no waiting, fully deterministic), scrapes
// GET /metrics over the simulated fabric, and compares the exported
// family set against every backticked `sensocial_*` name in the document.
// A family documented but not exported, or exported but not documented,
// is a failure — the doc is the contract, and this command is what keeps
// it honest (wired into CI as `make metrics-smoke`).
//
// Usage:
//
//	obscheck [-doc docs/OBSERVABILITY.md]
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vclock"
)

func main() {
	doc := flag.String("doc", "docs/OBSERVABILITY.md", "path to the observability contract")
	flag.Parse()
	if err := run(*doc); err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(1)
	}
	fmt.Println("obscheck: docs/OBSERVABILITY.md and /metrics agree")
}

// docFamilyRE matches backticked metric family names in the document.
var docFamilyRE = regexp.MustCompile("`(sensocial_[a-z0-9_]+)`")

// typeLineRE matches the Prometheus "# TYPE <family> <type>" exposition
// lines, which every registered family emits even before its first sample.
var typeLineRE = regexp.MustCompile(`(?m)^# TYPE (sensocial_[a-z0-9_]+) [a-z]+$`)

func run(docPath string) error {
	data, err := os.ReadFile(docPath)
	if err != nil {
		return err
	}
	documented := make(map[string]bool)
	for _, m := range docFamilyRE.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		return fmt.Errorf("%s documents no sensocial_* families; parsing bug or gutted doc", docPath)
	}

	body, err := scrape()
	if err != nil {
		return err
	}
	exported := make(map[string]bool)
	for _, m := range typeLineRE.FindAllStringSubmatch(body, -1) {
		exported[m[1]] = true
	}

	var problems []string
	for name := range documented {
		if !exported[name] {
			problems = append(problems, "documented but not exported: "+name)
		}
	}
	for name := range exported {
		if !documented[name] {
			problems = append(problems, "exported but not documented: "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics contract broken:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Printf("obscheck: %d families documented and exported\n", len(exported))
	return nil
}

// scrape boots the deployment and returns the /metrics body. Every
// component registers its families at construction, so no virtual time
// needs to pass for the full inventory to appear.
func scrape() (string, error) {
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	dep, err := sim.New(sim.Options{
		Clock: clock,
		Seed:  1,
		// Zero-latency links: HTTP over the fabric completes without
		// anyone advancing the manual clock.
		MobileLink:    &netsim.Link{},
		TraceCapacity: 64,
	})
	if err != nil {
		return "", err
	}
	defer dep.Close()
	profile, err := sim.StationaryProfile(dep.Places, "Paris")
	if err != nil {
		return "", err
	}
	if _, err := dep.AddUser("prober-user", profile); err != nil {
		return "", err
	}
	if err := dep.Shards[0].StartHTTP(); err != nil {
		return "", err
	}
	client := dep.HTTPClient("prober")

	resp, err := client.Get("http://" + sim.HTTPAddr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return "", fmt.Errorf("GET /metrics: unexpected Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}

	// While the deployment is up, confirm the trace endpoint serves too.
	tr, err := client.Get("http://" + sim.HTTPAddr + "/trace")
	if err != nil {
		return "", fmt.Errorf("GET /trace: %w", err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /trace: %s", tr.Status)
	}
	if _, err := io.Copy(io.Discard, tr.Body); err != nil {
		return "", err
	}
	return string(body), nil
}
