// Command obscheck verifies that docs/OBSERVABILITY.md and the /metrics
// exposition agree. It boots a minimal simulated deployment (manual clock,
// zero-latency links — no waiting, fully deterministic), scrapes
// GET /metrics over the simulated fabric, and compares the exported
// family set against every backticked `sensocial_*` name in the document.
// A family documented but not exported, or exported but not documented,
// is a failure — the doc is the contract, and this command is what keeps
// it honest (wired into CI as `make metrics-smoke`).
//
// It then boots a 3-shard pooled deployment and scrapes every shard: the
// families of what the deployment owns (`sensocial_sim_*`,
// `sensocial_netsim_*`, `sensocial_device_*`) must be exported by shard 0
// only, and every other documented family by every shard.
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

	one, err := scrape(1)
	if err != nil {
		return err
	}
	exported := one[0]

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
	// Across a ring, what the deployment owns has no process of its own and
	// is exported by shard 0; everything else is per shard.
	ring, err := scrape(3)
	if err != nil {
		return err
	}
	fleetOwned := 0
	for name := range documented {
		fleet := fleetFamilyRE.MatchString(name)
		if fleet {
			fleetOwned++
		}
		for i, shard := range ring {
			if want := !fleet || i == 0; shard[name] != want {
				problems = append(problems, fmt.Sprintf("3-shard ring: %s exported by shard%d = %v, want %v", name, i, shard[name], want))
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics contract broken:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Printf("obscheck: %d families documented and exported (%d fleet-owned on shard 0 only, %d on every shard of 3)\n",
		len(exported), fleetOwned, len(exported)-fleetOwned)
	return nil
}

// fleetFamilyRE matches the families of what the deployment owns: the
// fabric, the pool and the devices' resource accounting.
var fleetFamilyRE = regexp.MustCompile(`^sensocial_(sim|netsim|device)_`)

// scrape boots a deployment of the given ring size with one device in it and
// returns the family set each shard exports on GET /metrics. Every component registers its families at construction,
// so no virtual time needs to pass for the full inventory to appear.
func scrape(shards int) ([]map[string]bool, error) {
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	dep, err := sim.New(sim.Options{
		Clock:  clock,
		Seed:   1,
		Shards: shards,
		// Zero-latency links: HTTP over the fabric completes without
		// anyone advancing the manual clock.
		MobileLink:    &netsim.Link{},
		TraceCapacity: 64,
	})
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	// A device makes the sensocial_device_* families appear: one full stack
	// (it reports into its owner shard's registry, the only shard there is)
	// or, in a ring, one pooled row (the fleet's accounting, on shard 0).
	if shards == 1 {
		profile, err := sim.StationaryProfile(dep.Places, "Paris")
		if err != nil {
			return nil, err
		}
		if _, err := dep.AddUser("prober-user", profile); err != nil {
			return nil, err
		}
	} else if err := dep.AddDevices(1); err != nil {
		return nil, err
	}
	client := dep.HTTPClient("prober")
	var out []map[string]bool
	for _, sh := range dep.Shards {
		if err := sh.StartHTTP(); err != nil {
			return nil, err
		}
		body, err := get(client, "http://"+sh.HTTPAddr+"/metrics")
		if err != nil {
			return nil, err
		}
		families := make(map[string]bool)
		for _, m := range typeLineRE.FindAllStringSubmatch(body, -1) {
			families[m[1]] = true
		}
		out = append(out, families)
		// While the shard is up, confirm the trace endpoint serves too.
		if _, err := get(client, "http://"+sh.HTTPAddr+"/trace"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// get fetches url over the fabric and returns the body of a 200 text/plain
// response.
func get(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return "", fmt.Errorf("GET %s: unexpected Content-Type %q", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}
