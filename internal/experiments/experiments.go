// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 and §6.3). Each RunXxx function executes the workload the
// paper describes against this repository's implementation and returns a
// typed result whose Report method prints the measured values next to the
// paper's, so deviations are visible at a glance.
//
// Absolute numbers are not expected to match — the substrate is a
// calibrated simulator, not a Galaxy N7000 against live Facebook — but the
// relationships the paper draws its conclusions from must hold (see each
// experiment's CheckShape).
package experiments

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/device"
	"repro/internal/geo"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

// epoch anchors virtual clocks.
var epoch = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)

// repoRoot locates the repository root from this source file's position,
// so LoC-counting experiments work regardless of the working directory.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("experiments: cannot locate source file")
	}
	// file = <root>/internal/experiments/experiments.go
	return filepath.Dir(filepath.Dir(filepath.Dir(file))), nil
}

// benchDevice builds a standalone device with the default walking/noisy
// profile used by the resource micro-benchmarks.
func benchDevice(clock vclock.Clock, seed int64) (*device.Device, *classify.Registry, error) {
	profile, err := sensors.NewProfile(
		geo.Stationary{At: geo.Point{Lat: 48.8566, Lon: 2.3522}},
		sensors.WithPhases(false, sensors.Phase{
			Activity: sensors.ActivityWalking,
			Audio:    sensors.AudioNoisy,
			Duration: 1000 * time.Hour,
		}))
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	dev, err := device.New(device.Config{
		ID: "bench-dev", UserID: "bench", Clock: clock, Profile: profile, Seed: seed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	reg, err := classify.DefaultRegistry(geo.EuropeanCities())
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	return dev, reg, nil
}

// arrives waits for ch to deliver, for at most d on wall, and reports
// whether it did. The watchdog timer is stopped on the way out: under this
// module's go 1.22 timer rules a time.After left pending stays in the heap
// until it fires, seconds later, and its objects are then freed inside
// whatever heap measurement is running (Table 2's measure window).
func arrives[T any](wall vclock.Clock, d time.Duration, ch <-chan T) bool {
	t := wall.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C():
		return false
	}
}

// meanStd returns the mean and sample standard deviation of xs.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)-1))
	return mean, std
}

// tableBuilder accumulates an aligned text table.
type tableBuilder struct {
	rows [][]string
}

func (tb *tableBuilder) add(cells ...string) {
	tb.rows = append(tb.rows, cells)
}

func (tb *tableBuilder) String() string {
	if len(tb.rows) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, row := range tb.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, row := range tb.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
