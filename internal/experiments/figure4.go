package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/energy"
	"repro/internal/gar"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

// Figure4Row is one bar of Figure 4: average charge per sensing cycle for
// one modality at one granularity, split by task.
type Figure4Row struct {
	Modality       string
	Granularity    string // "raw", "classified"
	SamplingUAh    float64
	ClassifyUAh    float64
	TransmitUAh    float64
	TotalUAh       float64
	PaperShapeNote string
}

// Figure4Result reproduces "Average battery charge consumed per sensing
// cycle" for every modality (raw and classified) plus the Acc-GAR baseline.
type Figure4Result struct {
	Rows   []Figure4Row
	Cycles int
}

// RunFigure4 executes the paper's workload: each stream type sensed every
// 60 seconds for an hour (60 cycles), with raw streams transmitting the
// full payload and classified streams classifying on device and
// transmitting the label.
func RunFigure4() (*Figure4Result, error) {
	return RunFigure4OnClock(vclock.Real{})
}

// RunFigure4OnClock is RunFigure4 with the watchdog clock injected. The
// workload itself runs on a deterministic manual clock; wall only bounds
// the wait for GAR callbacks so a wedged pipeline fails instead of hanging.
func RunFigure4OnClock(wall vclock.Clock) (*Figure4Result, error) {
	const cycles = 60
	res := &Figure4Result{Cycles: cycles}
	for _, modality := range sensors.Modalities() {
		for _, classified := range []bool{false, true} {
			row, err := figure4Stream(modality, classified, cycles)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	garRow, err := figure4GAR(cycles, wall)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, garRow)
	return res, nil
}

func figure4Stream(modality string, classified bool, cycles int) (Figure4Row, error) {
	clock := vclock.NewManual(epoch)
	dev, reg, err := benchDevice(clock, 42)
	if err != nil {
		return Figure4Row{}, err
	}
	for i := 0; i < cycles; i++ {
		r, err := dev.Sample(modality)
		if err != nil {
			return Figure4Row{}, fmt.Errorf("experiments: figure4: %w", err)
		}
		var payload []byte
		if classified {
			label, err := dev.Classify(reg, r)
			if err != nil {
				return Figure4Row{}, fmt.Errorf("experiments: figure4: %w", err)
			}
			payload, err = json.Marshal(map[string]string{"classified": label})
			if err != nil {
				return Figure4Row{}, fmt.Errorf("experiments: figure4: %w", err)
			}
		} else {
			payload, err = r.MarshalPayload()
			if err != nil {
				return Figure4Row{}, fmt.Errorf("experiments: figure4: %w", err)
			}
		}
		dev.ChargeTransmission(modality, len(payload))
		clock.Advance(time.Minute)
	}
	m := dev.Meter()
	g := "raw"
	if classified {
		g = "classified"
	}
	n := float64(cycles)
	return Figure4Row{
		Modality:    modality,
		Granularity: g,
		SamplingUAh: m.TaskLabel(energy.TaskSampling, modality) / n,
		ClassifyUAh: m.TaskLabel(energy.TaskClassification, modality) / n,
		TransmitUAh: m.TaskLabel(energy.TaskTransmission, modality) / n,
		TotalUAh:    m.TotalMicroAh() / n,
	}, nil
}

func figure4GAR(cycles int, wall vclock.Clock) (Figure4Row, error) {
	clock := vclock.NewManual(epoch)
	dev, _, err := benchDevice(clock, 42)
	if err != nil {
		return Figure4Row{}, err
	}
	client, err := gar.New(gar.Options{Device: dev, Interval: time.Minute})
	if err != nil {
		return Figure4Row{}, err
	}
	defer client.Close()
	got := make(chan struct{}, cycles+8)
	if err := client.RegisterActivityListener(func(gar.ActivityUpdate) {
		got <- struct{}{}
	}); err != nil {
		return Figure4Row{}, err
	}
	clock.BlockUntilWaiters(1)
	for i := 0; i < cycles; i++ {
		clock.Advance(time.Minute)
		if !arrives(wall, 5*time.Second, got) {
			return Figure4Row{}, fmt.Errorf("experiments: figure4: GAR cycle %d missing", i)
		}
	}
	return Figure4Row{
		Modality:    "acc-gar",
		Granularity: "classified",
		TotalUAh:    dev.Meter().TotalMicroAh() / float64(cycles),
	}, nil
}

// row finds a row by modality and granularity.
func (r *Figure4Result) row(modality, granularity string) (Figure4Row, bool) {
	for _, row := range r.Rows {
		if row.Modality == modality && row.Granularity == granularity {
			return row, true
		}
	}
	return Figure4Row{}, false
}

// CheckShape verifies the findings the paper draws from Figure 4.
func (r *Figure4Result) CheckShape() error {
	accR, ok1 := r.row(sensors.ModalityAccelerometer, "raw")
	accC, ok2 := r.row(sensors.ModalityAccelerometer, "classified")
	locR, ok3 := r.row(sensors.ModalityLocation, "raw")
	garRow, ok4 := r.row("acc-gar", "classified")
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("figure4: rows missing")
	}
	// "classification of raw accelerometer values ... halves the total
	// energy consumption".
	if ratio := accC.TotalUAh / accR.TotalUAh; ratio < 0.35 || ratio > 0.65 {
		return fmt.Errorf("figure4: classified/raw accel ratio %.2f, want ~0.5", ratio)
	}
	// "The transmission energy is high for accelerometer data".
	if accR.TransmitUAh < accR.SamplingUAh {
		return fmt.Errorf("figure4: accel raw not transmission-dominated")
	}
	// GPS sampling dominates the location stream.
	if locR.SamplingUAh < locR.TransmitUAh {
		return fmt.Errorf("figure4: location raw not sampling-dominated")
	}
	// "the energy consumption [of GAR] is only 25%% lower than in the case
	// of classified SenSocial data streaming".
	if ratio := garRow.TotalUAh / accC.TotalUAh; ratio < 0.6 || ratio > 0.9 {
		return fmt.Errorf("figure4: GAR/classified-accel ratio %.2f, want ~0.75", ratio)
	}
	return nil
}

// Report renders the figure as a table.
func (r *Figure4Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — average battery charge per sensing cycle (µAh), %d cycles at 60 s\n", r.Cycles)
	fmt.Fprintf(&b, "paper reports up to ~16 µAh (0.016 mAh) for raw accelerometer; shapes must match\n\n")
	tb := &tableBuilder{}
	tb.add("modality", "granularity", "sampling", "classification", "transmission", "total")
	for _, row := range r.Rows {
		tb.add(row.Modality, row.Granularity,
			f2(row.SamplingUAh), f2(row.ClassifyUAh), f2(row.TransmitUAh), f2(row.TotalUAh))
	}
	b.WriteString(tb.String())
	if err := r.CheckShape(); err != nil {
		fmt.Fprintf(&b, "\nSHAPE CHECK FAILED: %v\n", err)
	} else {
		b.WriteString("\nshape check: OK (classification halves accel; accel tx-dominated; GPS sampling-dominated; GAR ≈ 75% of classified accel)\n")
	}
	return b.String()
}
