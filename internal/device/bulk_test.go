package device

import (
	"math"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/sensors"
)

// TestBulkChargerMatchesPerDeviceAccounting: charging n operations in one
// bulk call must equal n per-device charges under the same cost model, so
// pooled and full fleets report the same totals.
func TestBulkChargerMatchesPerDeviceAccounting(t *testing.T) {
	cost := energy.DefaultCostModel()
	b := NewBulkCharger(nil)

	const n = 64
	perSample, err := b.ChargeSamples(sensors.ModalityAccelerometer, n)
	if err != nil {
		t.Fatalf("ChargeSamples: %v", err)
	}
	wantSample, _ := cost.SamplingCost(sensors.ModalityAccelerometer)
	if perSample != wantSample {
		t.Fatalf("per-sample cost = %v, want %v", perSample, wantSample)
	}
	if got := b.Meter().TaskLabel(energy.TaskSampling, sensors.ModalityAccelerometer); got != wantSample*n {
		t.Fatalf("metered sampling = %v µAh, want %v", got, wantSample*n)
	}
	if got := b.CPU().Busy(); got != n*cpuSampling {
		t.Fatalf("CPU busy = %v after %d samples, want %v", got, n, n*cpuSampling)
	}

	perClass, err := b.ChargeClassifications(sensors.ModalityAccelerometer, n)
	if err != nil {
		t.Fatalf("ChargeClassifications: %v", err)
	}
	wantClass, _ := cost.ClassificationCost(sensors.ModalityAccelerometer)
	if perClass != wantClass {
		t.Fatalf("per-classification cost = %v, want %v", perClass, wantClass)
	}

	// Three uploads of 1, 1 and 2 KB charged as one batch cost what three
	// per-device transmissions cost: TxPerMessage each, not once.
	sizes := []int{1024, 1024, 2048}
	var payload int
	var want float64
	for _, sz := range sizes {
		payload += sz
		want += cost.TransmissionCost(sz)
	}
	txCharge := b.ChargeTransmissions(sensors.ModalityAccelerometer, len(sizes), payload)
	if math.Abs(txCharge-want) > 1e-9 {
		t.Fatalf("transmission charge = %v, want %v (sum of %d per-device charges)", txCharge, want, len(sizes))
	}
	if got := b.Meter().TaskLabel(energy.TaskTransmission, sensors.ModalityAccelerometer); math.Abs(got-want) > 1e-9 {
		t.Fatalf("metered transmission = %v µAh, want %v", got, want)
	}
	wantCPU := n*cpuSampling + n*cpuClassification +
		time.Duration(len(sizes))*cpuPerTxMessage + time.Duration(payload/1024)*cpuPerTxKB
	if got := b.CPU().Busy(); got != wantCPU {
		t.Fatalf("CPU busy = %v, want %v", got, wantCPU)
	}
}

func TestBulkChargerRejectsUnknownModality(t *testing.T) {
	b := NewBulkCharger(nil)
	if _, err := b.ChargeSamples("telepathy", 1); err == nil {
		t.Fatal("ChargeSamples accepted an unknown modality")
	}
	if _, err := b.ChargeClassifications("telepathy", 1); err == nil {
		t.Fatal("ChargeClassifications accepted an unknown modality")
	}
}

func TestBulkChargerZeroCounts(t *testing.T) {
	b := NewBulkCharger(nil)
	if c, err := b.ChargeSamples(sensors.ModalityWiFi, 0); err != nil || c != 0 {
		t.Fatalf("ChargeSamples(0) = %v, %v", c, err)
	}
	if got := b.Meter().TotalMicroAh(); got != 0 {
		t.Fatalf("zero-count charge metered %v µAh", got)
	}
	if b.ChargeIdle(0, time.Minute) != 0 {
		t.Fatal("ChargeIdle with no devices charged energy")
	}
}

func TestBulkChargerIdle(t *testing.T) {
	cost := energy.DefaultCostModel()
	b := NewBulkCharger(nil)
	per := b.ChargeIdle(10, 30*time.Minute)
	if want := cost.IdleCost(30); per != want {
		t.Fatalf("per-device idle = %v, want %v", per, want)
	}
	if got := b.Meter().TaskLabel(energy.TaskIdle, "system"); got != per*10 {
		t.Fatalf("metered idle = %v, want %v", got, per*10)
	}
}
