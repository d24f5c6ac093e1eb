package device

import (
	"maps"
	"math"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

// TestDeviceChargesLikeOneBatch: n operations on a full Device must leave
// exactly the state one BulkCharger reaches when charged with one batch of
// n per operation kind — the meter by task and by label, CPU busy time, the
// battery drain (the sum of the prices the charger returns) and the
// sensocial_device_* series. The inputs keep every float sum exact, so the
// comparison is bit-for-bit: the accelerometer's sampling and
// classification costs are whole µAh, payloads are whole multiples of
// 625 KiB (1024 µAh at 0.0016 µAh/B, and whole KB, so batching does not
// change the per-KB CPU rounding), and each idle window is 200 minutes
// (63 µAh).
func TestDeviceChargesLikeOneBatch(t *testing.T) {
	const (
		n        = 9
		mod      = sensors.ModalityAccelerometer
		idleStep = 200 * time.Minute
	)
	payloads := []int{0, 625 * 1024, 2 * 625 * 1024}

	clock := vclock.NewManual(epoch)
	devReg := obs.NewRegistry()
	d, err := New(Config{ID: "dev1", Clock: clock, Profile: testProfile(t), Seed: 1, Metrics: devReg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	classifiers, err := classify.DefaultRegistry(geo.EuropeanCities())
	if err != nil {
		t.Fatalf("DefaultRegistry: %v", err)
	}
	totalBytes := 0
	for i := 0; i < n; i++ {
		r, err := d.Sample(mod)
		if err != nil {
			t.Fatalf("Sample: %v", err)
		}
		if _, err := d.Classify(classifiers, r); err != nil {
			t.Fatalf("Classify: %v", err)
		}
		size := payloads[i%len(payloads)]
		totalBytes += size
		d.ChargeTransmission(mod, size)
		clock.Advance(idleStep)
		d.AccrueIdle()
	}

	refReg := obs.NewRegistry()
	ref := NewBulkCharger(refReg)
	perSample, err := ref.ChargeSamples(mod, n)
	if err != nil {
		t.Fatalf("ChargeSamples: %v", err)
	}
	perClass, err := ref.ChargeClassifications(mod, n)
	if err != nil {
		t.Fatalf("ChargeClassifications: %v", err)
	}
	tx := ref.ChargeTransmissions(mod, n, totalBytes)
	perIdle := ref.ChargeIdle(n, idleStep)
	wantDrain := perSample*n + perClass*n + tx + perIdle*n

	if got, want := d.Meter().ByTask(), ref.Meter().ByTask(); !maps.Equal(got, want) {
		t.Errorf("meter by task = %v, want %v", got, want)
	}
	if got, want := d.Meter().ByLabel(), ref.Meter().ByLabel(); !maps.Equal(got, want) {
		t.Errorf("meter by label = %v, want %v", got, want)
	}
	if got, want := d.CPU().Busy(), ref.CPU().Busy(); got != want {
		t.Errorf("CPU busy = %v, want %v", got, want)
	}
	if got := d.Battery().DrainedMicroAh(); got != wantDrain {
		t.Errorf("battery drain = %v µAh, want %v", got, wantDrain)
	}
	for _, name := range []string{
		"sensocial_device_samples_total",
		"sensocial_device_classifications_total",
		"sensocial_device_tx_messages_total",
		"sensocial_device_tx_bytes_total",
	} {
		if got, want := devReg.Sum(name, mod), refReg.Sum(name, mod); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

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
