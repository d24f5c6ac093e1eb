package device

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/obs"
)

// BulkCharger is the resource accountant for pooled simulated devices. The
// full-fidelity path gives every device its own Device with a private
// meter, battery and CPU meter; at 100k+ devices that is most of the
// per-device footprint, and the per-operation lock/map traffic dominates
// the tick loop. The pool instead shares one meter and one CPU meter for
// the whole fleet and charges operations in batches — one call per frame
// per modality instead of one per device — while returning the per-
// operation energy price so the caller can debit its own flat per-device
// battery accounts.
//
// The cost model and CPU constants are identical to Device's, so a pooled
// fleet and a full fleet running the same schedule report the same energy
// totals. CPU time differs in one place: a batch of transmissions is
// charged cpuPerTxKB per whole KB of the batch's total payload, where
// Device rounds down per message.
type BulkCharger struct {
	cost  energy.CostModel
	meter *energy.Meter
	cpu   *CPUMeter

	samples     *obs.CounterVec
	classifies  *obs.CounterVec
	txMessages  *obs.CounterVec
	txBytesByMd *obs.CounterVec
}

// NewBulkCharger builds a charger over energy.DefaultCostModel; a nil
// registry keeps the sensocial_device_* families private.
func NewBulkCharger(metrics *obs.Registry) *BulkCharger {
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	return &BulkCharger{
		cost:  energy.DefaultCostModel(),
		meter: energy.NewMeter(),
		cpu:   &CPUMeter{},
		samples: metrics.CounterVec("sensocial_device_samples_total",
			"Sensor readings acquired (all devices), by modality.", "modality"),
		classifies: metrics.CounterVec("sensocial_device_classifications_total",
			"On-device classification passes (all devices), by modality.", "modality"),
		txMessages: metrics.CounterVec("sensocial_device_tx_messages_total",
			"Uplink transmissions charged (all devices), by modality.", "modality"),
		txBytesByMd: metrics.CounterVec("sensocial_device_tx_bytes_total",
			"Uplink payload bytes charged (all devices), by modality.", "modality"),
	}
}

// Meter exposes the fleet-wide energy meter.
func (b *BulkCharger) Meter() *energy.Meter { return b.meter }

// CPU exposes the fleet-wide CPU meter.
func (b *BulkCharger) CPU() *CPUMeter { return b.cpu }

// ChargeSamples accounts for n sampling acquisitions of one modality and
// returns the per-acquisition energy cost in µAh (for per-device battery
// bookkeeping).
func (b *BulkCharger) ChargeSamples(modality string, n int) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	cost, err := b.cost.SamplingCost(modality)
	if err != nil {
		return 0, fmt.Errorf("device: bulk sampling: %w", err)
	}
	b.meter.Add(energy.TaskSampling, modality, cost*float64(n))
	b.cpu.AddBusy(time.Duration(n) * cpuSampling)
	b.samples.WithLabelValues(modality).Add(uint64(n))
	return cost, nil
}

// ChargeClassifications accounts for n classification passes of one
// modality, returning the per-pass energy cost in µAh.
func (b *BulkCharger) ChargeClassifications(modality string, n int) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	cost, err := b.cost.ClassificationCost(modality)
	if err != nil {
		return 0, fmt.Errorf("device: bulk classification: %w", err)
	}
	b.meter.Add(energy.TaskClassification, modality, cost*float64(n))
	b.cpu.AddBusy(time.Duration(n) * cpuClassification)
	b.classifies.WithLabelValues(modality).Add(uint64(n))
	return cost, nil
}

// ChargeTransmissions accounts for messages uplink transmissions totalling
// payloadBytes, attributed to one modality label, and returns the total
// energy charged in µAh: the per-message cost once per message plus the
// per-byte cost of the whole payload, as messages Device.ChargeTransmission
// calls would.
func (b *BulkCharger) ChargeTransmissions(modality string, messages, payloadBytes int) float64 {
	if messages <= 0 {
		return 0
	}
	cost := float64(messages)*b.cost.TxPerMessage + float64(payloadBytes)*b.cost.TxPerByte
	b.meter.Add(energy.TaskTransmission, modality, cost)
	b.cpu.AddBusy(time.Duration(messages)*cpuPerTxMessage +
		time.Duration(payloadBytes/1024)*cpuPerTxKB)
	b.txMessages.WithLabelValues(modality).Add(uint64(messages))
	b.txBytesByMd.WithLabelValues(modality).Add(uint64(payloadBytes))
	return cost
}

// ChargeIdle accounts baseline idle energy for n devices over a window,
// returning the per-device cost in µAh.
func (b *BulkCharger) ChargeIdle(n int, elapsed time.Duration) float64 {
	if n <= 0 || elapsed <= 0 {
		return 0
	}
	cost := b.cost.IdleCost(elapsed.Minutes())
	b.meter.Add(energy.TaskIdle, "system", cost*float64(n))
	return cost
}
