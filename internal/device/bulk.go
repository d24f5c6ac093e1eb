package device

import (
	"time"

	"repro/internal/energy"
	"repro/internal/obs"
)

// BulkCharger is the resource accountant of every simulated device: one
// cost model, one energy meter, one CPU meter and the sensocial_device_*
// counters. A full Device holds one and charges each operation as a batch
// of one; the device pool shares one across the whole fleet and charges a
// frame's operations in batches, one call per frame per modality instead of
// one per device. Each call returns the energy price of what it charged so
// a Device can drain its battery by it.
//
// Because both paths charge through the same code, a pooled fleet and a
// full fleet running the same schedule report the same energy totals. CPU
// time differs in one place: a batch of transmissions is charged
// cpuPerTxKB per whole KB of the batch's total payload, so a batch rounds
// down once where a run of batches of one rounds down per message.
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
// registry keeps the sensocial_device_* families private. It is the one
// place those families are registered. The charger is returned by value so
// a Device can hold it without a separate allocation.
func NewBulkCharger(metrics *obs.Registry) BulkCharger {
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	return BulkCharger{
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

// Meter exposes the energy meter.
func (b *BulkCharger) Meter() *energy.Meter { return b.meter }

// CPU exposes the CPU meter.
func (b *BulkCharger) CPU() *CPUMeter { return b.cpu }

// ChargeSamples accounts for n sampling acquisitions of one modality and
// returns the per-acquisition energy cost in µAh (for battery bookkeeping).
func (b *BulkCharger) ChargeSamples(modality string, n int) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	cost, err := b.cost.SamplingCost(modality)
	if err != nil {
		return 0, err
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
		return 0, err
	}
	b.meter.Add(energy.TaskClassification, modality, cost*float64(n))
	b.cpu.AddBusy(time.Duration(n) * cpuClassification)
	b.classifies.WithLabelValues(modality).Add(uint64(n))
	return cost, nil
}

// ChargeTransmissions accounts for messages uplink transmissions totalling
// payloadBytes, attributed to one modality label, and returns the total
// energy charged in µAh: the per-message cost once per message plus the
// per-byte cost of the whole payload.
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
