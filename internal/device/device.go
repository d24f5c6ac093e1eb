// Package device simulates the smartphone that hosts the SenSocial mobile
// middleware: a Samsung Galaxy N7000-class handset with five sensors, a
// 2500 mAh battery, a CPU whose load the evaluation reports (Figure 5), and
// a radio attached to a netsim fabric.
//
// The device is where resource accounting happens: every sample,
// classification and transmission the middleware performs is charged to the
// energy meter (PowerTutor's role) and the CPU meter (TraceView/DDMS's
// role), using the calibrated cost model from the energy package.
package device

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/energy"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

// CPU work per middleware operation, calibrated against Figure 5: a local
// stream costs ~100 ms CPU per 60 s sampling cycle (50 local streams ≈ 8%
// load), while transmitting to the server adds ~550 ms (50 server streams ≈
// 54% load).
const (
	cpuSampling       = 60 * time.Millisecond
	cpuClassification = 40 * time.Millisecond
	cpuPerTxMessage   = 500 * time.Millisecond
	cpuPerTxKB        = 5 * time.Millisecond
)

// batteryMAh is the Galaxy N7000's battery capacity.
const batteryMAh = 2500

// CPUMeter accumulates busy time; utilization is busy/elapsed over a
// measurement window managed by the caller.
type CPUMeter struct {
	mu   sync.Mutex
	busy time.Duration
}

// AddBusy records CPU busy time.
func (c *CPUMeter) AddBusy(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy += d
}

// Busy returns total busy time recorded.
func (c *CPUMeter) Busy() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busy
}

// Utilization returns busy/elapsed in [0,1] for a window of the given
// length. Windows shorter than the busy time saturate at 1 (a fully loaded
// core).
func (c *CPUMeter) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(c.Busy()) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset zeroes the meter (start of a measurement window).
func (c *CPUMeter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = 0
}

// Config assembles a Device.
type Config struct {
	// ID is the device identification code used in stream configs and MQTT
	// topics.
	ID string
	// UserID is the owner (OSN identity).
	UserID string
	// Host is the device's network name on the fabric.
	Host string
	// Clock drives sampling schedules and timestamps.
	Clock vclock.Clock
	// Profile is the ground-truth behaviour of the device's user.
	Profile *sensors.Profile
	// Fabric connects the device to the simulated network; nil for devices
	// used purely in-process (unit tests).
	Fabric *netsim.Network
	// Dialer overrides the network path entirely (e.g. real TCP when a
	// simulated device talks to a server running as a separate process).
	// Takes precedence over Fabric.
	Dialer func(addr string) (net.Conn, error)
	// Seed makes sensor noise deterministic.
	Seed int64
	// Metrics registers the device counters (families sensocial_device_*,
	// labelled by modality and shared across devices). Nil uses a private
	// registry.
	Metrics *obs.Registry
	// Tracer records a device.sample span per acquisition; the mobile
	// middleware reuses it (via Tracer) for its upload span. Nil disables.
	Tracer *obs.Tracer
}

// Device is one simulated smartphone.
type Device struct {
	id     string
	userID string
	host   string
	clock  vclock.Clock
	fabric *netsim.Network
	dialer func(addr string) (net.Conn, error)

	suite   *sensors.Suite
	meter   *energy.Meter
	battery *energy.Battery
	cpu     *CPUMeter
	cost    energy.CostModel

	tracer      *obs.Tracer
	samples     *obs.CounterVec
	classifies  *obs.CounterVec
	txMessages  *obs.CounterVec
	txBytesByMd *obs.CounterVec

	mu        sync.Mutex
	idleSince time.Time
}

// New builds a device.
func New(cfg Config) (*Device, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("device: id required")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("device: %s: clock required", cfg.ID)
	}
	if cfg.Profile == nil {
		return nil, fmt.Errorf("device: %s: profile required", cfg.ID)
	}
	if cfg.Host == "" {
		cfg.Host = cfg.ID
	}
	battery, err := energy.NewBattery(batteryMAh)
	if err != nil {
		return nil, fmt.Errorf("device: %s: %w", cfg.ID, err)
	}
	suite, err := sensors.NewSuite(cfg.Profile, cfg.Clock.Now(), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("device: %s: %w", cfg.ID, err)
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	return &Device{
		id:        cfg.ID,
		userID:    cfg.UserID,
		host:      cfg.Host,
		clock:     cfg.Clock,
		fabric:    cfg.Fabric,
		dialer:    cfg.Dialer,
		suite:     suite,
		meter:     energy.NewMeter(),
		battery:   battery,
		cpu:       &CPUMeter{},
		cost:      energy.DefaultCostModel(),
		tracer:    cfg.Tracer,
		idleSince: cfg.Clock.Now(),
		samples: metrics.CounterVec("sensocial_device_samples_total",
			"Sensor readings acquired (all devices), by modality.", "modality"),
		classifies: metrics.CounterVec("sensocial_device_classifications_total",
			"On-device classification passes (all devices), by modality.", "modality"),
		txMessages: metrics.CounterVec("sensocial_device_tx_messages_total",
			"Uplink transmissions charged (all devices), by modality.", "modality"),
		txBytesByMd: metrics.CounterVec("sensocial_device_tx_bytes_total",
			"Uplink payload bytes charged (all devices), by modality.", "modality"),
	}, nil
}

// ID returns the device identification code.
func (d *Device) ID() string { return d.id }

// UserID returns the owning user's id.
func (d *Device) UserID() string { return d.userID }

// Clock returns the device's clock.
func (d *Device) Clock() vclock.Clock { return d.clock }

// Meter exposes the energy meter (the experiment harness reads it).
func (d *Device) Meter() *energy.Meter { return d.meter }

// Battery exposes battery state.
func (d *Device) Battery() *energy.Battery { return d.battery }

// CPU exposes the CPU meter.
func (d *Device) CPU() *CPUMeter { return d.cpu }

// Suite exposes the raw sensor suite (tests assert against ground truth).
func (d *Device) Suite() *sensors.Suite { return d.suite }

// Tracer exposes the device's span tracer (nil when tracing is disabled);
// the mobile middleware parents its upload spans on it.
func (d *Device) Tracer() *obs.Tracer { return d.tracer }

// Dial opens a connection from this device's host through its configured
// network path (a custom dialer when set, otherwise the simulated fabric).
func (d *Device) Dial(addr string) (net.Conn, error) {
	if d.dialer != nil {
		conn, err := d.dialer(addr)
		if err != nil {
			return nil, fmt.Errorf("device: %s: dial %s: %w", d.id, addr, err)
		}
		return conn, nil
	}
	if d.fabric == nil {
		return nil, fmt.Errorf("device: %s: not attached to a network fabric", d.id)
	}
	conn, err := d.fabric.Dial(d.host, addr)
	if err != nil {
		return nil, fmt.Errorf("device: %s: dial %s: %w", d.id, addr, err)
	}
	return conn, nil
}

// Sample acquires one reading, charging sampling energy and CPU.
func (d *Device) Sample(modality string) (sensors.Reading, error) {
	sp := d.tracer.Start("device.sample", 0)
	defer sp.End()
	sp.SetAttr("device", d.id)
	sp.SetAttr("modality", modality)
	r, err := d.suite.Sample(modality, d.clock.Now())
	if err != nil {
		return sensors.Reading{}, fmt.Errorf("device: %s: %w", d.id, err)
	}
	cost, err := d.cost.SamplingCost(modality)
	if err != nil {
		return sensors.Reading{}, fmt.Errorf("device: %s: %w", d.id, err)
	}
	d.charge(energy.TaskSampling, modality, cost)
	d.cpu.AddBusy(cpuSampling)
	d.samples.WithLabelValues(modality).Inc()
	return r, nil
}

// Classify runs a registry classifier over a reading, charging
// classification energy and CPU.
func (d *Device) Classify(reg *classify.Registry, r sensors.Reading) (string, error) {
	if reg == nil {
		return "", fmt.Errorf("device: %s: nil classifier registry", d.id)
	}
	label, err := reg.Classify(r)
	if err != nil {
		return "", fmt.Errorf("device: %s: %w", d.id, err)
	}
	cost, err := d.cost.ClassificationCost(r.Modality)
	if err != nil {
		return "", fmt.Errorf("device: %s: %w", d.id, err)
	}
	d.charge(energy.TaskClassification, r.Modality, cost)
	d.cpu.AddBusy(cpuClassification)
	d.classifies.WithLabelValues(r.Modality).Inc()
	return label, nil
}

// ChargeClassification accounts for one on-device classification pass over
// a modality without running a registry classifier — applications that
// hand-roll their inference (the Table 5 baselines) still burn the energy.
func (d *Device) ChargeClassification(modality string) error {
	cost, err := d.cost.ClassificationCost(modality)
	if err != nil {
		return fmt.Errorf("device: %s: %w", d.id, err)
	}
	d.charge(energy.TaskClassification, modality, cost)
	d.cpu.AddBusy(cpuClassification)
	d.classifies.WithLabelValues(modality).Inc()
	return nil
}

// ChargeTransmission accounts for uploading payloadBytes attributed to a
// modality label.
func (d *Device) ChargeTransmission(modality string, payloadBytes int) {
	d.charge(energy.TaskTransmission, modality, d.cost.TransmissionCost(payloadBytes))
	d.cpu.AddBusy(cpuPerTxMessage + time.Duration(payloadBytes/1024)*cpuPerTxKB)
	d.txMessages.WithLabelValues(modality).Inc()
	d.txBytesByMd.WithLabelValues(modality).Add(uint64(payloadBytes))
}

// AccrueIdle charges baseline idle energy for the wall time elapsed since
// the last accrual (keepalive, timers). Call it periodically or at
// measurement boundaries.
func (d *Device) AccrueIdle() {
	d.mu.Lock()
	now := d.clock.Now()
	elapsed := now.Sub(d.idleSince)
	d.idleSince = now
	d.mu.Unlock()
	if elapsed > 0 {
		d.charge(energy.TaskIdle, "system", d.cost.IdleCost(elapsed.Minutes()))
	}
}

func (d *Device) charge(task energy.Task, label string, microAh float64) {
	d.meter.Add(task, label, microAh)
	d.battery.Drain(microAh)
}
