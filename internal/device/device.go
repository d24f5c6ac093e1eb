// Package device simulates the smartphone that hosts the SenSocial mobile
// middleware: a Samsung Galaxy N7000-class handset with five sensors, a
// 2500 mAh battery, a CPU whose load the evaluation reports (Figure 5), and
// a radio reached through an injected dial function (a simulated fabric or
// real TCP).
//
// The package is where resource accounting happens. Every sample,
// classification and transmission is charged through a BulkCharger to the
// energy meter (PowerTutor's role) and the CPU meter (TraceView/DDMS's
// role), using the calibrated cost model from the energy package. A full
// Device charges its own charger in batches of one; the simulator's device
// pool charges one shared charger per frame.
package device

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/energy"
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
	// Clock drives sampling schedules and timestamps.
	Clock vclock.Clock
	// Profile is the ground-truth behaviour of the device's user.
	Profile *sensors.Profile
	// Dial is the device's network path: a simulated fabric dial from the
	// device's host, or real TCP when the server runs as a separate
	// process. Nil for devices used purely in-process (unit tests).
	Dial func(addr string) (net.Conn, error)
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
	clock  vclock.Clock
	dial   func(addr string) (net.Conn, error)

	suite   *sensors.Suite
	battery *energy.Battery
	charger BulkCharger
	tracer  *obs.Tracer

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
	battery, err := energy.NewBattery(batteryMAh)
	if err != nil {
		return nil, fmt.Errorf("device: %s: %w", cfg.ID, err)
	}
	suite, err := sensors.NewSuite(cfg.Profile, cfg.Clock.Now(), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("device: %s: %w", cfg.ID, err)
	}
	return &Device{
		id:        cfg.ID,
		userID:    cfg.UserID,
		clock:     cfg.Clock,
		dial:      cfg.Dial,
		suite:     suite,
		battery:   battery,
		charger:   NewBulkCharger(cfg.Metrics),
		tracer:    cfg.Tracer,
		idleSince: cfg.Clock.Now(),
	}, nil
}

// ID returns the device identification code.
func (d *Device) ID() string { return d.id }

// UserID returns the owning user's id.
func (d *Device) UserID() string { return d.userID }

// Clock returns the device's clock.
func (d *Device) Clock() vclock.Clock { return d.clock }

// Meter exposes the energy meter (the experiment harness reads it).
func (d *Device) Meter() *energy.Meter { return d.charger.Meter() }

// Battery exposes battery state.
func (d *Device) Battery() *energy.Battery { return d.battery }

// CPU exposes the CPU meter.
func (d *Device) CPU() *CPUMeter { return d.charger.CPU() }

// Suite exposes the raw sensor suite (tests assert against ground truth).
func (d *Device) Suite() *sensors.Suite { return d.suite }

// Tracer exposes the device's span tracer (nil when tracing is disabled);
// the mobile middleware parents its upload spans on it.
func (d *Device) Tracer() *obs.Tracer { return d.tracer }

// Dial opens a connection through the device's configured network path.
func (d *Device) Dial(addr string) (net.Conn, error) {
	if d.dial == nil {
		return nil, fmt.Errorf("device: %s: no network path", d.id)
	}
	conn, err := d.dial(addr)
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
	cost, err := d.charger.ChargeSamples(modality, 1)
	if err != nil {
		return sensors.Reading{}, fmt.Errorf("device: %s: %w", d.id, err)
	}
	d.battery.Drain(cost)
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
	if err := d.ChargeClassification(r.Modality); err != nil {
		return "", err
	}
	return label, nil
}

// ChargeClassification accounts for one on-device classification pass over
// a modality without running a registry classifier — applications that
// hand-roll their inference (the Table 5 baselines) still burn the energy.
func (d *Device) ChargeClassification(modality string) error {
	cost, err := d.charger.ChargeClassifications(modality, 1)
	if err != nil {
		return fmt.Errorf("device: %s: %w", d.id, err)
	}
	d.battery.Drain(cost)
	return nil
}

// ChargeTransmission accounts for uploading payloadBytes attributed to a
// modality label; a negative byte count is charged as 0.
func (d *Device) ChargeTransmission(modality string, payloadBytes int) {
	d.battery.Drain(d.charger.ChargeTransmissions(modality, 1, max(payloadBytes, 0)))
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
	d.battery.Drain(d.charger.ChargeIdle(1, elapsed))
}
