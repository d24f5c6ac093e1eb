package device

import (
	"net"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

var epoch = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)

func testProfile(t *testing.T) *sensors.Profile {
	t.Helper()
	p, err := sensors.NewProfile(geo.Stationary{At: geo.Point{Lat: 48.8566, Lon: 2.3522}},
		sensors.WithPhases(false, sensors.Phase{
			Activity: sensors.ActivityWalking, Audio: sensors.AudioNoisy, Duration: time.Hour,
		}))
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	return p
}

func newDevice(t *testing.T, clock vclock.Clock) *Device {
	t.Helper()
	d, err := New(Config{
		ID:      "dev1",
		UserID:  "alice",
		Clock:   clock,
		Profile: testProfile(t),
		Seed:    1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	clock := vclock.NewManual(epoch)
	if _, err := New(Config{Clock: clock, Profile: testProfile(t)}); err == nil {
		t.Fatal("missing id accepted")
	}
	if _, err := New(Config{ID: "d", Profile: testProfile(t)}); err == nil {
		t.Fatal("missing clock accepted")
	}
	if _, err := New(Config{ID: "d", Clock: clock}); err == nil {
		t.Fatal("missing profile accepted")
	}
}

func TestSampleChargesEnergyAndCPU(t *testing.T) {
	clock := vclock.NewManual(epoch)
	d := newDevice(t, clock)
	r, err := d.Sample(sensors.ModalityAccelerometer)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if r.Modality != sensors.ModalityAccelerometer {
		t.Fatalf("reading = %+v", r)
	}
	cm := energy.DefaultCostModel()
	want, err := cm.SamplingCost(sensors.ModalityAccelerometer)
	if err != nil {
		t.Fatalf("SamplingCost: %v", err)
	}
	if got := d.Meter().TaskLabel(energy.TaskSampling, sensors.ModalityAccelerometer); got != want {
		t.Fatalf("sampling charge = %f, want %f", got, want)
	}
	if d.Battery().DrainedMicroAh() != want {
		t.Fatalf("battery drain = %f", d.Battery().DrainedMicroAh())
	}
	if d.CPU().Busy() == 0 {
		t.Fatal("no CPU time recorded")
	}
}

func TestSampleUnknownModality(t *testing.T) {
	d := newDevice(t, vclock.NewManual(epoch))
	if _, err := d.Sample("gyroscope"); err == nil {
		t.Fatal("unknown modality accepted")
	}
}

func TestClassifyChargesAndLabels(t *testing.T) {
	d := newDevice(t, vclock.NewManual(epoch))
	reg, err := classify.DefaultRegistry(geo.EuropeanCities())
	if err != nil {
		t.Fatalf("DefaultRegistry: %v", err)
	}
	r, err := d.Sample(sensors.ModalityAccelerometer)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	label, err := d.Classify(reg, r)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if label != "walking" {
		t.Fatalf("label = %q, want walking (ground truth)", label)
	}
	if d.Meter().TaskLabel(energy.TaskClassification, sensors.ModalityAccelerometer) == 0 {
		t.Fatal("no classification charge")
	}
	if _, err := d.Classify(nil, r); err == nil {
		t.Fatal("nil registry accepted")
	}
}

func TestChargeTransmissionScalesWithBytes(t *testing.T) {
	d := newDevice(t, vclock.NewManual(epoch))
	d.ChargeTransmission(sensors.ModalityAccelerometer, 100)
	small := d.Meter().TaskLabel(energy.TaskTransmission, sensors.ModalityAccelerometer)
	d.ChargeTransmission(sensors.ModalityAccelerometer, 100000)
	total := d.Meter().TaskLabel(energy.TaskTransmission, sensors.ModalityAccelerometer)
	if total-small <= small {
		t.Fatalf("large payload (%f) not costlier than small (%f)", total-small, small)
	}
}

func TestAccrueIdle(t *testing.T) {
	clock := vclock.NewManual(epoch)
	d := newDevice(t, clock)
	clock.Advance(20 * time.Minute)
	d.AccrueIdle()
	got := d.Meter().ByTask()[energy.TaskIdle]
	want := energy.DefaultCostModel().IdleCost(20)
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("idle charge = %f, want ≈ %f", got, want)
	}
	// A second immediate accrual adds nothing.
	d.AccrueIdle()
	if again := d.Meter().ByTask()[energy.TaskIdle]; again != got {
		t.Fatalf("double accrual: %f -> %f", got, again)
	}
}

func TestCPUMeterUtilization(t *testing.T) {
	var c CPUMeter
	c.AddBusy(500 * time.Millisecond)
	c.AddBusy(-time.Second) // ignored
	if got := c.Utilization(10 * time.Second); got != 0.05 {
		t.Fatalf("utilization = %f, want 0.05", got)
	}
	if got := c.Utilization(100 * time.Millisecond); got != 1 {
		t.Fatalf("saturated utilization = %f, want 1", got)
	}
	if got := c.Utilization(0); got != 0 {
		t.Fatalf("zero window utilization = %f", got)
	}
	c.Reset()
	if c.Busy() != 0 {
		t.Fatal("reset failed")
	}
}

func TestDialWithoutFabricFails(t *testing.T) {
	d := newDevice(t, vclock.NewManual(epoch))
	if _, err := d.Dial("server:1883"); err == nil {
		t.Fatal("dial without fabric succeeded")
	}
}

func TestDialThroughFabric(t *testing.T) {
	clock := vclock.NewReal()
	fabric := netsim.NewNetwork(clock, 1)
	defer fabric.Close()
	l, err := fabric.Listen("server:1883")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	accepted := make(chan struct{})
	go func() {
		if c, err := l.Accept(); err == nil {
			_ = c.Close()
		}
		close(accepted)
	}()
	d, err := New(Config{
		ID: "dev1", Clock: clock, Profile: testProfile(t), Seed: 1,
		Dial: func(addr string) (net.Conn, error) { return fabric.Dial("dev1", addr) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	conn, err := d.Dial("server:1883")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	<-accepted
}

func TestAccessors(t *testing.T) {
	d := newDevice(t, vclock.NewManual(epoch))
	if d.ID() != "dev1" || d.UserID() != "alice" {
		t.Fatal("identity accessors wrong")
	}
	if d.Clock() == nil || d.Suite() == nil || d.Meter() == nil || d.Battery() == nil || d.CPU() == nil {
		t.Fatal("nil component accessor")
	}
}

func TestDialWithCustomDialer(t *testing.T) {
	// A custom dialer (the real-TCP path of cmd/sensocial-mobile) is the
	// device's whole network path.
	dialed := ""
	d, err := New(Config{
		ID: "d", Clock: vclock.NewManual(epoch), Profile: testProfile(t), Seed: 1,
		Dial: func(addr string) (net.Conn, error) {
			dialed = addr
			c1, c2 := net.Pipe()
			go func() { _ = c2.Close() }()
			return c1, nil
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	conn, err := d.Dial("server:1883")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	_ = conn.Close()
	if dialed != "server:1883" {
		t.Fatalf("dialer saw %q", dialed)
	}
	// Dial errors are wrapped with device identity.
	d2, err := New(Config{
		ID: "d2", Clock: vclock.NewManual(epoch), Profile: testProfile(t), Seed: 1,
		Dial: func(string) (net.Conn, error) { return nil, net.ErrClosed },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := d2.Dial("x"); err == nil {
		t.Fatal("dialer error swallowed")
	}
}

func TestChargeClassificationDirect(t *testing.T) {
	d := newDevice(t, vclock.NewManual(epoch))
	if err := d.ChargeClassification(sensors.ModalityMicrophone); err != nil {
		t.Fatalf("ChargeClassification: %v", err)
	}
	want, err := energy.DefaultCostModel().ClassificationCost(sensors.ModalityMicrophone)
	if err != nil {
		t.Fatalf("ClassificationCost: %v", err)
	}
	if got := d.Meter().TaskLabel(energy.TaskClassification, sensors.ModalityMicrophone); got != want {
		t.Fatalf("charge = %f, want %f", got, want)
	}
	if err := d.ChargeClassification("gyroscope"); err == nil {
		t.Fatal("unknown modality accepted")
	}
}
