package sensing

import (
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/geo"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

var epoch = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)

func newManager(t *testing.T, clock vclock.Clock) *Manager {
	t.Helper()
	p, err := sensors.NewProfile(geo.Stationary{At: geo.Point{Lat: 48.8566, Lon: 2.3522}})
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	d, err := device.New(device.Config{ID: "dev1", Clock: clock, Profile: p, Seed: 1})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	m, err := NewManager(d)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(nil); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestDefaultSettings(t *testing.T) {
	s, err := DefaultSettings(sensors.ModalityLocation)
	if err != nil {
		t.Fatalf("DefaultSettings: %v", err)
	}
	if s.Interval != time.Minute || s.DutyCycle != 1 {
		t.Fatalf("defaults = %+v", s)
	}
	if _, err := DefaultSettings("gyroscope"); err == nil {
		t.Fatal("unknown modality accepted")
	}
}

func TestSettingsValidate(t *testing.T) {
	bad := []Settings{
		{Interval: 0, DutyCycle: 1},
		{Interval: time.Second, DutyCycle: 0},
		{Interval: time.Second, DutyCycle: 1.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", s)
		}
	}
	if err := (Settings{Interval: time.Second, DutyCycle: 0.5}).Validate(); err != nil {
		t.Fatalf("valid settings rejected: %v", err)
	}
}

func TestSenseOnce(t *testing.T) {
	m := newManager(t, vclock.NewManual(epoch))
	r, err := m.SenseOnce(sensors.ModalityWiFi)
	if err != nil {
		t.Fatalf("SenseOnce: %v", err)
	}
	if r.Modality != sensors.ModalityWiFi {
		t.Fatalf("reading = %+v", r)
	}
	if _, err := m.SenseOnce("gyroscope"); err == nil {
		t.Fatal("unknown modality accepted")
	}
}

func TestSubscribeDeliversPerInterval(t *testing.T) {
	clock := vclock.NewManual(epoch)
	m := newManager(t, clock)
	var mu sync.Mutex
	count := 0
	sub, err := m.Subscribe(sensors.ModalityLocation, Settings{Interval: time.Minute, DutyCycle: 1},
		func(sensors.Reading) {
			mu.Lock()
			count++
			mu.Unlock()
		})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if sub.Modality() != sensors.ModalityLocation {
		t.Fatalf("Modality = %q", sub.Modality())
	}
	clock.BlockUntilWaiters(1)
	for i := 0; i < 5; i++ {
		clock.Advance(time.Minute)
		waitForCount(t, &mu, &count, i+1)
	}
	sub.Stop()
	// After Stop, further ticks deliver nothing.
	clock.Advance(5 * time.Minute)
	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 5 {
		t.Fatalf("post-stop deliveries: %d", count)
	}
}

func TestSubscribeDutyCycleSkipsCycles(t *testing.T) {
	clock := vclock.NewManual(epoch)
	m := newManager(t, clock)
	var mu sync.Mutex
	count := 0
	_, err := m.Subscribe(sensors.ModalityWiFi, Settings{Interval: time.Minute, DutyCycle: 0.5},
		func(sensors.Reading) {
			mu.Lock()
			count++
			mu.Unlock()
		})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	clock.BlockUntilWaiters(1)
	// 10 cycles at duty 0.5: 5 samples. The loop runs an absolute schedule,
	// so every advanced interval produces exactly one cycle even if the
	// subscription goroutine lags the advances.
	for i := 0; i < 10; i++ {
		clock.Advance(time.Minute)
		waitForCount(t, &mu, &count, (i+1)/2)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 5 {
		t.Fatalf("duty-cycled deliveries = %d, want 5", count)
	}
}

func TestSubscribeValidation(t *testing.T) {
	m := newManager(t, vclock.NewManual(epoch))
	ok := Settings{Interval: time.Second, DutyCycle: 1}
	if _, err := m.Subscribe("gyroscope", ok, func(sensors.Reading) {}); err == nil {
		t.Fatal("unknown modality accepted")
	}
	if _, err := m.Subscribe(sensors.ModalityWiFi, Settings{}, func(sensors.Reading) {}); err == nil {
		t.Fatal("invalid settings accepted")
	}
	if _, err := m.Subscribe(sensors.ModalityWiFi, ok, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
	m.Close()
	if _, err := m.Subscribe(sensors.ModalityWiFi, ok, func(sensors.Reading) {}); err == nil {
		t.Fatal("closed manager accepted")
	}
}

func TestManagerCloseStopsSubscriptions(t *testing.T) {
	clock := vclock.NewManual(epoch)
	m := newManager(t, clock)
	for i := 0; i < 3; i++ {
		if _, err := m.Subscribe(sensors.ModalityWiFi, Settings{Interval: time.Minute, DutyCycle: 1},
			func(sensors.Reading) {}); err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
	}
	if m.ActiveSubscriptions() != 3 {
		t.Fatalf("ActiveSubscriptions = %d", m.ActiveSubscriptions())
	}
	m.Close()
	if m.ActiveSubscriptions() != 0 {
		t.Fatalf("subscriptions after Close = %d", m.ActiveSubscriptions())
	}
	if _, err := m.Subscribe(sensors.ModalityWiFi, Settings{Interval: time.Minute, DutyCycle: 1},
		func(sensors.Reading) {}); err == nil {
		t.Fatal("Subscribe after Close accepted")
	}
	m.Close() // idempotent
}

func TestStopIdempotent(t *testing.T) {
	clock := vclock.NewManual(epoch)
	m := newManager(t, clock)
	sub, err := m.Subscribe(sensors.ModalityWiFi, Settings{Interval: time.Minute, DutyCycle: 1},
		func(sensors.Reading) {})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sub.Stop()
	sub.Stop()
}

func waitForCount(t *testing.T, mu *sync.Mutex, count *int, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		c := *count
		mu.Unlock()
		if c >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("count = %d, want >= %d", c, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestSubscribeAnchorsScheduleBeforeReturn is the regression test for the
// schedule-anchor race: the sampling schedule used to be anchored inside
// the subscription goroutine, so a clock advance landing between Subscribe
// returning and that goroutine's first instruction pushed every cycle one
// interval late and the advanced interval's sample never arrived. The
// anchor is now captured before Subscribe returns, so an immediate advance
// — no synchronization whatsoever — must still produce its sample.
func TestSubscribeAnchorsScheduleBeforeReturn(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		clock := vclock.NewManual(epoch)
		m := newManager(t, clock)
		var mu sync.Mutex
		count := 0
		sub, err := m.Subscribe(sensors.ModalityWiFi, Settings{Interval: time.Minute, DutyCycle: 1},
			func(sensors.Reading) {
				mu.Lock()
				count++
				mu.Unlock()
			})
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		// Deliberately no BlockUntilWaiters: the advance races the loop
		// goroutine's startup.
		clock.Advance(time.Minute)
		waitForCount(t, &mu, &count, 1)
		sub.Stop()
	}
}

// armDriftClock is a manual clock that moves by drift the first time the
// loop arms a wait once ready is closed: after the loop has read the time
// and before its wait is filed, the interleaving a test or simulation
// advancing on another goroutine produces.
type armDriftClock struct {
	*vclock.Manual
	drift time.Duration
	once  sync.Once
	ready chan struct{}
}

func (c *armDriftClock) move() {
	select {
	case <-c.ready:
		c.once.Do(func() { c.Manual.Advance(c.drift) })
	default:
	}
}

func (c *armDriftClock) NewTimer(d time.Duration) vclock.Timer {
	c.move()
	return c.Manual.NewTimer(d)
}

func (c *armDriftClock) Schedule(at time.Time, fn func(time.Time)) vclock.Event {
	c.move()
	return c.Manual.Schedule(at, fn)
}

// TestSubscribeWaitArmedAtDeadline: a cycle whose deadline the clock
// reaches while the loop is arming its wait runs, although the clock then
// stays parked. A wait armed for the interval left at the time read before
// the clock moved would fire one interval late, that is never; this is
// what made TestDutyCycleReducesSampling time out under load.
func TestSubscribeWaitArmedAtDeadline(t *testing.T) {
	clock := &armDriftClock{Manual: vclock.NewManual(epoch), drift: time.Minute, ready: make(chan struct{})}
	m := newManager(t, clock)
	var mu sync.Mutex
	count := 0
	sub, err := m.Subscribe(sensors.ModalityWiFi, Settings{Interval: time.Minute, DutyCycle: 1},
		func(sensors.Reading) {
			mu.Lock()
			count++
			mu.Unlock()
		})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Stop()
	clock.BlockUntilWaiters(1)
	close(clock.ready)
	// The first cycle runs; arming the second moves the clock onto its
	// deadline.
	clock.Advance(time.Minute)
	waitForCount(t, &mu, &count, 2)
}
