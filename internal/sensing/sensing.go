// Package sensing is the ESSensorManager-equivalent sampling layer (paper
// §4: "the SenSocial mobile middleware relies on the third party
// ESSensorManager library for adaptive sensing"). It offers the two modes
// the paper describes:
//
//   - one-off sensing, used for streams conditioned on OSN action triggers
//     ("sensing is triggered once, remotely, only if an OSN action is
//     observed");
//   - subscription-based sensing, which continuously samples on a duty
//     cycle and sample interval configured through a settings object.
package sensing

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

// Settings tunes a subscription, mirroring the key-value sensing
// configuration object the paper passes to ESSensorManager.
type Settings struct {
	// Interval is the sampling period.
	Interval time.Duration
	// DutyCycle in (0,1] is the fraction of cycles actually sampled.
	DutyCycle float64
}

// DefaultSettings returns the per-modality defaults ("we use the default
// sensing configuration values from the ESSensorManager library"; the
// evaluation samples every 60 seconds).
func DefaultSettings(modality string) (Settings, error) {
	if !sensors.IsModality(modality) {
		return Settings{}, fmt.Errorf("sensing: unknown modality %q", modality)
	}
	return Settings{Interval: time.Minute, DutyCycle: 1}, nil
}

// Validate checks the settings.
func (s Settings) Validate() error {
	if s.Interval <= 0 {
		return fmt.Errorf("sensing: interval must be positive, got %v", s.Interval)
	}
	if s.DutyCycle <= 0 || s.DutyCycle > 1 {
		return fmt.Errorf("sensing: duty cycle must be in (0,1], got %f", s.DutyCycle)
	}
	return nil
}

// Manager coordinates one device's sensor sampling.
type Manager struct {
	dev *device.Device

	mu     sync.Mutex
	subs   map[int]*Subscription
	nextID int
	closed bool
}

// NewManager builds a sensing manager over a device.
func NewManager(dev *device.Device) (*Manager, error) {
	if dev == nil {
		return nil, fmt.Errorf("sensing: manager requires a device")
	}
	return &Manager{dev: dev, subs: make(map[int]*Subscription)}, nil
}

// SenseOnce performs one-off sensing of a modality.
func (m *Manager) SenseOnce(modality string) (sensors.Reading, error) {
	return m.dev.Sample(modality)
}

// Subscribe starts subscription-based sensing: fn receives one reading per
// executed cycle until Stop. fn runs on the subscription's goroutine.
func (m *Manager) Subscribe(modality string, s Settings, fn func(sensors.Reading)) (*Subscription, error) {
	if !sensors.IsModality(modality) {
		return nil, fmt.Errorf("sensing: unknown modality %q", modality)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if fn == nil {
		return nil, fmt.Errorf("sensing: nil callback for %q", modality)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("sensing: manager closed")
	}
	m.nextID++
	sub := &Subscription{
		manager:  m,
		id:       m.nextID,
		modality: modality,
		settings: s,
		fn:       fn,
		done:     make(chan struct{}),
	}
	m.subs[sub.id] = sub
	// The schedule anchor is captured before Subscribe returns. Anchoring
	// inside the goroutine raced external clock advances: an advance landing
	// between Subscribe returning and the goroutine's first instruction
	// pushed the whole cycle schedule one interval late, silently losing a
	// sample a caller had every right to expect.
	anchor := m.dev.Clock().Now()
	sub.wg.Add(1)
	go func() {
		defer sub.wg.Done()
		sub.loop(anchor)
	}()
	return sub, nil
}

// ActiveSubscriptions reports how many subscriptions are running.
func (m *Manager) ActiveSubscriptions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.subs)
}

// Close stops every subscription and rejects new ones.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	subs := make([]*Subscription, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.mu.Unlock()
	for _, s := range subs {
		s.Stop()
	}
}

// Subscription is one continuous sampling loop.
type Subscription struct {
	manager  *Manager
	id       int
	modality string
	settings Settings
	policy   *AdaptivePolicy // nil for static duty cycling
	fn       func(sensors.Reading)

	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
}

// Modality returns the sampled modality.
func (s *Subscription) Modality() string { return s.modality }

// loop runs one timer per cycle against a Cadence's absolute schedule
// (anchor + k*interval) instead of a ticker. A ticker's buffered channel
// drops a tick whenever the previous one has not been consumed yet, so two
// clock advances landing before this goroutine is scheduled would silently
// lose a cycle; the absolute schedule runs every elapsed interval exactly
// once, no matter how the advances interleave with this goroutine.
func (s *Subscription) loop(anchor time.Time) {
	clk := s.manager.dev.Clock()
	cad := NewCadence(anchor, s.settings.Interval)
	for {
		if now := clk.Now(); cad.Next.After(now) {
			// The alarm is armed at the cycle's absolute deadline: an
			// advance landing after Now was read must not push it one
			// interval late, where a clock that then stops never fires it.
			fire, stop := vclock.Alarm(clk, cad.Next, now)
			select {
			case <-fire:
			case <-s.done:
				stop()
				return
			}
		} else {
			// The clock already passed the deadline (an advance landed while
			// the previous cycle ran, or before this goroutine started): run
			// the cycle immediately so the elapsed interval is not lost.
			select {
			case <-s.done:
				return
			default:
			}
		}
		duty := s.settings.DutyCycle
		if s.policy != nil {
			duty *= s.policy.FactorFor(s.manager.dev.Battery().LevelFraction())
		}
		if !cad.Tick(duty) {
			continue
		}
		r, err := s.manager.dev.Sample(s.modality)
		if err != nil {
			// Sampling a known modality only fails if the suite is
			// misconfigured; stop rather than spin.
			return
		}
		s.fn(r)
	}
}

// Cancel signals the subscription's loop to exit and deregisters it
// without waiting for the goroutine. A caller that holds a lock the
// sampling callback also takes must Cancel under that lock and Wait only
// after releasing it — Stop (Cancel then Wait) from such a caller
// deadlocks if the loop is mid-callback, blocked on the same lock.
func (s *Subscription) Cancel() {
	s.stopOnce.Do(func() {
		close(s.done)
		s.manager.mu.Lock()
		delete(s.manager.subs, s.id)
		s.manager.mu.Unlock()
	})
}

// Wait blocks until the subscription's goroutine has exited.
func (s *Subscription) Wait() { s.wg.Wait() }

// Stop ends the subscription and waits for its goroutine.
func (s *Subscription) Stop() {
	s.Cancel()
	s.Wait()
}
