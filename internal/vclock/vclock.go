// Package vclock provides an injectable clock abstraction so that library
// code never calls time.Now or time.Sleep directly.
//
// Three implementations are provided:
//
//   - Real: delegates to the time package.
//   - Manual: a fully deterministic clock for unit tests; time moves only
//     when the test calls Advance.
//   - Scaled: virtual time running at a configurable multiple of real time,
//     used by the experiment harness to compress hour-long evaluations into
//     seconds while preserving the ordering and relative spacing of events.
package vclock

import (
	"sync"
	"time"
)

// Clock is the time source used throughout the middleware and simulators.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time after d.
	After(d time.Duration) <-chan time.Time
	// NewTicker returns a ticker firing every d on this clock.
	NewTicker(d time.Duration) Ticker
	// NewTimer returns a timer firing once after d on this clock.
	NewTimer(d time.Duration) Timer
	// Since returns the elapsed time on this clock since t.
	Since(t time.Time) time.Duration
}

// Ticker is the clock-agnostic equivalent of *time.Ticker.
type Ticker interface {
	// C returns the channel on which ticks are delivered.
	C() <-chan time.Time
	// Stop turns off the ticker. Stop does not close C.
	Stop()
}

// Timer is the clock-agnostic equivalent of *time.Timer.
type Timer interface {
	// C returns the channel on which the expiry is delivered.
	C() <-chan time.Time
	// Stop prevents the timer from firing; reports whether it was pending.
	Stop() bool
}

// Real is a Clock backed by the time package.
type Real struct{}

var _ Clock = Real{}

// NewReal returns a Clock backed by the wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }
func (r realTimer) Stop() bool          { return r.t.Stop() }

// EventScheduler is a Clock that can additionally run callbacks at
// scheduled virtual times. It is the bulk API behind the pooled device
// simulator: one Event per frame of devices replaces a parked goroutine,
// timer and channel per device, and a fired Event's handle is reused via
// Reschedule, so steady-state scheduling allocates nothing.
type EventScheduler interface {
	Clock
	// Schedule registers fn to run when the clock reaches at. On a Manual
	// clock the callback runs synchronously inside Advance, interleaved
	// with timer/ticker fires in (deadline, creation sequence) order, with
	// Now() equal to the callback's deadline. Callbacks may use the clock
	// (Now, NewTimer, Schedule, Reschedule, Stop) but must not re-enter
	// Advance, AdvanceTo or Sleep — the advance loop is not reentrant.
	Schedule(at time.Time, fn func(now time.Time)) Event
}

// Event is a scheduled callback's handle.
type Event interface {
	// Reschedule re-arms the event at a new deadline, reusing the handle.
	// Calling it from inside the event's own callback is the idiomatic way
	// to build an allocation-free periodic event.
	Reschedule(at time.Time)
	// Stop cancels the event, reclaiming its scheduler slot immediately;
	// it reports whether the event was still pending.
	Stop() bool
}

// Manual is a deterministic test clock. Time advances only via Advance.
// Sleepers, timers, tickers and scheduled events fire synchronously inside
// Advance, in (deadline, creation sequence) order, before Advance returns.
// Pending waiters are held in an indexed binary min-heap (see heap.go).
type Manual struct {
	// advMu serializes Advance/AdvanceTo. It is held across callback
	// invocations, while mu — which guards the data below — is released,
	// so callbacks and concurrent goroutines may use the clock freely.
	advMu sync.Mutex

	mu   sync.Mutex
	base time.Time // epoch for the heap's integer timeline
	now  time.Time
	seq  uint64
	live int // pending waiters (sleeps, timers, tickers, events)
	heap []*manualWaiter
}

var (
	_ Clock          = (*Manual)(nil)
	_ EventScheduler = (*Manual)(nil)
)

type manualWaiter struct {
	at     time.Time
	atNs   int64  // at - base, in nanoseconds
	seq    uint64 // tie-break so firing order is stable
	ch     chan time.Time
	period time.Duration   // 0 for one-shot
	fn     func(time.Time) // scheduled-event callback; nil for channel waiters

	isSleep bool
	sleepWG chan struct{}

	idx int32 // index in Manual.heap, or notQueued
}

// notQueued marks a waiter that fired, was stopped, or was never queued.
const notQueued = -1

// NewManual returns a Manual clock whose current time is start.
func NewManual(start time.Time) *Manual {
	return &Manual{base: start, now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	w := &manualWaiter{
		at:      m.now.Add(d),
		seq:     m.nextSeqLocked(),
		isSleep: true,
		sleepWG: make(chan struct{}),
	}
	m.insertLocked(w)
	m.mu.Unlock()
	<-w.sleepWG
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	return m.NewTimer(d).C()
}

// NewTimer implements Clock.
func (m *Manual) NewTimer(d time.Duration) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &manualWaiter{
		at:  m.now.Add(d),
		seq: m.nextSeqLocked(),
		ch:  make(chan time.Time, 1),
	}
	m.insertLocked(w)
	return &manualTimer{m: m, w: w}
}

// NewTicker implements Clock.
func (m *Manual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		d = time.Nanosecond
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &manualWaiter{
		at:     m.now.Add(d),
		seq:    m.nextSeqLocked(),
		ch:     make(chan time.Time, 1),
		period: d,
	}
	m.insertLocked(w)
	return &manualTicker{m: m, w: w}
}

// Schedule implements EventScheduler. A deadline at or before the current
// time fires on the next Advance, even Advance(0).
func (m *Manual) Schedule(at time.Time, fn func(now time.Time)) Event {
	if fn == nil {
		panic("vclock: Schedule requires a non-nil callback")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &manualWaiter{at: at, seq: m.nextSeqLocked(), fn: fn}
	m.insertLocked(w)
	return &manualEvent{m: m, w: w}
}

func (m *Manual) nextSeqLocked() uint64 {
	m.seq++
	return m.seq
}

// insertLocked files a new waiter and counts it pending.
func (m *Manual) insertLocked(w *manualWaiter) {
	m.heapPush(w)
	m.live++
}

// removeLocked eagerly unfiles a pending waiter and reports whether it was
// pending. No-op if w already fired or was stopped.
func (m *Manual) removeLocked(w *manualWaiter) bool {
	if w.idx == notQueued {
		return false
	}
	m.heapRemoveAt(int(w.idx))
	m.live--
	return true
}

// nextDueLocked removes and returns the earliest pending waiter (by
// (deadline, seq)) if it is due at or before targetNs, or returns nil.
func (m *Manual) nextDueLocked(targetNs int64) *manualWaiter {
	if len(m.heap) == 0 || m.heap[0].atNs > targetNs {
		return nil
	}
	return m.heapPop()
}

// Advance moves the clock forward by d, firing every waiter whose deadline
// falls within the window, in (deadline, creation sequence) order. The
// clock reads the fired waiter's own deadline while each one runs.
// Scheduled-event callbacks execute here, on the advancing goroutine.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.advMu.Lock()
	defer m.advMu.Unlock()
	m.mu.Lock()
	target := m.now.Add(d)
	targetNs := int64(target.Sub(m.base))
	for {
		w := m.nextDueLocked(targetNs)
		if w == nil {
			break
		}
		m.now = w.at
		switch {
		case w.fn != nil:
			m.live--
			// Run the callback with the data lock released: it may freely
			// create timers, reschedule events, or block briefly on other
			// goroutines that use this clock. advMu stays held, so virtual
			// time cannot move underneath it.
			at := w.at
			fn := w.fn
			m.mu.Unlock()
			fn(at)
			m.mu.Lock()
		case w.isSleep:
			m.live--
			close(w.sleepWG)
		case w.period > 0:
			select {
			case w.ch <- w.at:
			default: // ticker semantics: drop if receiver is slow
			}
			w.at = w.at.Add(w.period)
			w.seq = m.nextSeqLocked()
			m.heapPush(w)
		default:
			m.live--
			select {
			case w.ch <- w.at:
			default:
			}
		}
	}
	m.now = target
	m.mu.Unlock()
}

// AdvanceTo moves the clock forward to t (no-op if t is in the past).
func (m *Manual) AdvanceTo(t time.Time) {
	now := m.Now()
	if t.After(now) {
		m.Advance(t.Sub(now))
	}
}

// Waiters reports how many sleeps/timers/tickers/events are currently
// pending. Tests can poll this to synchronize with goroutines using the
// clock.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// BlockUntilWaiters blocks until at least n waiters are pending, polling.
// Intended for tests coordinating with goroutines that sleep on the clock.
func (m *Manual) BlockUntilWaiters(n int) {
	for m.Waiters() < n {
		time.Sleep(50 * time.Microsecond)
	}
}

type manualTimer struct {
	m *Manual
	w *manualWaiter
}

func (t *manualTimer) C() <-chan time.Time { return t.w.ch }

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.m.removeLocked(t.w)
}

type manualTicker struct {
	m *Manual
	w *manualWaiter
}

func (t *manualTicker) C() <-chan time.Time { return t.w.ch }

func (t *manualTicker) Stop() {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	t.m.removeLocked(t.w)
}

type manualEvent struct {
	m *Manual
	w *manualWaiter
}

// Reschedule implements Event. Re-arming an already-pending event moves
// its deadline; re-arming a fired or stopped one revives it.
func (e *manualEvent) Reschedule(at time.Time) {
	e.m.mu.Lock()
	defer e.m.mu.Unlock()
	e.m.removeLocked(e.w)
	e.w.at = at
	e.w.seq = e.m.nextSeqLocked()
	e.m.insertLocked(e.w)
}

// Stop implements Event.
func (e *manualEvent) Stop() bool {
	e.m.mu.Lock()
	defer e.m.mu.Unlock()
	return e.m.removeLocked(e.w)
}

// Scaled is a Clock whose virtual time runs at Factor times real time.
// A Factor of 600 compresses a one-hour experiment into six seconds while
// preserving the relative timing of concurrent activities.
type Scaled struct {
	base      time.Time // virtual epoch
	realStart time.Time
	factor    float64
	real      Real
}

var _ Clock = (*Scaled)(nil)

// NewScaled returns a clock whose virtual time starts at base and advances
// factor seconds per real second. factor must be >= 1.
func NewScaled(base time.Time, factor float64) *Scaled {
	if factor < 1 {
		factor = 1
	}
	return &Scaled{base: base, realStart: time.Now(), factor: factor}
}

// Now implements Clock.
func (s *Scaled) Now() time.Time {
	elapsed := time.Since(s.realStart)
	return s.base.Add(time.Duration(float64(elapsed) * s.factor))
}

// Since implements Clock.
func (s *Scaled) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep implements Clock.
func (s *Scaled) Sleep(d time.Duration) { time.Sleep(s.compress(d)) }

// After implements Clock.
func (s *Scaled) After(d time.Duration) <-chan time.Time {
	return s.NewTimer(d).C()
}

// NewTimer implements Clock.
func (s *Scaled) NewTimer(d time.Duration) Timer {
	ch := make(chan time.Time, 1)
	rt := time.AfterFunc(s.compress(d), func() {
		ch <- s.Now()
	})
	return &scaledTimer{rt: rt, ch: ch}
}

// NewTicker implements Clock.
func (s *Scaled) NewTicker(d time.Duration) Ticker {
	rt := time.NewTicker(s.compress(d))
	ch := make(chan time.Time, 1)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-rt.C:
				select {
				case ch <- s.Now():
				default:
				}
			case <-done:
				return
			}
		}
	}()
	return &scaledTicker{rt: rt, ch: ch, done: done}
}

func (s *Scaled) compress(d time.Duration) time.Duration {
	c := time.Duration(float64(d) / s.factor)
	if d > 0 && c <= 0 {
		c = time.Nanosecond
	}
	return c
}

type scaledTimer struct {
	rt *time.Timer
	ch chan time.Time
}

func (t *scaledTimer) C() <-chan time.Time { return t.ch }
func (t *scaledTimer) Stop() bool          { return t.rt.Stop() }

type scaledTicker struct {
	rt   *time.Ticker
	ch   chan time.Time
	done chan struct{}
	once sync.Once
}

func (t *scaledTicker) C() <-chan time.Time { return t.ch }

func (t *scaledTicker) Stop() {
	t.rt.Stop()
	t.once.Do(func() { close(t.done) })
}
