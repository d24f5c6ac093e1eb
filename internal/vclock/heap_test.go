package vclock

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// refScheduler is a deliberately naive flat-slice scheduler with the
// documented Manual semantics — fire everything due at or before the
// target, ordered by (deadline, creation sequence) — used as the oracle
// for the Manual clock.
type refScheduler struct {
	now     time.Time
	seq     int
	pending []refEvent
}

type refEvent struct {
	at      time.Time
	seq     int
	id      int
	stopped bool
}

func (r *refScheduler) schedule(at time.Time, id int) int {
	r.seq++
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, id: id})
	return r.seq
}

func (r *refScheduler) stop(seq int) {
	for i := range r.pending {
		if r.pending[i].seq == seq {
			r.pending[i].stopped = true
		}
	}
}

// advance returns the fired events in order.
func (r *refScheduler) advance(d time.Duration) []refEvent {
	target := r.now.Add(d)
	var fired []refEvent
	for {
		best := -1
		for i, e := range r.pending {
			if e.stopped || e.at.After(target) {
				continue
			}
			if best < 0 || e.at.Before(r.pending[best].at) ||
				(e.at.Equal(r.pending[best].at) && e.seq < r.pending[best].seq) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		fired = append(fired, r.pending[best])
		r.pending = append(r.pending[:best], r.pending[best+1:]...)
	}
	r.now = target
	return fired
}

// TestManualWheelMatchesFlatModel drives the Manual clock and the
// flat reference scheduler with an identical random workload — deadlines
// from sub-millisecond to two days ahead, eager stops, reschedules —
// and requires identical fire sequences after every advance.
func TestManualWheelMatchesFlatModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17, 99} {
		rng := rand.New(rand.NewSource(seed))
		c := NewManual(epoch)
		ref := &refScheduler{now: epoch}

		type firing struct {
			id int
			at time.Time
		}
		var got []firing
		events := map[int]Event{} // id -> live handle
		refSeqs := map[int]int{}  // id -> reference seq
		nextID := 0

		// Durations from sub-millisecond to two days, plus already due.
		randDur := func() time.Duration {
			switch rng.Intn(6) {
			case 0:
				return time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
			case 1:
				return time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
			case 2:
				return time.Duration(rng.Int63n(int64(10 * time.Second)))
			case 3:
				return time.Duration(rng.Int63n(int64(20 * time.Minute)))
			case 4:
				return time.Duration(rng.Int63n(int64(48 * time.Hour)))
			default:
				return -time.Duration(rng.Int63n(int64(time.Second))) // already due
			}
		}

		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0, 1: // schedule a new event
				id := nextID
				nextID++
				at := c.Now().Add(randDur())
				events[id] = c.Schedule(at, func(now time.Time) {
					got = append(got, firing{id: id, at: now})
				})
				refSeqs[id] = ref.schedule(at, id)
			case 2: // stop a random live event
				for id, ev := range events { // map order is fine: one random pick
					if ev.Stop() {
						ref.stop(refSeqs[id])
					}
					delete(events, id)
					break
				}
			default: // advance and compare
				d := time.Duration(rng.Int63n(int64(30 * time.Minute)))
				got = got[:0]
				want := ref.advance(d)
				c.Advance(d)
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: fired %d events, reference fired %d",
						seed, op, len(got), len(want))
				}
				for i := range got {
					if got[i].id != want[i].id || !got[i].at.Equal(want[i].at) {
						t.Fatalf("seed %d op %d: firing %d = (id %d, %v), want (id %d, %v)",
							seed, op, i, got[i].id, got[i].at, want[i].id, want[i].at)
					}
					delete(events, got[i].id)
				}
			}
		}
		if w, r := c.Waiters(), len(livePending(ref)); w != r {
			t.Fatalf("seed %d: Waiters() = %d, reference has %d pending", seed, w, r)
		}
	}
}

func livePending(r *refScheduler) []refEvent {
	var live []refEvent
	for _, e := range r.pending {
		if !e.stopped {
			live = append(live, e)
		}
	}
	return live
}

// TestManualSameDeadlineSeqOrder pins the determinism contract the sim's
// trace tests depend on: waiters sharing one deadline fire in creation
// (nextSeqLocked) order.
func TestManualSameDeadlineSeqOrder(t *testing.T) {
	c := NewManual(epoch)
	deadline := epoch.Add(90 * time.Minute)
	var order []int
	const n = 500
	for i := 0; i < n; i++ {
		i := i
		c.Schedule(deadline, func(time.Time) { order = append(order, i) })
	}
	c.Advance(2 * time.Hour)
	if len(order) != n {
		t.Fatalf("fired %d of %d same-deadline events", len(order), n)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("position %d fired event %d; same-deadline events must fire in creation order", i, id)
		}
	}
}

// TestManualTimersInterleaveWithEvents checks channel waiters and
// scheduled events share one (deadline, seq) order: a timer created before
// an event with the same deadline delivers its timestamp before the
// event's callback runs.
func TestManualTimersInterleaveWithEvents(t *testing.T) {
	c := NewManual(epoch)
	at := epoch.Add(time.Minute)
	tm := c.NewTimer(time.Minute)
	sawTimerValue := false
	c.Schedule(at, func(now time.Time) {
		select {
		case v := <-tm.C():
			sawTimerValue = v.Equal(at)
		default:
		}
	})
	c.Advance(time.Minute)
	if !sawTimerValue {
		t.Fatal("timer created before same-deadline event had not fired when the event ran")
	}
}

// TestManualStopReclaimsEagerly is the regression test for the seed's
// leak: Stop used to mark waiters dead and leave them for a threshold
// sweep, so create/stop churn accumulated garbage. A million cycles must
// leave no residue in the heap.
func TestManualStopReclaimsEagerly(t *testing.T) {
	c := NewManual(epoch)
	keep := c.NewTimer(time.Hour) // one live waiter to pin the count
	durations := []time.Duration{
		500 * time.Microsecond,
		5 * time.Millisecond,
		2 * time.Second,
		3 * time.Hour,
	}
	for i := 0; i < 1_000_000; i++ {
		tm := c.NewTimer(durations[i%len(durations)])
		if !tm.Stop() {
			t.Fatal("Stop() = false for pending timer")
		}
	}
	if got := c.Waiters(); got != 1 {
		t.Fatalf("Waiters() = %d after 1M create/stop cycles, want 1", got)
	}
	c.mu.Lock()
	heapLen := len(c.heap)
	c.mu.Unlock()
	if heapLen != 1 {
		t.Fatalf("heap holds %d waiters, want 1: Stop must reclaim eagerly", heapLen)
	}
	keep.Stop()
}

// TestManualStopAdvanceRace exercises Stop racing Advance under the race
// detector: churning creators/stoppers on several goroutines while the
// clock advances must not corrupt the containers.
func TestManualStopAdvanceRace(t *testing.T) {
	c := NewManual(epoch)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var timers []Timer
			for {
				select {
				case <-done:
					for _, tm := range timers {
						tm.Stop()
					}
					return
				default:
				}
				tm := c.NewTimer(time.Duration(rng.Int63n(int64(10 * time.Second))))
				timers = append(timers, tm)
				if len(timers) > 8 {
					idx := rng.Intn(len(timers))
					timers[idx].Stop()
					timers = append(timers[:idx], timers[idx+1:]...)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		c.Advance(100 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	c.Advance(time.Minute)
	if got := c.Waiters(); got != 0 {
		t.Fatalf("Waiters() = %d after all timers stopped and clock drained", got)
	}
}

// TestManualEventReschedule covers the reusable-handle path the device
// pool depends on: rescheduling from inside the callback builds a periodic
// event, and Stop cancels it.
func TestManualEventReschedule(t *testing.T) {
	c := NewManual(epoch)
	var fires []time.Time
	var ev Event
	ev = c.Schedule(epoch.Add(time.Second), func(now time.Time) {
		fires = append(fires, now)
		ev.Reschedule(now.Add(time.Second))
	})
	c.Advance(3500 * time.Millisecond)
	if len(fires) != 3 {
		t.Fatalf("periodic event fired %d times in 3.5s, want 3", len(fires))
	}
	for i, at := range fires {
		want := epoch.Add(time.Duration(i+1) * time.Second)
		if !at.Equal(want) {
			t.Fatalf("fire %d at %v, want %v", i, at, want)
		}
	}
	if !ev.Stop() {
		t.Fatal("Stop() = false for pending rescheduled event")
	}
	c.Advance(10 * time.Second)
	if len(fires) != 3 {
		t.Fatal("stopped event fired")
	}
}

// TestManualPeriodicEventAllocatesNothing pins the property the device
// pool's frame loop depends on: once warmed, an Advance whose callback
// re-arms its own event with Reschedule allocates nothing.
func TestManualPeriodicEventAllocatesNothing(t *testing.T) {
	c := NewManual(epoch)
	var ev Event
	ev = c.Schedule(epoch.Add(time.Second), func(now time.Time) {
		ev.Reschedule(now.Add(time.Second))
	})
	c.Advance(time.Second)
	if allocs := testing.AllocsPerRun(100, func() { c.Advance(time.Second) }); allocs != 0 {
		t.Fatalf("warmed periodic event: %v allocations per Advance, want 0", allocs)
	}
	if got := c.Waiters(); got != 1 {
		t.Fatalf("Waiters() = %d, want 1 pending periodic event", got)
	}
}

// TestManualScheduleImmediate: a deadline at or before now fires on the
// next Advance, including Advance(0).
func TestManualScheduleImmediate(t *testing.T) {
	c := NewManual(epoch)
	fired := 0
	c.Schedule(epoch, func(time.Time) { fired++ })
	c.Schedule(epoch.Add(-time.Hour), func(time.Time) { fired++ })
	c.Advance(0)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2: due events must run on Advance(0)", fired)
	}
}

// BenchmarkManualAdvanceDense measures advancing through n pending timers:
// O(log n) per fired timer (the seed's flat slice was O(n)).
func BenchmarkManualAdvanceDense(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := NewManual(epoch)
				cb := func(time.Time) {}
				for j := 0; j < n; j++ {
					at := epoch.Add(time.Duration(j%60000) * time.Millisecond)
					c.Schedule(at, cb)
				}
				b.StartTimer()
				c.Advance(time.Minute)
			}
		})
	}
}

// BenchmarkManualPeriodicEvents measures ns per fire of n self-re-arming
// events, staggered over one period, as the device pool keeps its frames:
// 314 pending at 20 000 pooled devices, 1 564 at 100 000.
func BenchmarkManualPeriodicEvents(b *testing.B) {
	for _, n := range []int{314, 1564} {
		b.Run(itoa(n), func(b *testing.B) {
			c := NewManual(epoch)
			events := make([]Event, n)
			for i := range events {
				i := i
				at := epoch.Add(time.Duration(i) * time.Minute / time.Duration(n))
				events[i] = c.Schedule(at, func(now time.Time) {
					events[i].Reschedule(now.Add(time.Minute))
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for fired := 0; fired < b.N; fired += n {
				c.Advance(time.Minute)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
