package vclock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC) // Middleware'14 opening day

func TestManualNowAdvance(t *testing.T) {
	c := NewManual(epoch)
	if !c.Now().Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", c.Now(), epoch)
	}
	c.Advance(90 * time.Second)
	want := epoch.Add(90 * time.Second)
	if !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
	if got := c.Since(epoch); got != 90*time.Second {
		t.Fatalf("Since(epoch) = %v, want 90s", got)
	}
}

func TestManualAdvanceTo(t *testing.T) {
	c := NewManual(epoch)
	target := epoch.Add(5 * time.Minute)
	c.AdvanceTo(target)
	if !c.Now().Equal(target) {
		t.Fatalf("Now() = %v, want %v", c.Now(), target)
	}
	// Moving backwards is a no-op.
	c.AdvanceTo(epoch)
	if !c.Now().Equal(target) {
		t.Fatalf("Now() after backwards AdvanceTo = %v, want %v", c.Now(), target)
	}
}

func TestManualTimerFires(t *testing.T) {
	c := NewManual(epoch)
	tm := c.NewTimer(10 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired before Advance")
	default:
	}
	c.Advance(9 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired early")
	default:
	}
	c.Advance(time.Second)
	select {
	case at := <-tm.C():
		if !at.Equal(epoch.Add(10 * time.Second)) {
			t.Fatalf("fire time = %v, want %v", at, epoch.Add(10*time.Second))
		}
	default:
		t.Fatal("timer did not fire at deadline")
	}
}

func TestManualTimerStop(t *testing.T) {
	c := NewManual(epoch)
	tm := c.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop() = false for pending timer")
	}
	c.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Stop() {
		t.Fatal("Stop() = true for already-stopped timer")
	}
}

func TestManualTickerPeriodic(t *testing.T) {
	c := NewManual(epoch)
	tk := c.NewTicker(time.Minute)
	defer tk.Stop()
	var ticks []time.Time
	for i := 0; i < 3; i++ {
		c.Advance(time.Minute)
		select {
		case at := <-tk.C():
			ticks = append(ticks, at)
		default:
			t.Fatalf("tick %d missing", i)
		}
	}
	for i, at := range ticks {
		want := epoch.Add(time.Duration(i+1) * time.Minute)
		if !at.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestManualTickerDropsWhenSlow(t *testing.T) {
	c := NewManual(epoch)
	tk := c.NewTicker(time.Second)
	defer tk.Stop()
	// Advance through many periods without draining: buffered 1, rest dropped.
	c.Advance(10 * time.Second)
	n := 0
	for {
		select {
		case <-tk.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Fatalf("buffered ticks = %d, want 1", n)
	}
}

func TestManualSleepUnblocksOnAdvance(t *testing.T) {
	c := NewManual(epoch)
	done := make(chan time.Time, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Sleep(30 * time.Second)
		done <- c.Now()
	}()
	c.BlockUntilWaiters(1)
	c.Advance(30 * time.Second)
	wg.Wait()
	at := <-done
	if !at.Equal(epoch.Add(30 * time.Second)) {
		t.Fatalf("woke at %v, want %v", at, epoch.Add(30*time.Second))
	}
}

func TestManualSleepZeroReturnsImmediately(t *testing.T) {
	c := NewManual(epoch)
	doneCh := make(chan struct{})
	go func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(time.Second):
		t.Fatal("Sleep(0) blocked")
	}
}

func TestManualFiringOrder(t *testing.T) {
	c := NewManual(epoch)
	t2 := c.NewTimer(2 * time.Second)
	t1 := c.NewTimer(1 * time.Second)
	t3 := c.NewTimer(3 * time.Second)
	c.Advance(5 * time.Second)
	// Each timer's delivered timestamp must equal its own deadline, proving
	// the clock stepped through deadlines in order rather than jumping.
	for i, tc := range []struct {
		tm   Timer
		want time.Time
	}{
		{t1, epoch.Add(1 * time.Second)},
		{t2, epoch.Add(2 * time.Second)},
		{t3, epoch.Add(3 * time.Second)},
	} {
		select {
		case at := <-tc.tm.C():
			if !at.Equal(tc.want) {
				t.Fatalf("timer %d fired at %v, want %v", i, at, tc.want)
			}
		default:
			t.Fatalf("timer %d did not fire", i)
		}
	}
}

func TestManualWaitersCount(t *testing.T) {
	c := NewManual(epoch)
	if c.Waiters() != 0 {
		t.Fatalf("Waiters() = %d, want 0", c.Waiters())
	}
	tm := c.NewTimer(time.Second)
	tk := c.NewTicker(time.Second)
	if c.Waiters() != 2 {
		t.Fatalf("Waiters() = %d, want 2", c.Waiters())
	}
	tm.Stop()
	tk.Stop()
	if c.Waiters() != 0 {
		t.Fatalf("Waiters() after stops = %d, want 0", c.Waiters())
	}
}

func TestManualManyWaitersGC(t *testing.T) {
	c := NewManual(epoch)
	for i := 0; i < 200; i++ {
		c.NewTimer(time.Duration(i+1) * time.Millisecond)
	}
	c.Advance(time.Second)
	// After firing all 200, internal slice should have been compacted;
	// externally we just verify no waiters remain pending.
	if got := c.Waiters(); got != 0 {
		t.Fatalf("Waiters() = %d, want 0", got)
	}
}

func TestScaledCompressesTime(t *testing.T) {
	c := NewScaled(epoch, 1000) // 1000 virtual seconds per real second
	start := c.Now()
	time.Sleep(20 * time.Millisecond)
	elapsed := c.Since(start)
	if elapsed < 10*time.Second {
		t.Fatalf("virtual elapsed = %v, want >= 10s", elapsed)
	}
}

func TestScaledSleepIsCompressed(t *testing.T) {
	c := NewScaled(epoch, 1000)
	realStart := time.Now()
	c.Sleep(5 * time.Second) // should take ~5ms real
	if real := time.Since(realStart); real > 2*time.Second {
		t.Fatalf("Sleep(5s virtual) took %v real", real)
	}
}

func TestScaledTimerFires(t *testing.T) {
	c := NewScaled(epoch, 1000)
	tm := c.NewTimer(2 * time.Second)
	select {
	case <-tm.C():
	case <-time.After(3 * time.Second):
		t.Fatal("scaled timer did not fire")
	}
}

func TestScaledTickerFires(t *testing.T) {
	c := NewScaled(epoch, 1000)
	tk := c.NewTicker(time.Second)
	defer tk.Stop()
	for i := 0; i < 3; i++ {
		select {
		case <-tk.C():
		case <-time.After(3 * time.Second):
			t.Fatalf("scaled tick %d missing", i)
		}
	}
}

func TestScaledFactorClamped(t *testing.T) {
	c := NewScaled(epoch, 0.1) // clamped to 1
	start := c.Now()
	time.Sleep(5 * time.Millisecond)
	if c.Since(start) > time.Second {
		t.Fatal("factor below 1 was not clamped")
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire")
	}
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(time.Second):
		t.Fatal("real ticker did not fire")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("real After did not fire")
	}
}
