package sensing

import "time"

// Cadence is the sampling schedule of a Subscription loop: an absolute
// schedule (anchor + k*interval, so no cycle is lost when the clock jumps
// several intervals at once) combined with a duty-cycle credit accumulator
// (run a cycle each time accumulated credit crosses 1, so DutyCycle 0.5
// samples every other cycle without long-run drift).
type Cadence struct {
	// Next is the deadline of the next cycle.
	Next time.Time
	// Interval is the sampling period.
	Interval time.Duration

	credit float64
}

// NewCadence anchors a schedule: the first cycle is due at
// anchor + interval.
func NewCadence(anchor time.Time, interval time.Duration) Cadence {
	return Cadence{Next: anchor.Add(interval), Interval: interval}
}

// Tick consumes one elapsed cycle: it advances Next by one interval and
// reports whether this cycle should actually sample, given the effective
// duty cycle in (0,1] for this cycle.
//
//sensolint:hotpath
func (c *Cadence) Tick(duty float64) bool {
	c.Next = c.Next.Add(c.Interval)
	c.credit += duty
	if c.credit < 1 {
		return false
	}
	c.credit -= 1
	return true
}
