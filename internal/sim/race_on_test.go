//go:build race

package sim

// raceEnabled reports whether this test binary was built with the race
// detector, under which the compiler no longer fuses append(s, make(...)...)
// into one allocation, so allocation counts grow.
const raceEnabled = true
