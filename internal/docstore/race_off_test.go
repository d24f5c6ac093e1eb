//go:build !race

package docstore

// raceEnabled reports whether this test binary was built with the race
// detector, which intentionally drops sync.Pool puts and so invalidates
// allocation pinning.
const raceEnabled = false
