//go:build !race

// Package race reports whether the binary was built with the race
// detector. The detector drops sync.Pool puts on purpose and adds
// allocations of its own, so a test that pins an allocation count holds
// only when Enabled is false.
package race

// Enabled reports whether the race detector is on.
const Enabled = false
