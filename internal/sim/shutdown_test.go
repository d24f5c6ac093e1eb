package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestCloseJoinsServeGoroutines is the regression test for Close leaking
// listener-serve goroutines: the broker accept loop (initial and restarted)
// and the HTTP server used to be fire-and-forget go statements, so a Close
// left them running into whatever the process did next. Close now joins
// serveWG, and the process goroutine count must return to its baseline.
func TestCloseJoinsServeGoroutines(t *testing.T) {
	// Let goroutines from earlier tests finish dying before the baseline.
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	s, err := New(fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Shards[0].StartHTTP(); err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	if err := s.Shards[0].RestartBroker(); err != nil {
		t.Fatalf("RestartBroker: %v", err)
	}
	s.Close()

	// The runtime needs a few scheduler passes to reap exited goroutines,
	// so poll instead of asserting a single instant.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not return to baseline %d (now %d); stacks:\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
