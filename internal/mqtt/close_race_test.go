package mqtt

import (
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// TestServeCloseRace is the regression test for the accept/Close race: a
// bare wg.Add(1) in Serve could start the WaitGroup counter from zero
// concurrently with Close's wg.Wait, and a connection accepted after Close
// finished would run an untracked session goroutine against a dead broker.
// Serve now gates the Add on b.closed under b.mu, closing the raced conn
// instead. The test hammers dials against a closing broker and asserts a
// clean join every iteration.
func TestServeCloseRace(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		n := netsim.NewNetwork(vclock.NewReal(), 1)
		reg := obs.NewRegistry()
		b := NewBroker(BrokerOptions{Metrics: reg})
		l, err := n.Listen("broker:1883")
		if err != nil {
			t.Fatalf("iter %d: Listen: %v", iter, err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- b.Serve(l) }()

		var dialers sync.WaitGroup
		for d := 0; d < 4; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				conn, err := n.Dial("client", "broker:1883")
				if err != nil {
					return // broker already down: fine
				}
				// Don't complete an MQTT handshake; the point is racing the
				// accept path, and handleConn must refuse or reap the session
				// either way once Close runs.
				_ = conn.Close()
			}()
		}

		if err := b.Close(); err != nil {
			t.Fatalf("iter %d: Close: %v", iter, err)
		}
		_ = l.Close()
		dialers.Wait()

		select {
		case err := <-serveDone:
			if err != nil {
				t.Fatalf("iter %d: Serve returned %v after broker close, want nil", iter, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iter %d: Serve did not return after Close", iter)
		}

		// Close waited on the session WaitGroup, so no session may remain
		// registered — a leftover would be the leaked untracked goroutine.
		if got := reg.Sum("sensocial_mqtt_connections"); got != 0 {
			t.Fatalf("iter %d: %d sessions survived Close", iter, got)
		}
		_ = n.Close()
	}
}
