package sim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

// TestRestartBrokerDuringPooledQoS1Uploads restarts the broker repeatedly
// while a pooled fleet uploads at QoS 1. The regression it guards: a
// restart mid-flush must neither wedge the pool's shared connections
// (flushes redial lazily and keep going) nor double-deliver a QoS 1 item
// (ack-unknown publishes are charged, never resent). Run under -race in
// CI, where the client teardown, the flush path and the restart overlap.
func TestRestartBrokerDuringPooledQoS1Uploads(t *testing.T) {
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	s, err := New(Options{
		Clock:      clock,
		Seed:       3,
		MobileLink: &netsim.Link{},
		Pool: PoolOptions{
			Connections:    4,
			SampleInterval: time.Minute,
			UploadBatch:    2,
			MaxBacklog:     128,
			UploadQoS:      1,
		},
		IngestShards: 2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	var mu sync.Mutex
	lastTime := make(map[string]time.Time)
	violations := 0
	s.Shards[0].Server.OnItem(func(item core.Item) {
		mu.Lock()
		if prev, ok := lastTime[item.DeviceID]; ok && !item.Time.After(prev) {
			violations++
		}
		lastTime[item.DeviceID] = item.Time
		mu.Unlock()
	})

	if err := s.AddDevices(256); err != nil {
		t.Fatalf("AddDevices: %v", err)
	}
	if err := s.StartPool(); err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	if err := s.Pool.WaitReady(30 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}

	for i := 0; i < 30; i++ {
		clock.Advance(time.Minute)
		if i%5 == 4 {
			if err := s.Shards[0].RestartBroker(); err != nil {
				t.Fatalf("RestartBroker #%d: %v", i/5, err)
			}
		}
	}
	// Settle: a few clean cadences so retired slots redial and drain the
	// re-buffered backlogs, then wait out the ingest pipeline.
	for i := 0; i < 4; i++ {
		clock.Advance(time.Minute)
	}
	quiesce(t, s)

	mu.Lock()
	ordered := violations
	delivered := len(lastTime)
	mu.Unlock()
	if ordered != 0 {
		t.Fatalf("%d per-device ordering/duplicate violations after restarts", ordered)
	}
	if delivered == 0 {
		t.Fatalf("no devices delivered anything")
	}

	reg := s.Shards[0].Metrics
	samples, published, ackLost, dropped, backlog := poolLedger(s)
	if samples != published+ackLost+dropped+backlog {
		t.Fatalf("pool ledger leaks items across restarts: samples=%d published=%d ackLost=%d dropped=%d backlog=%d",
			samples, published, ackLost, dropped, backlog)
	}
	received := reg.Sum("sensocial_ingest_enqueued_total") + reg.Sum("sensocial_ingest_dropped_total")
	if received < published || received > published+ackLost {
		t.Fatalf("QoS1 receipts=%d outside [published=%d, published+ackLost=%d]",
			received, published, published+ackLost)
	}
	if reg.Sum("sensocial_sim_publish_errors_total") == 0 {
		t.Fatalf("restarts never disrupted a flush; the test exercised nothing")
	}
}
