package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/server/ingest"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

// TestFullWindowsOverFullIngestDoNotDeadlock is TestFullIngestQueuesDoNotDeadlock
// (internal/shard) on the fabric, where every connection has a send window.
// Two bridged shards each hold their only ingest worker, and a client on
// each publishes QoS 1 uploads of both shards' users from many goroutines
// while subscribed at QoS 1 to every upload. So both directions of its
// connection carry QoS 1 publishes past the window: its uploads one way,
// the deliveries of every upload on that shard the other, each answered by
// a PUBACK its reader writes into the opposite, full window. The session
// readers, and the bridge link readers carrying the other shard's uploads
// of a user to its owner, wait on the full ingest queues. Once the gate
// opens, every upload a shard's client made of its own user is processed
// and nothing is rejected; a reader waiting on a window the other end's waiting reader
// drains would hang the test instead.
func TestFullWindowsOverFullIngestDoNotDeadlock(t *testing.T) {
	clock := vclock.NewManual(clusterEpoch)
	s, err := New(Options{Clock: clock, Seed: 7, Shards: 2, MobileLink: &netsim.Link{}, IngestShards: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	owned := func(shard int) string {
		for i := 0; ; i++ {
			if user := fmt.Sprintf("user%d", i); s.Ring.OwnerIndex(user) == shard {
				return user
			}
		}
	}
	users := []string{owned(0), owned(1)}

	gate := make(chan struct{})
	var clients []*mqtt.Client
	for i, sh := range s.Shards {
		sh.Server.OnItem(func(core.Item) { <-gate })
		conn, err := s.Fabric.Dial(fmt.Sprintf("uploader%d", i), sh.BrokerAddr)
		if err != nil {
			t.Fatalf("dial %s: %v", sh.ID, err)
		}
		cli, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: fmt.Sprintf("uploader%d", i), Clock: clock})
		if err != nil {
			t.Fatalf("connect to %s: %v", sh.ID, err)
		}
		defer cli.Close()
		if err := cli.Subscribe(core.StreamDataFilter(), 1, func(mqtt.Message) {}); err != nil {
			t.Fatalf("subscribe on %s: %v", sh.ID, err)
		}
		clients = append(clients, cli)
	}
	sc := &cluster.MatchScratch{}
	for i, sh := range s.Shards {
		topic := core.StreamDataTopic(users[1-i] + "-phone")
		waitCluster(t, "the other shard's summary to reach "+sh.ID, func() bool {
			return len(sh.Bridge.Index().Match(topic, sc)) == 1
		})
	}

	// Each shard's own user uploads 2 × perUser items to it, half through
	// its client and half forwarded from the other shard: more than its
	// ingest queue holds, so its readers wait. 32 goroutines a client keep
	// 32 × 4 KiB uploads in flight, twice the window.
	const perUser, publishers = 768, 32
	classified := strings.Repeat("w", 4<<10)
	var wg sync.WaitGroup
	for _, cli := range clients {
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := p; seq < perUser; seq += publishers {
					for _, user := range users {
						item := core.Item{
							StreamID:    "s-" + user,
							DeviceID:    user + "-phone",
							UserID:      user,
							Modality:    sensors.ModalityAccelerometer,
							Granularity: core.GranularityClassified,
							Time:        clusterEpoch.Add(time.Duration(seq) * time.Second),
							Classified:  classified,
						}
						payload, err := item.Encode()
						if err != nil {
							t.Error(err)
							return
						}
						if err := cli.Publish(core.StreamDataTopic(item.DeviceID), payload, 1, false); err != nil {
							t.Errorf("publish %s/%d: %v", user, seq, err)
							return
						}
					}
				}
			}()
		}
	}
	for _, sh := range s.Shards {
		waitCluster(t, sh.ID+"'s ingest queue to fill", func() bool {
			return sh.Metrics.Sum("sensocial_ingest_backlog") == ingest.DefaultQueueDepth
		})
	}
	waitCluster(t, "a write to wait on a full window", func() bool {
		return s.Shards[0].Metrics.Sum("sensocial_netsim_write_waits_total") > 0
	})
	close(gate)
	published := make(chan struct{})
	go func() {
		wg.Wait()
		close(published)
	}()
	select {
	case <-published:
	case <-time.After(30 * time.Second):
		t.Fatal("uploads still waiting 30 s after the gate opened: the windows deadlocked")
	}
	quiesce(t, s)
	for i, sh := range s.Shards {
		// The other shard forwards its client's uploads of this shard's user
		// over a bridge link whose queue drops (and counts) what does not
		// fit; everything its own client uploaded must be processed.
		processed := sh.Metrics.Sum("sensocial_ingest_processed_total")
		lost := s.Shards[1-i].ClusterMetrics.Dropped.Value()
		if processed < perUser || processed+lost < 2*perUser {
			t.Errorf("%s processed %d of its user's %d uploads, %d forwards dropped on the way", sh.ID, processed, 2*perUser, lost)
		}
		if d := sh.Metrics.Sum("sensocial_ingest_dropped_total"); d != 0 {
			t.Errorf("%s rejected %d items", sh.ID, d)
		}
	}
	if peak := s.Shards[0].Metrics.Sum("sensocial_netsim_queued_bytes_max"); peak < netsim.SendWindow {
		t.Errorf("no direction held a window's worth of uploads: peak %d bytes", peak)
	}
}
