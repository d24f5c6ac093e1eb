package main

import (
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/vclock"
)

// TestAgentStreamsToServer runs the agent against a server shard on
// loopback TCP: it registers over HTTP, and an activity item it samples
// reaches the server's OnItem hook; closing stop shuts it down cleanly.
func TestAgentStreamsToServer(t *testing.T) {
	sh, err := shard.New(shard.Options{
		Listen:     func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) },
		BrokerAddr: "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Clock:      vclock.NewReal(),
	})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	defer sh.Stop()
	if err := sh.StartHTTP(); err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	items := make(chan core.Item, 16)
	sh.Server.OnItem(func(i core.Item) {
		select {
		case items <- i:
		default:
		}
	})

	stop := make(chan os.Signal)
	done := make(chan error, 1)
	go func() {
		done <- run("alice", sh.BrokerAddr, sh.HTTPAddr, "Paris", "walking", 20*time.Millisecond, stop)
	}()

	timeout := time.After(30 * time.Second)
	for seen := false; !seen; {
		select {
		case i := <-items:
			seen = i.StreamID == "activity-alice-phone" && i.DeviceID == "alice-phone" && i.Classified == "walking"
		case err := <-done:
			t.Fatalf("agent exited before an item arrived: %v", err)
		case <-timeout:
			t.Fatal("no activity item reached the server within 30s")
		}
	}
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("agent did not stop")
	}
}
