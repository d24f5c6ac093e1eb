package mqtt

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// dispatchClient is a Client with no connection, running only its
// dispatcher, with h subscribed to every topic.
func dispatchClient(t *testing.T, h Handler) *Client {
	c := &Client{
		subs:      map[string]Handler{"#": h},
		inboxWake: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.dispatchLoop()
	}()
	t.Cleanup(func() {
		close(c.done)
		c.wg.Wait()
	})
	return c
}

// TestDispatchOneAtATimeAllocs pins the inbox to its buffers: delivering
// messages one at a time, each handled before the next arrives, allocates
// nothing once the dispatcher's two buffers exist.
func TestDispatchOneAtATimeAllocs(t *testing.T) {
	handled := make(chan struct{})
	c := dispatchClient(t, func(Message) { handled <- struct{}{} })
	m := Message{Topic: "sensocial/device/d1/trigger", Payload: []byte("p")}
	deliver := func() {
		c.enqueue(m)
		<-handled
	}
	deliver()
	deliver()
	if allocs := testing.AllocsPerRun(200, deliver); allocs != 0 {
		t.Fatalf("a one-at-a-time delivery allocates %v times, want 0", allocs)
	}
}

// TestDispatchBatchKeepsOrder queues messages while the handler is busy,
// so the dispatcher takes them as batches: they must still reach the
// handler in arrival order, one call at a time, and the buffer handed back
// to the reader must hold no handled message.
func TestDispatchBatchKeepsOrder(t *testing.T) {
	const n = 500
	var inside atomic.Int32
	release := make(chan struct{})
	got := make(chan string, n)
	c := dispatchClient(t, func(m Message) {
		if inside.Add(1) != 1 {
			t.Errorf("handler called while another call for %q runs", m.Topic)
		}
		if m.Topic == "t/0" {
			<-release
		}
		got <- m.Topic
		inside.Add(-1)
	})
	for i := range n {
		c.enqueue(Message{Topic: fmt.Sprintf("t/%d", i), Payload: []byte{byte(i)}})
		if i == n/2 {
			close(release)
		}
	}
	for i := range n {
		if topic, want := <-got, fmt.Sprintf("t/%d", i); topic != want {
			t.Fatalf("message %d is %q, want %q", i, topic, want)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.inbox[:cap(c.inbox)] {
		if m.Topic != "" || m.Payload != nil {
			t.Fatalf("inbox slot %d still holds %q after dispatch", i, m.Topic)
		}
	}
}
