package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

func newTestNetwork(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork(vclock.NewReal(), 1)
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// startEcho binds an echo server to addr and returns a cleanup-registered
// listener.
func startEcho(t *testing.T, n *Network, addr string) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatalf("Listen(%s): %v", addr, err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()
}

func TestDialAndEcho(t *testing.T) {
	n := newTestNetwork(t)
	startEcho(t, n, "server:1883")
	c, err := n.Dial("mobile-1", "server:1883")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	msg := []byte("hello sensocial")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo = %q, want %q", buf, msg)
	}
}

func TestDialRefusedWithoutListener(t *testing.T) {
	n := newTestNetwork(t)
	if _, err := n.Dial("mobile-1", "nowhere:80"); !errors.Is(err, ErrConnectionRefused) {
		t.Fatalf("err = %v, want ErrConnectionRefused", err)
	}
}

func TestListenDuplicateAddr(t *testing.T) {
	n := newTestNetwork(t)
	if _, err := n.Listen("server:80"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if _, err := n.Listen("server:80"); err == nil {
		t.Fatal("duplicate Listen accepted")
	}
}

func TestClosedNetworkRejectsOps(t *testing.T) {
	n := NewNetwork(vclock.NewReal(), 1)
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := n.Listen("a:1"); !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("Listen err = %v", err)
	}
	if _, err := n.Dial("x", "a:1"); !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("Dial err = %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestLatencyIsApplied(t *testing.T) {
	n := newTestNetwork(t)
	n.SetDefaultLink(Link{Latency: 50 * time.Millisecond})
	startEcho(t, n, "server:1")
	c, err := n.Dial("mobile", "server:1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	// Round trip crosses the link twice: >= 100ms.
	if rtt := time.Since(start); rtt < 100*time.Millisecond {
		t.Fatalf("rtt = %v, want >= 100ms", rtt)
	}
}

// armDriftClock is a manual clock that moves by drift the first time a
// reader arms a wait on it once armed is set: after the reader has read
// the time and before its wait is filed, the interleaving a simulation
// advancing on another goroutine produces.
type armDriftClock struct {
	*vclock.Manual
	drift time.Duration
	armed sync.Once
	ready chan struct{}
}

func (c *armDriftClock) move() {
	select {
	case <-c.ready:
		c.armed.Do(func() { c.Manual.Advance(c.drift) })
	default:
	}
}

func (c *armDriftClock) NewTimer(d time.Duration) vclock.Timer {
	c.move()
	return c.Manual.NewTimer(d)
}

func (c *armDriftClock) Schedule(at time.Time, fn func(time.Time)) vclock.Event {
	c.move()
	return c.Manual.Schedule(at, fn)
}

// TestReadNotStrandedByClockMovingWhileArming: a chunk whose stamp the
// clock reaches while its reader is arming the wait is delivered, although
// the clock then stays parked. A wait armed relative to the time read
// before the clock moved would fire one drift too late, that is never.
func TestReadNotStrandedByClockMovingWhileArming(t *testing.T) {
	clock := &armDriftClock{
		Manual: vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)),
		drift:  50 * time.Millisecond,
		ready:  make(chan struct{}),
	}
	n := NewNetwork(clock, 1)
	defer n.Close()
	n.SetDefaultLink(Link{Latency: 50 * time.Millisecond})
	l, err := n.Listen("server:1")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial("mobile", "server:1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	srv := <-accepted
	defer srv.Close()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	close(clock.ready)
	read := make(chan error, 1)
	go func() {
		_, err := srv.Read(make([]byte, 1))
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read stranded: the chunk's stamp has passed on the parked clock")
	}
}

func TestPerHostLinkOverride(t *testing.T) {
	n := newTestNetwork(t)
	n.SetDefaultLink(Link{})
	n.SetLink("slow", "server", Link{Latency: 80 * time.Millisecond})
	startEcho(t, n, "server:1")

	fast, err := n.Dial("fast", "server:1")
	if err != nil {
		t.Fatalf("Dial fast: %v", err)
	}
	defer fast.Close()
	slow, err := n.Dial("slow", "server:1")
	if err != nil {
		t.Fatalf("Dial slow: %v", err)
	}
	defer slow.Close()

	measure := func(c net.Conn) time.Duration {
		start := time.Now()
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		buf := make([]byte, 1)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		return time.Since(start)
	}
	if d := measure(fast); d > 50*time.Millisecond {
		t.Fatalf("fast link rtt = %v", d)
	}
	if d := measure(slow); d < 160*time.Millisecond {
		t.Fatalf("slow link rtt = %v, want >= 160ms", d)
	}
}

func TestBandwidthShaping(t *testing.T) {
	n := newTestNetwork(t)
	n.SetDefaultLink(Link{BandwidthBps: 10000}) // 10 KB/s
	startEcho(t, n, "server:1")
	c, err := n.Dial("mobile", "server:1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte("a"), 2000) // 0.2s serialization one-way
	start := time.Now()
	if _, err := c.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if d := time.Since(start); d < 300*time.Millisecond {
		t.Fatalf("2KB echo over 10KB/s link took %v, want >= 300ms", d)
	}
}

func TestCloseDeliversEOFAfterDrain(t *testing.T) {
	n := newTestNetwork(t)
	l, err := n.Listen("server:1")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	var readErr error
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			readErr = err
			return
		}
		got, readErr = io.ReadAll(c)
	}()
	c, err := n.Dial("mobile", "server:1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := c.Write([]byte("final words")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if readErr != nil {
		t.Fatalf("ReadAll: %v", readErr)
	}
	if string(got) != "final words" {
		t.Fatalf("got %q", got)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	n := newTestNetwork(t)
	startEcho(t, n, "server:1")
	c, err := n.Dial("mobile", "server:1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestReadDeadline(t *testing.T) {
	n := newTestNetwork(t)
	startEcho(t, n, "server:1")
	c, err := n.Dial("mobile", "server:1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatalf("SetReadDeadline: %v", err)
	}
	buf := make([]byte, 1)
	_, err = c.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout net.Error", err)
	}
	// Clearing the deadline re-enables reads.
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		t.Fatalf("clear deadline: %v", err)
	}
	if _, err := c.Write([]byte("y")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("Read after clearing deadline: %v", err)
	}
}

func TestOrderingPreserved(t *testing.T) {
	n := newTestNetwork(t)
	n.SetDefaultLink(Link{Latency: time.Millisecond, Jitter: 2 * time.Millisecond})
	l, err := n.Listen("server:1")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- nil
			return
		}
		data, _ := io.ReadAll(c)
		done <- data
	}()
	c, err := n.Dial("mobile", "server:1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	var want bytes.Buffer
	for i := byte(0); i < 100; i++ {
		chunk := bytes.Repeat([]byte{i}, 7)
		want.Write(chunk)
		if _, err := c.Write(chunk); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	_ = c.Close()
	got := <-done
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("stream reordered or corrupted despite jitter")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := newTestNetwork(t)
	l, err := n.Listen("server:1")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = l.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Accept returned nil after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock")
	}
	// Address is free for rebinding after close.
	if _, err := n.Listen("server:1"); err != nil {
		t.Fatalf("re-Listen: %v", err)
	}
}

func TestLinkDelayComputation(t *testing.T) {
	l := Link{Latency: 10 * time.Millisecond, Jitter: 10 * time.Millisecond, BandwidthBps: 1000}
	half := func() float64 { return 0.5 }
	// 10ms latency + 5ms jitter propagation; 100 bytes / 1000 Bps = 100ms
	// transmission.
	if got, want := l.propDelay(half), 15*time.Millisecond; got != want {
		t.Fatalf("propDelay = %v, want %v", got, want)
	}
	if got, want := l.txTime(100), 100*time.Millisecond; got != want {
		t.Fatalf("txTime = %v, want %v", got, want)
	}
	zero := Link{}
	if d := zero.propDelay(half) + zero.txTime(1<<20); d != 0 {
		t.Fatalf("zero link delay = %v, want 0", d)
	}
	if !zero.delayFree() || l.delayFree() {
		t.Fatalf("delayFree: zero=%v shaped=%v, want true/false", zero.delayFree(), l.delayFree())
	}
}

// TestListenerCloseClosesQueuedConns is the regression test for listener
// close stranding never-accepted connections: a dial that lands in the
// accept queue before Close must see its conn closed (EOF on read), not
// hang until a read deadline fires.
func TestListenerCloseClosesQueuedConns(t *testing.T) {
	n := newTestNetwork(t)
	l, err := n.Listen("server:1883")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	// Queue three dials without ever calling Accept.
	conns := make([]net.Conn, 0, 3)
	for i := 0; i < 3; i++ {
		c, err := n.Dial("mobile", "server:1883")
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		conns = append(conns, c)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, c := range conns {
		if err := c.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatalf("SetReadDeadline %d: %v", i, err)
		}
		buf := make([]byte, 1)
		_, err := c.Read(buf)
		if !errors.Is(err, io.EOF) {
			t.Fatalf("conn %d: read after listener close = %v, want EOF", i, err)
		}
		_ = c.Close()
	}
}

// TestDialRacingListenerClose hammers the dial/close race: every dial must
// either be refused outright or hand back a conn whose peer is eventually
// closed — no connection may be stranded in the accept queue unobserved.
func TestDialRacingListenerClose(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		n := newTestNetwork(t)
		l, err := n.Listen("server:1883")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		var wg sync.WaitGroup
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := n.Dial("mobile", "server:1883")
				if err != nil {
					return // refused: fine
				}
				// Accepted into the queue but never served: the close
				// sweep must deliver EOF.
				_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
				buf := make([]byte, 1)
				if _, rerr := c.Read(buf); !errors.Is(rerr, io.EOF) {
					t.Errorf("iter %d: stranded dial: read = %v, want EOF", iter, rerr)
				}
				_ = c.Close()
			}()
		}
		_ = l.Close()
		wg.Wait()
		_ = n.Close()
	}
}

// TestWriteReadPairAllocs pins what one write and the read that takes it
// allocate on a delay-free pipe: the write's copy of its bytes, and nothing
// for the queue between them. A drained queue appends into the array it
// already has (up to keepChunks), and a state change makes a fresh wake
// channel only when a reader has taken the last one. Before either, a pair
// cost 3 allocations: the copy, the queue's regrowth and a channel.
func TestWriteReadPairAllocs(t *testing.T) {
	n := newTestNetwork(t)
	l, err := n.Listen("sink:1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("src", "sink:1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	msg, buf := bytes.Repeat([]byte{'x'}, 64), make([]byte, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("write/read pair: %.1f allocs, want <= 1", allocs)
	}
}

// TestDrainedBurstReleasesQueue checks the other side of that reuse: once a
// burst of more than keepChunks writes drains, the queue lets go of the
// array the burst grew, so an idle connection does not keep it.
func TestDrainedBurstReleasesQueue(t *testing.T) {
	n := newTestNetwork(t)
	l, err := n.Listen("sink:1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("src", "sink:1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	q := c.(*conn).out
	capacity := func() int {
		q.mu.Lock()
		defer q.mu.Unlock()
		return cap(q.queue)
	}
	buf := make([]byte, 1)
	for _, burst := range []int{4, 4 * keepChunks} {
		for i := 0; i < burst; i++ {
			if _, err := c.Write([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < burst; i++ {
			if _, err := io.ReadFull(s, buf); err != nil || buf[0] != byte(i) {
				t.Fatalf("read %d of %d = %v, %v", i, burst, buf[0], err)
			}
		}
		if kept := capacity(); (burst <= keepChunks) != (kept > 0) {
			t.Fatalf("after a burst of %d the drained queue keeps capacity %d", burst, kept)
		}
	}
}

// TestBusyQueueStaysSmall keeps one chunk in flight while 1 000 more pass
// through, so the queue never drains: its array must stay the size of what
// is in flight, not of everything that went through it.
func TestBusyQueueStaysSmall(t *testing.T) {
	n := newTestNetwork(t)
	l, err := n.Listen("sink:1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("src", "sink:1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	q := c.(*conn).out
	buf := make([]byte, 1)
	if _, err := c.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(s, buf); err != nil || buf[0] != byte(i-1) {
			t.Fatalf("read %d = %v, %v", i-1, buf[0], err)
		}
	}
	q.mu.Lock()
	capacity, inFlight := cap(q.queue), len(q.queue)-q.head
	q.mu.Unlock()
	if inFlight != 1 || capacity > 4 {
		t.Fatalf("after 1 000 writes with one in flight: %d in flight, capacity %d", inFlight, capacity)
	}
}
