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

// dialPair connects src to a fresh listener at dst and returns both ends.
func dialPair(t *testing.T, n *Network, src, dst string) (client, server *conn) {
	t.Helper()
	l, err := n.Listen(dst)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	c, err := n.Dial(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(); _ = s.Close() })
	return c.(*conn), s.(*conn)
}

// fillWindow writes one byte short of the window and then four bytes more,
// which the queue admits because it holds less than the window; it returns
// what the queue then holds, one byte short of the window plus one write.
func fillWindow(t *testing.T, c *conn) int {
	t.Helper()
	for _, size := range []int{SendWindow - 1, 4} {
		if _, err := c.Write(make([]byte, size)); err != nil {
			t.Fatalf("filling the window: %v", err)
		}
	}
	return SendWindow + 3
}

// writeAsync starts one write of p on c and returns where its error lands.
func writeAsync(c *conn, p []byte) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(p)
		done <- err
	}()
	return done
}

// waitForWriter blocks until a writer waits on q's window, so a test can
// act on a writer known to be waiting rather than on a sleep.
func waitForWriter(t *testing.T, q *deliveryQueue) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for q.writers.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no writer waited on the full window")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriteWaitsOnFullWindow: once a direction holds SendWindow bytes its
// reader could take, the next write waits, is counted, and goes through
// when the reader takes them.
func TestWriteWaitsOnFullWindow(t *testing.T) {
	n := newTestNetwork(t)
	c, s := dialPair(t, n, "src", "sink:1")
	held := fillWindow(t, c)
	done := writeAsync(c, []byte("next"))
	waitForWriter(t, c.out)
	select {
	case err := <-done:
		t.Fatalf("write over a full window returned (%v) before any read", err)
	default:
	}
	if _, err := io.ReadFull(s, make([]byte, held)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiting write: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(s, buf); err != nil || string(buf) != "next" {
		t.Fatalf("read %q, %v; want the waiting write's bytes", buf, err)
	}
	fc := n.counters.Load()
	if got := fc.writeWaits.Value(); got != 1 {
		t.Errorf("write waits = %d, want 1", got)
	}
	if got := fc.queuedPeak.Load(); got != int64(held) {
		t.Errorf("queued bytes peak = %d, want %d", got, held)
	}
}

// TestShapedWriteDoesNotWaitOnFutureHead: on a link with latency and the
// manual clock parked, nothing the writer queued is deliverable yet, so
// writes far past the window never wait: a writer inside an Advance must
// not wait for virtual time to move.
func TestShapedWriteDoesNotWaitOnFutureHead(t *testing.T) {
	clock := vclock.NewManual(time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC))
	n := NewNetwork(clock, 1)
	t.Cleanup(func() { _ = n.Close() })
	n.SetDefaultLink(Link{Latency: 40 * time.Millisecond})
	c, s := dialPair(t, n, "mobile", "server:1")
	msg := bytes.Repeat([]byte{'x'}, 4096)
	const writes = 4 * SendWindow / 4096
	for i := 0; i < writes; i++ {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.counters.Load().writeWaits.Value(); got != 0 {
		t.Fatalf("%d writes waited on future-stamped chunks", got)
	}
	clock.Advance(40 * time.Millisecond)
	if _, err := io.ReadFull(s, make([]byte, writes*len(msg))); err != nil {
		t.Fatalf("reading the writes back: %v", err)
	}
}

// TestCloseWakesWaitingWriter: a writer waiting on a full window returns an
// error when either end closes or a fault resets the connection.
func TestCloseWakesWaitingWriter(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(n *Network, c, s *conn)
		want error
	}{
		{"own close", func(_ *Network, c, _ *conn) { _ = c.Close() }, nil},
		{"peer close", func(_ *Network, _, s *conn) { _ = s.Close() }, nil},
		{"reset", func(n *Network, _, _ *conn) { n.ResetConns("src") }, ErrConnReset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNetwork(t)
			c, s := dialPair(t, n, "src", "sink:1")
			fillWindow(t, c)
			done := writeAsync(c, []byte("stuck"))
			waitForWriter(t, c.out)
			tc.end(n, c, s)
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("waiting write succeeded on a closed connection")
				}
				if tc.want != nil && !errors.Is(err, tc.want) {
					t.Fatalf("waiting write: %v, want %v", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("waiting write not woken")
			}
		})
	}
}

// TestWriteDeadlineOnFullWindow: a write deadline, set alone or through
// SetDeadline, ends a wait on a full window with a timeout net.Error;
// cleared, the write waits for the reader again.
func TestWriteDeadlineOnFullWindow(t *testing.T) {
	n := newTestNetwork(t)
	c, s := dialPair(t, n, "src", "sink:1")
	held := fillWindow(t, c)
	for _, set := range []func(time.Time) error{c.SetWriteDeadline, c.SetDeadline} {
		if err := set(time.Now().Add(30 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		_, err := c.Write([]byte("late"))
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("write past the deadline: %v, want a timeout net.Error", err)
		}
	}
	if err := c.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	done := writeAsync(c, []byte("on time"))
	waitForWriter(t, c.out)
	if _, err := io.ReadFull(s, make([]byte, held)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("write after clearing the deadline: %v", err)
	}
}

// TestReadersAckingEachOtherDoNotDeadlock is the MQTT shape on one
// connection: each end has a writer sending bulk data and a reader that
// answers every chunk it reads with a small ack on the same connection, as
// an MQTT reader writes PUBACK. Once both bulk writers fill both windows,
// each reader's ack would wait on a window only the other, equally
// waiting, reader drains. A write goes ahead while the other direction has
// a writer waiting, so every byte arrives.
func TestReadersAckingEachOtherDoNotDeadlock(t *testing.T) {
	n := newTestNetwork(t)
	c, s := dialPair(t, n, "src", "sink:1")
	const chunk, chunks = 1024, 8 * SendWindow / 1024
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, end := range []*conn{c, s} {
		wg.Add(2)
		go func() { // bulk writer
			defer wg.Done()
			msg := bytes.Repeat([]byte{'d'}, chunk)
			for i := 0; i < chunks; i++ {
				if _, err := end.Write(msg); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() { // reader answering each chunk with an ack
			defer wg.Done()
			buf := make([]byte, chunk)
			for data := 0; data < chunks*chunk; {
				k, err := end.Read(buf)
				if err != nil {
					errs <- err
					return
				}
				data += bytes.Count(buf[:k], []byte{'d'})
				if _, err := end.Write([]byte{'a'}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(20 * time.Second):
		t.Fatal("readers writing acks into each other's full window deadlocked")
	}
}
