package netsim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// conn is one endpoint of a simulated connection. Writes are chunked into
// timed deliveries: each write is stamped with a delivery time computed from
// the link profile and handed to a pump goroutine that releases it to the
// peer's read buffer once the (possibly virtual) clock reaches the stamp.
type conn struct {
	local, remote net.Addr
	link          atomic.Pointer[Link] // current profile; swapped live by fault injection
	clock         vclock.Clock
	rng           func() float64
	counters      *fabricCounters

	out *deliveryQueue // chunks travelling to the peer
	in  *deliveryQueue // chunks arriving from the peer

	readBuf  []byte
	readMu   sync.Mutex
	deadline deadlineGuard

	closeOnce sync.Once
	onClose   func() // deregisters the conn from the fabric; may be nil
}

var _ net.Conn = (*conn)(nil)

// linkedPair builds two connected endpoints with independent per-direction
// link profiles.
func linkedPair(clock vclock.Clock, rng func() float64, fwd, rev Link, clientAddr, serverAddr net.Addr, fc *fabricCounters) (client, server *conn) {
	c2s := newDeliveryQueue(clock)
	s2c := newDeliveryQueue(clock)
	c := &conn{local: clientAddr, remote: serverAddr, clock: clock, rng: rng, counters: fc, out: c2s, in: s2c}
	s := &conn{local: serverAddr, remote: clientAddr, clock: clock, rng: rng, counters: fc, out: s2c, in: c2s}
	c.setLink(fwd)
	s.setLink(rev)
	return c, s
}

// setLink swaps the endpoint's link profile. In-flight chunks keep their
// old stamps; the next write pays the new profile.
func (c *conn) setLink(l Link) {
	cp := l
	c.link.Store(&cp)
}

// Write implements net.Conn. It never blocks on the link; bandwidth and
// latency shape the delivery time instead.
func (c *conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	cp := make([]byte, len(p))
	copy(cp, p)
	l := c.link.Load()
	prop := l.propDelay(c.rng)
	if l.Loss > 0 && c.rng() < l.Loss {
		prop += l.lossPenalty()
		c.counters.lossRetransmits.Inc()
	}
	if err := c.out.enqueue(cp, l.txTime(len(p)), prop); err != nil {
		return 0, fmt.Errorf("netsim: write %s->%s: %w", c.local, c.remote, err)
	}
	c.counters.txBytes.Add(uint64(len(p)))
	return len(p), nil
}

// Read implements net.Conn.
func (c *conn) Read(p []byte) (int, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	for len(c.readBuf) == 0 {
		chunk, err := c.in.dequeue(c.deadline.channel())
		if err != nil {
			return 0, err
		}
		c.readBuf = chunk
	}
	n := copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

// Close implements net.Conn. It closes both directions so the peer observes
// EOF after draining in-flight data.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.out.close()
		c.in.close()
		if c.onClose != nil {
			c.onClose()
		}
	})
	return nil
}

// abort tears the connection down as a fault (RST): queued chunks are
// dropped and both ends observe err instead of a drain followed by EOF.
func (c *conn) abort(err error) {
	c.closeOnce.Do(func() {
		c.out.fail(err)
		c.in.fail(err)
		if c.onClose != nil {
			c.onClose()
		}
	})
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn (read side only; writes never block).
func (c *conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn. The deadline is interpreted on the
// real clock, matching how callers use it for I/O timeouts.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.deadline.set(t)
	return nil
}

// SetWriteDeadline implements net.Conn; writes are buffered and never block,
// so this is a no-op.
func (c *conn) SetWriteDeadline(time.Time) error { return nil }

// deadlineGuard manages a read deadline channel.
type deadlineGuard struct {
	mu    sync.Mutex
	timer *time.Timer
	ch    chan struct{}
}

func (g *deadlineGuard) set(t time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	if t.IsZero() {
		g.ch = nil
		return
	}
	ch := make(chan struct{})
	g.ch = ch
	//lint:ignore wallclock SetReadDeadline carries a wall-clock time.Time per the net.Conn contract, so the guard must compare against real time
	d := time.Until(t)
	if d <= 0 {
		close(ch)
		return
	}
	//lint:ignore wallclock the deadline timer mirrors net.Conn semantics: it fires on real elapsed time even when virtual clocks are frozen
	g.timer = time.AfterFunc(d, func() { close(ch) })
}

func (g *deadlineGuard) channel() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ch
}

// timedChunk is a byte chunk annotated with its delivery time.
type timedChunk struct {
	data      []byte
	deliverAt time.Time
}

// deliveryQueue carries chunks in one direction. A single pump goroutine
// would need to sleep on the virtual clock; instead the receiver performs
// the wait itself in dequeue, which keeps goroutine count at zero per
// connection and works with any Clock implementation.
type deliveryQueue struct {
	clock vclock.Clock

	mu        sync.Mutex
	queue     []timedChunk
	held      int       // size of the chunk the reader took last and has not come back from
	busyUntil time.Time // when the last accepted write finishes occupying the pipe
	closed    bool
	failErr   error         // non-nil when torn down by fault injection (RST)
	wake      chan struct{} // closed & replaced whenever state changes
}

func newDeliveryQueue(clock vclock.Clock) *deliveryQueue {
	return &deliveryQueue{clock: clock, wake: make(chan struct{})}
}

// enqueue admits one write of tx transmission time and prop propagation
// delay. The pipe is a shared queue: a write starts transmitting only after
// every earlier write on this direction has finished, so concurrent writers
// cannot both see an empty pipe — bandwidth cost accumulates across them
// instead of being paid independently per write.
func (q *deliveryQueue) enqueue(data []byte, tx, prop time.Duration) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		if q.failErr != nil {
			return q.failErr
		}
		return errors.New("connection closed")
	}
	start := q.clock.Now()
	if q.busyUntil.After(start) {
		start = q.busyUntil
	}
	done := start.Add(tx)
	q.busyUntil = done
	q.queue = append(q.queue, timedChunk{data: data, deliverAt: done.Add(prop)})
	q.wakeLocked()
	return nil
}

// dequeue blocks until a chunk is deliverable (its stamp has passed on the
// clock), the queue closes (io.EOF after drain, or the fault error
// immediately), or deadline fires.
func (q *deliveryQueue) dequeue(deadline <-chan struct{}) ([]byte, error) {
	for {
		q.mu.Lock()
		// The reader is back for more, so it is done with its last chunk.
		q.held = 0
		if len(q.queue) > 0 {
			head := q.queue[0]
			now := q.clock.Now()
			// A closed connection delivers residual in-flight data
			// immediately: the link is torn down, so nothing paces the
			// remaining chunks, and waiting out their stamps would wedge
			// the reader forever when the virtual clock has stopped.
			if q.closed || !head.deliverAt.After(now) {
				q.queue = q.queue[1:]
				q.held = len(head.data)
				q.mu.Unlock()
				return head.data, nil
			}
			wake := q.wake
			q.mu.Unlock()
			// Wait for the stamp on the clock, but re-check earlier if
			// state changes or the deadline fires.
			fire, cancel := q.alarm(head.deliverAt, now)
			select {
			case <-fire:
			case <-wake:
				cancel()
			case <-deadline:
				cancel()
				return nil, timeoutError{}
			}
			continue
		}
		if q.closed {
			err := q.failErr
			q.mu.Unlock()
			if err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-wake:
		case <-deadline:
			return nil, timeoutError{}
		}
	}
}

// due reports the bytes the receiving end still owes work for: the chunk its
// reader took last and has not come back from, plus the chunks at the head
// of the queue whose delivery stamp has passed (what a dequeue would hand
// over without waiting on the clock).
func (q *deliveryQueue) due(now time.Time) (n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n = q.held
	for _, c := range q.queue {
		if c.deliverAt.After(now) {
			break
		}
		n += len(c.data)
	}
	return n
}

// alarm returns a channel that fires once the clock reaches at, read as
// now before the call, and the alarm's cancel. On an event scheduler the
// alarm is filed at the absolute time: the clock may have moved since now
// was read, and a relative timer would then fire late — on a manual clock
// parked before that late deadline, never — stranding the reader with a
// deliverable chunk. A stamp the clock has already reached fires at once.
func (q *deliveryQueue) alarm(at, now time.Time) (<-chan time.Time, func() bool) {
	sched, ok := q.clock.(vclock.EventScheduler)
	if !ok {
		t := q.clock.NewTimer(at.Sub(now))
		return t.C(), t.Stop
	}
	fire := make(chan time.Time, 1)
	ev := sched.Schedule(at, func(t time.Time) { fire <- t })
	if !at.After(q.clock.Now()) && ev.Stop() {
		fire <- at
	}
	return fire, ev.Stop
}

func (q *deliveryQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		q.wakeLocked()
	}
}

// fail closes the queue as a fault: in-flight chunks are discarded (a reset
// drops the pipe's contents) and the reader observes err instead of EOF.
func (q *deliveryQueue) fail(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.failErr = err
	q.queue = nil
	q.wakeLocked()
}

func (q *deliveryQueue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// timeoutError satisfies net.Error for deadline expiry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netsim: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var _ net.Error = timeoutError{}
