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

// SendWindow is the most bytes one direction of a connection holds before a
// writer waits, as a TCP send buffer does: a write is admitted while the
// direction holds less than this, so it holds at most SendWindow plus one
// write, unless one of the two rules in deliveryQueue.enqueue admits more.
// A writer waits only on data its peer's reader could take without the
// clock moving, so a write inside a manual clock's Advance never waits for
// virtual time.
const SendWindow = 64 << 10

// conn is one endpoint of a simulated connection. Writes are chunked into
// timed deliveries: each write is stamped with a delivery time computed from
// the link profile and queued for the peer, whose reader takes it once the
// (possibly virtual) clock reaches the stamp.
type conn struct {
	local, remote net.Addr
	link          atomic.Pointer[Link] // current profile; swapped live by fault injection
	clock         vclock.Clock
	rng           func() float64
	counters      *fabricCounters

	out *deliveryQueue // chunks travelling to the peer
	in  *deliveryQueue // chunks arriving from the peer

	readBuf   []byte
	readMu    sync.Mutex
	deadline  deadlineGuard // read deadline
	wdeadline deadlineGuard // write deadline

	closeOnce sync.Once
	onClose   func() // deregisters the conn from the fabric; may be nil
}

var _ net.Conn = (*conn)(nil)

// linkedPair builds two connected endpoints with independent per-direction
// link profiles.
func linkedPair(clock vclock.Clock, rng func() float64, fwd, rev Link, clientAddr, serverAddr net.Addr, fc *fabricCounters) (client, server *conn) {
	c2s := newDeliveryQueue(clock)
	s2c := newDeliveryQueue(clock)
	c2s.peer, s2c.peer = s2c, c2s
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

// Write implements net.Conn. Bandwidth and latency shape the delivery time
// rather than block the writer; a write waits only while the direction
// holds SendWindow bytes its reader could already take, and then until the
// reader takes them, the connection closes or the write deadline fires.
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
	held, waited, err := c.out.enqueue(cp, l.txTime(len(p)), prop, &c.wdeadline)
	if waited {
		c.counters.writeWaits.Inc()
	}
	if err != nil {
		return 0, fmt.Errorf("netsim: write %s->%s: %w", c.local, c.remote, err)
	}
	c.counters.txBytes.Add(uint64(len(p)))
	c.counters.noteQueued(held)
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
// EOF after draining in-flight data, and stops the deadline timers.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.out.close()
		c.in.close()
		c.stopDeadlines()
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
		c.stopDeadlines()
		if c.onClose != nil {
			c.onClose()
		}
	})
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn: it sets the read and the write deadline.
func (c *conn) SetDeadline(t time.Time) error {
	c.deadline.set(t)
	c.wdeadline.set(t)
	return nil
}

// SetReadDeadline implements net.Conn. The deadline is interpreted on the
// real clock, matching how callers use it for I/O timeouts.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.deadline.set(t)
	return nil
}

// SetWriteDeadline implements net.Conn. Like the read deadline it runs on
// the real clock; it bounds how long a write waits on a full send window.
func (c *conn) SetWriteDeadline(t time.Time) error {
	c.wdeadline.set(t)
	return nil
}

// stopDeadlines disarms both deadline timers, so a closed connection
// leaves no pending timer behind to fire later.
func (c *conn) stopDeadlines() {
	c.deadline.set(time.Time{})
	c.wdeadline.set(time.Time{})
}

// deadlineGuard manages one direction's deadline channel.
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
	//lint:ignore wallclock a net.Conn deadline is a wall-clock time.Time per the net.Conn contract, so the guard must compare against real time
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
// connection and works with any Clock implementation. The queue is also
// the direction's send window: see enqueue.
type deliveryQueue struct {
	clock vclock.Clock
	peer  *deliveryQueue // the other direction of the same connection

	mu sync.Mutex
	// queue[head:] are the chunks in flight, bytes their total size.
	// Popping advances head, and a drained queue starts again at the front
	// of the same backing array, unless that holds more than keepChunks.
	queue     []timedChunk
	head      int
	bytes     int
	held      int       // size of the chunk the reader took last and has not come back from
	busyUntil time.Time // when the last accepted write finishes occupying the pipe
	closed    bool
	failErr   error  // non-nil when torn down by fault injection (RST)
	data      signal // fired when a chunk arrives or the queue closes; readers wait on it
	room      signal // fired when the window opens or the queue closes; writers wait on it
	// writers counts the writers waiting on room. The other direction's
	// writers read it without holding mu; see enqueue.
	writers atomic.Int32
}

func newDeliveryQueue(clock vclock.Clock) *deliveryQueue {
	return &deliveryQueue{clock: clock}
}

// enqueue admits one write of tx transmission time and prop propagation
// delay, and returns the bytes the queue holds with it and whether it
// waited for room. The pipe is a shared queue: a write starts transmitting
// only after every earlier write on this direction has finished, so
// concurrent writers cannot both see an empty pipe — bandwidth cost
// accumulates across them instead of being paid independently per write.
//
// A write waits while the queue holds SendWindow bytes or more and its head
// chunk is deliverable (stamped at or before the clock's now), that is, on
// data the reader could take without the clock moving. A future-stamped
// head admits the write, so no writer waits on virtual time: a write made
// inside a manual clock's Advance can wait for a reader, never for the
// clock the Advance holds. A write also goes ahead while a writer of the
// other direction waits. Each end's reader writes to the other (an MQTT
// reader's acknowledgements), so two readers each waiting on the other's
// full window would block for good, the deadlock two full TCP windows
// allow; with this rule at most one direction has writers waiting. The
// wait ends with the queue's error if it closes, and with timeoutError if
// the write deadline fires first.
func (q *deliveryQueue) enqueue(data []byte, tx, prop time.Duration, deadline *deadlineGuard) (held int, waited bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			if q.failErr != nil {
				return 0, waited, q.failErr
			}
			return 0, waited, errors.New("connection closed")
		}
		if q.bytes < SendWindow || q.queue[q.head].deliverAt.After(q.clock.Now()) {
			break // room in the window, or nothing the reader could take yet
		}
		// Count this writer in before looking at the other direction: of
		// two writers doing both at once, at least one sees the other.
		q.writers.Add(1)
		if q.peer.writers.Load() > 0 {
			q.writers.Add(-1)
			break
		}
		waited = true
		room := q.room.take()
		q.mu.Unlock()
		timedOut := false
		select {
		case <-room:
		case <-deadline.channel():
			timedOut = true
		}
		q.mu.Lock()
		q.writers.Add(-1)
		if timedOut {
			return 0, waited, timeoutError{}
		}
	}
	start := q.clock.Now()
	if q.busyUntil.After(start) {
		start = q.busyUntil
	}
	done := start.Add(tx)
	q.busyUntil = done
	if len(q.queue) == cap(q.queue) && q.head > 0 && q.head >= len(q.queue)/2 {
		// Full, and at least half of it popped: move the chunks in flight
		// to the front rather than grow, so a queue that never drains holds
		// at most about four times what it has in flight. The copy is no
		// longer than the pops that made room for it.
		n := copy(q.queue, q.queue[q.head:])
		clear(q.queue[n:])
		q.queue, q.head = q.queue[:n], 0
	}
	q.queue = append(q.queue, timedChunk{data: data, deliverAt: done.Add(prop)})
	q.bytes += len(data)
	q.data.fire()
	return q.bytes, waited, nil
}

// dequeue blocks until a chunk is deliverable (its stamp has passed on the
// clock), the queue closes (io.EOF after drain, or the fault error
// immediately), or deadline fires.
func (q *deliveryQueue) dequeue(deadline <-chan struct{}) ([]byte, error) {
	for {
		q.mu.Lock()
		// The reader is back for more, so it is done with its last chunk.
		q.held = 0
		if q.head < len(q.queue) {
			head := q.queue[q.head]
			now := q.clock.Now()
			// A closed connection delivers residual in-flight data
			// immediately: the link is torn down, so nothing paces the
			// remaining chunks, and waiting out their stamps would wedge
			// the reader forever when the virtual clock has stopped.
			if q.closed || !head.deliverAt.After(now) {
				q.pop(now)
				q.held = len(head.data)
				q.mu.Unlock()
				return head.data, nil
			}
			wake := q.data.take()
			q.mu.Unlock()
			// Wait for the stamp on the clock, but re-check earlier if
			// state changes or the deadline fires.
			fire, cancel := vclock.Alarm(q.clock, head.deliverAt, now)
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
		wake := q.data.take()
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
	for _, c := range q.queue[q.head:] {
		if c.deliverAt.After(now) {
			break
		}
		n += len(c.data)
	}
	return n
}

func (q *deliveryQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		q.data.fire()
		q.room.fire()
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
	q.queue, q.head, q.bytes = nil, 0, 0
	q.data.fire()
	q.room.fire()
}

// keepChunks is the largest backing array a drained queue keeps for its
// next writes. A burst grows the array far past what the connection
// usually holds, and keeping that on every idle connection would cost more
// memory than the garbage it saves.
const keepChunks = 32

// pop drops the chunk at the head, letting go of its bytes, and wakes the
// waiting writers once the window has half emptied or its new head is not
// yet deliverable at now. Waking them only then, not on every pop, lets a
// writer that waited put half a window in before it waits again.
func (q *deliveryQueue) pop(now time.Time) {
	q.bytes -= len(q.queue[q.head].data)
	q.queue[q.head] = timedChunk{}
	q.head++
	if q.head == len(q.queue) {
		q.queue, q.head = q.queue[:0], 0
		if cap(q.queue) > keepChunks {
			q.queue = nil
		}
	}
	if q.bytes <= SendWindow/2 || q.queue[q.head].deliverAt.After(now) {
		q.room.fire()
	}
}

// signal wakes the goroutines waiting for one change of a deliveryQueue's
// state; the queue's mutex guards it.
type signal struct {
	ch    chan struct{}
	taken bool // someone holds ch since it was made
}

// take returns the channel the next fire closes.
func (s *signal) take() <-chan struct{} {
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	s.taken = true
	return s.ch
}

// fire wakes the goroutines waiting on the signal, if any has taken it;
// with none, there is no one to tell and the channel stays as it is.
func (s *signal) fire() {
	if !s.taken {
		return
	}
	close(s.ch)
	s.ch, s.taken = nil, false
}

// timeoutError satisfies net.Error for deadline expiry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netsim: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var _ net.Error = timeoutError{}
