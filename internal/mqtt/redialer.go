package mqtt

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/vclock"
)

// ErrNotConnected is returned by Redialer operations while the link is
// down; the caller decides whether to drop or retry (SenSocial drops sensor
// uploads, matching the original's best-effort semantics).
var ErrNotConnected = fmt.Errorf("mqtt: not connected")

// A Redialer waits initialBackoff on its clock after a failed attempt,
// doubling up to maxBackoff while attempts keep failing.
const (
	initialBackoff = 250 * time.Millisecond
	maxBackoff     = 30 * time.Second
)

// Redialer maintains an MQTT session across broker restarts and transport
// failures: it reconnects with exponential backoff and replays every
// subscription on the fresh session. Publishes while disconnected fail
// fast with ErrNotConnected.
type Redialer struct {
	dial  func() (net.Conn, error)
	opts  ClientOptions
	clock vclock.Clock

	mu      sync.Mutex
	client  *Client // current session, set before its subscriptions replay
	ready   bool    // client's subscriptions have all been replayed
	subs    map[string]redialSub
	closed  bool
	dialing net.Conn // transport mid-handshake, aborted by Close

	done chan struct{}
	wg   sync.WaitGroup
}

type redialSub struct {
	qos     byte
	handler Handler
}

// NewRedialer starts the connection maintenance loop. dial must produce a
// fresh transport connection per call; opts are every session's
// parameters.
func NewRedialer(dial func() (net.Conn, error), opts ClientOptions) (*Redialer, error) {
	if dial == nil {
		return nil, fmt.Errorf("mqtt: redialer requires a dial func")
	}
	if opts.ClientID == "" {
		return nil, fmt.Errorf("mqtt: redialer requires a client id")
	}
	if opts.Clock == nil {
		opts.Clock = vclock.NewReal()
	}
	r := &Redialer{
		dial:  dial,
		opts:  opts,
		clock: opts.Clock,
		subs:  make(map[string]redialSub),
		done:  make(chan struct{}),
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.loop()
	}()
	return r, nil
}

// loop connects, replays subscriptions, then waits for the session to die
// and starts over with backoff.
func (r *Redialer) loop() {
	backoff := initialBackoff
	for {
		select {
		case <-r.done:
			return
		default:
		}
		client, err := r.connectOnce()
		if err != nil {
			t := r.clock.NewTimer(backoff)
			select {
			case <-t.C():
			case <-r.done:
				t.Stop()
				return
			}
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = initialBackoff
		select {
		case <-client.Done():
			// Session died (or Close raced); fall through to reconnect.
		case <-r.done:
			return
		}
		r.clearClient()
		// Join the dead session's dispatcher before dialing again: a
		// message it still holds must not reach a handler after the next
		// session's replay has delivered something newer.
		_ = client.Close()
	}
}

// connectOnce dials, makes the session current and replays subscriptions.
// The session is current before the replay because a message the replay
// delivers (a retained summary, say) may prompt a publish, which must not
// fail as "not connected" on the session that delivered it.
func (r *Redialer) connectOnce() (*Client, error) {
	conn, err := r.dial()
	if err != nil {
		return nil, err
	}
	// Track the mid-handshake transport so Close can abort a CONNECT
	// whose CONNACK will never come (a dead-but-listening peer would
	// otherwise wedge Close behind this read).
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClientClosed
	}
	r.dialing = conn
	r.mu.Unlock()
	client, err := Connect(conn, r.opts)
	r.mu.Lock()
	r.dialing = nil
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	if r.closed {
		r.mu.Unlock()
		_ = client.Close()
		return nil, ErrClientClosed
	}
	r.client = client
	subs := make(map[string]redialSub, len(r.subs))
	for f, s := range r.subs {
		subs[f] = s
	}
	r.mu.Unlock()
	for filter, s := range subs {
		if err := client.Subscribe(filter, s.qos, s.handler); err != nil {
			r.clearClient()
			_ = client.Close()
			return nil, fmt.Errorf("mqtt: redial resubscribe %q: %w", filter, err)
		}
	}
	r.mu.Lock()
	r.ready = r.client == client
	r.mu.Unlock()
	return client, nil
}

func (r *Redialer) clearClient() {
	r.mu.Lock()
	r.client, r.ready = nil, false
	r.mu.Unlock()
}

func (r *Redialer) currentClient() (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClientClosed
	}
	if r.client == nil {
		return nil, ErrNotConnected
	}
	return r.client, nil
}

// Connected reports whether a live session exists right now and every
// subscription has been replayed on it (its SUBACK received).
func (r *Redialer) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.client != nil && r.ready && !r.closed
}

// Publish sends on the current session; fails fast while disconnected.
func (r *Redialer) Publish(topic string, payload []byte, qos byte, retain bool) error {
	c, err := r.currentClient()
	if err != nil {
		return err
	}
	return c.Publish(topic, payload, qos, retain)
}

// Subscribe registers the subscription durably: it is applied to the
// current session (if any) and replayed on every reconnect.
func (r *Redialer) Subscribe(filter string, qos byte, h Handler) error {
	if err := ValidateTopicFilter(filter); err != nil {
		return err
	}
	if h == nil {
		return fmt.Errorf("mqtt: subscribe %q: nil handler", filter)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClientClosed
	}
	r.subs[filter] = redialSub{qos: qos, handler: h}
	c := r.client
	r.mu.Unlock()
	if c != nil {
		return c.Subscribe(filter, qos, h)
	}
	return nil // applied on next connect
}

// Unsubscribe removes the durable subscription.
func (r *Redialer) Unsubscribe(filter string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClientClosed
	}
	delete(r.subs, filter)
	c := r.client
	r.mu.Unlock()
	if c != nil {
		return c.Unsubscribe(filter)
	}
	return nil
}

// Close stops reconnection and closes any live session.
func (r *Redialer) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.done)
	c := r.client
	r.client, r.ready = nil, false
	dialing := r.dialing
	r.mu.Unlock()
	if dialing != nil {
		_ = dialing.Close()
	}
	if c != nil {
		_ = c.Close()
	}
	r.wg.Wait()
	return nil
}
