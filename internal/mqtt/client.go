package mqtt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Handler consumes messages delivered on a subscription. Handlers run on a
// dedicated dispatcher goroutine (never the reader), so they may freely call
// back into the client, including blocking QoS 1 publishes. Messages are
// delivered to handlers in arrival order, one at a time.
type Handler func(Message)

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("mqtt: client closed")

// ErrAckTimeout is returned when the broker does not acknowledge a QoS 1
// publish or a subscribe in time.
var ErrAckTimeout = errors.New("mqtt: acknowledgement timeout")

// ErrAckUnknown is returned by a QoS 1 Publish (or a Subscribe) when the
// transport died after the request was written but before its
// acknowledgement arrived. The broker may or may not have processed the
// packet — the broker acknowledges a PUBLISH before routing it — so a
// caller that resends on this error risks a duplicate delivery, while one
// that drops the message risks a loss. Callers choosing at-most-once
// semantics must treat this differently from write-phase failures
// (ErrClientClosed and transport errors), where the packet never reached
// the wire and resending is always safe.
var ErrAckUnknown = errors.New("mqtt: acknowledgement unknown (transport lost after send)")

// ErrPacketIDsExhausted is returned by a QoS 1 Publish, Subscribe or
// Unsubscribe when every packet id is already awaiting an acknowledgement.
var ErrPacketIDsExhausted = errors.New("mqtt: all packet ids in flight")

// ClientOptions configures Connect.
type ClientOptions struct {
	// ClientID identifies the session to the broker; required.
	ClientID string
	// KeepAlive is the ping interval; 0 disables pinging.
	KeepAlive time.Duration
	// Clock supplies time for pings and ack timeouts (default real clock).
	Clock vclock.Clock
	// AckTimeout bounds waits for SUBACK/PUBACK (default 30s).
	AckTimeout time.Duration
}

// Client is an MQTT client bound to a single connection.
type Client struct {
	conn  net.Conn
	clock vclock.Clock
	opts  ClientOptions

	writeMu sync.Mutex

	mu       sync.Mutex
	subs     map[string]Handler
	pending  map[uint16]*pendingAck
	nextID   uint16
	closed   bool
	closeErr error
	inbox    []Message

	inboxWake chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
}

// Connect performs the MQTT handshake over conn and starts the reader (and,
// when keepalive is enabled, pinger) goroutines. The client owns conn.
func Connect(conn net.Conn, opts ClientOptions) (*Client, error) {
	if opts.ClientID == "" {
		return nil, fmt.Errorf("mqtt: connect: ClientID is required")
	}
	if opts.Clock == nil {
		opts.Clock = vclock.NewReal()
	}
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 30 * time.Second
	}
	kaSec := uint16(0)
	if opts.KeepAlive > 0 {
		s := int(opts.KeepAlive / time.Second)
		if s < 1 {
			s = 1
		}
		if s > 0xffff {
			s = 0xffff
		}
		kaSec = uint16(s)
	}
	if err := writePacket(conn, packetConnect, 0, encodeConnect(connectPacket{
		clientID:     opts.ClientID,
		keepAliveSec: kaSec,
	})); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("mqtt: connect %q: %w", opts.ClientID, err)
	}
	in := &packetReader{r: conn}
	pkt, err := in.read()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("mqtt: connect %q: read connack: %w", opts.ClientID, err)
	}
	if pkt.ptype != packetConnack || len(pkt.body) != 2 {
		_ = conn.Close()
		return nil, fmt.Errorf("mqtt: connect %q: unexpected reply type %d: %w", opts.ClientID, pkt.ptype, ErrMalformedPacket)
	}
	if code := pkt.body[1]; code != connAccepted {
		_ = conn.Close()
		return nil, fmt.Errorf("mqtt: connect %q: refused with code %d", opts.ClientID, code)
	}

	c := &Client{
		conn:      conn,
		clock:     opts.Clock,
		opts:      opts,
		subs:      make(map[string]Handler),
		pending:   make(map[uint16]*pendingAck),
		inboxWake: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.readLoop(in)
	}()
	go func() {
		defer c.wg.Done()
		c.dispatchLoop()
	}()
	if opts.KeepAlive > 0 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.pingLoop()
		}()
	}
	return c, nil
}

// ID returns the client identifier.
func (c *Client) ID() string { return c.opts.ClientID }

// Publish sends a message. For QoS 1 it blocks until the broker's PUBACK or
// the ack timeout.
func (c *Client) Publish(topic string, payload []byte, qos byte, retain bool) error {
	if err := ValidateTopicName(topic); err != nil {
		return err
	}
	if qos > 1 {
		return fmt.Errorf("mqtt: publish to %q: QoS %d unsupported", topic, qos)
	}
	if n := 2 + len(topic) + len(payload) + 2*int(qos); n > maxRemainingLength {
		return fmt.Errorf("mqtt: publish to %q: packet body %d bytes exceeds limit: %w", topic, n, ErrMalformedPacket)
	}
	var id uint16
	var ack *pendingAck
	if qos == 1 {
		var err error
		id, ack, err = c.registerPending()
		if err != nil {
			return err
		}
		defer c.unregisterPending(id)
	}
	if err := c.writePublish(Message{Topic: topic, Payload: payload, QoS: qos, Retain: retain}, id); err != nil {
		return fmt.Errorf("mqtt: publish to %q: %w", topic, err)
	}
	if qos == 1 {
		if err := c.waitAck(ack); err != nil {
			return fmt.Errorf("mqtt: publish to %q: %w", topic, err)
		}
	}
	return nil
}

// Subscribe registers a handler for a topic filter and blocks until SUBACK.
// Subscribing the same filter again replaces the handler.
func (c *Client) Subscribe(filter string, qos byte, h Handler) error {
	if err := ValidateTopicFilter(filter); err != nil {
		return err
	}
	if h == nil {
		return fmt.Errorf("mqtt: subscribe %q: nil handler", filter)
	}
	if qos > 1 {
		qos = 1
	}
	id, ack, err := c.registerPending()
	if err != nil {
		return err
	}
	defer c.unregisterPending(id)

	c.mu.Lock()
	c.subs[filter] = h
	c.mu.Unlock()

	body := encodeSubscribe(subscribePacket{packetID: id, filters: []string{filter}, qoss: []byte{qos}}, true)
	if err := c.write(packetSubscribe, 2, body); err != nil {
		c.removeSub(filter)
		return fmt.Errorf("mqtt: subscribe %q: %w", filter, err)
	}
	if err := c.waitAck(ack); err != nil {
		c.removeSub(filter)
		return fmt.Errorf("mqtt: subscribe %q: %w", filter, err)
	}
	return nil
}

// Unsubscribe removes a subscription and blocks until UNSUBACK.
func (c *Client) Unsubscribe(filter string) error {
	id, ack, err := c.registerPending()
	if err != nil {
		return err
	}
	defer c.unregisterPending(id)
	c.removeSub(filter)
	body := encodeSubscribe(subscribePacket{packetID: id, filters: []string{filter}}, false)
	if err := c.write(packetUnsubscribe, 2, body); err != nil {
		return fmt.Errorf("mqtt: unsubscribe %q: %w", filter, err)
	}
	if err := c.waitAck(ack); err != nil {
		return fmt.Errorf("mqtt: unsubscribe %q: %w", filter, err)
	}
	return nil
}

// Close sends DISCONNECT, closes the connection and joins the client
// goroutines. After a transport failure it still joins the dispatcher,
// which drains what arrived before the failure: once Close returns, no
// handler of this client is running or will run. Safe to call multiple
// times, but not from a handler.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = c.conn.Close()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	close(c.done)
	for _, pa := range c.pending {
		close(pa.ch)
	}
	c.pending = make(map[uint16]*pendingAck)
	c.mu.Unlock()

	c.writeMu.Lock()
	_ = writePacket(c.conn, packetDisconnect, 0, nil)
	c.writeMu.Unlock()
	_ = c.conn.Close()
	c.wg.Wait()
	return nil
}

// Err reports why the client stopped, if it stopped due to a transport
// error rather than Close.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeErr
}

// Done returns a channel closed when the client stops — by Close or by a
// transport failure (check Err to distinguish). Reconnecting wrappers wait
// on it.
func (c *Client) Done() <-chan struct{} { return c.done }

// readLoop handles the client's frames until the connection fails. in is
// the reader the CONNACK came through: a redelivery the broker writes right
// behind it may already sit in its buffer.
func (c *Client) readLoop(in *packetReader) {
	for {
		pkt, err := in.read()
		if err != nil {
			c.mu.Lock()
			if !c.closed {
				c.closeErr = err
				c.closed = true
				close(c.done)
				for _, pa := range c.pending {
					close(pa.ch)
				}
				c.pending = make(map[uint16]*pendingAck)
			}
			c.mu.Unlock()
			return
		}
		switch pkt.ptype {
		case packetPublish:
			p, err := decodePublish(pkt.flags, pkt.body)
			if err != nil {
				continue
			}
			if p.qos == 1 {
				_ = c.write(packetPuback, 0, encodeUint16Body(p.packetID))
			}
			c.enqueue(Message{Topic: p.topic, Payload: p.payload, QoS: p.qos, Retain: p.retain})
		case packetPuback, packetSuback, packetUnsuback:
			if len(pkt.body) >= 2 {
				id, err := decodeUint16Body(pkt.body[:2])
				if err != nil {
					continue
				}
				c.mu.Lock()
				if pa, ok := c.pending[id]; ok {
					pa.acked = true
					close(pa.ch)
					delete(c.pending, id)
				}
				c.mu.Unlock()
			}
		case packetPingresp:
			// keepalive satisfied
		default:
			// Ignore unexpected packets; the broker is trusted.
		}
	}
}

func (c *Client) enqueue(m Message) {
	c.mu.Lock()
	c.inbox = append(c.inbox, m)
	c.mu.Unlock()
	select {
	case c.inboxWake <- struct{}{}:
	default:
	}
}

func (c *Client) dispatchLoop() {
	for {
		c.mu.Lock()
		if len(c.inbox) == 0 {
			c.mu.Unlock()
			select {
			case <-c.inboxWake:
				continue
			case <-c.done:
				return
			}
		}
		m := c.inbox[0]
		c.inbox = c.inbox[1:]
		var hs []Handler
		for f, h := range c.subs {
			if TopicMatches(f, m.Topic) {
				hs = append(hs, h)
			}
		}
		c.mu.Unlock()
		for _, h := range hs {
			h(m)
		}
	}
}

func (c *Client) pingLoop() {
	t := c.clock.NewTicker(c.opts.KeepAlive)
	defer t.Stop()
	for {
		select {
		case <-t.C():
			if err := c.write(packetPingreq, 0, nil); err != nil {
				return
			}
		case <-c.done:
			return
		}
	}
}

// pendingAck tracks one in-flight acknowledgeable request. acked is set
// (under the client mutex) before ch closes, so a waiter can distinguish a
// real acknowledgement from the wholesale channel teardown that Close and
// transport loss perform.
type pendingAck struct {
	ch    chan struct{}
	acked bool
}

// registerPending reserves the next free packet id. When all 65 535 ids are
// in flight it fails after one full cycle instead of spinning under c.mu,
// which the read loop needs to retire an ack.
func (c *Client) registerPending() (uint16, *pendingAck, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClientClosed
	}
	for range math.MaxUint16 {
		c.nextID++
		if c.nextID == 0 {
			c.nextID = 1
		}
		if _, taken := c.pending[c.nextID]; !taken {
			pa := &pendingAck{ch: make(chan struct{})}
			c.pending[c.nextID] = pa
			return c.nextID, pa, nil
		}
	}
	return 0, nil, ErrPacketIDsExhausted
}

func (c *Client) unregisterPending(id uint16) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, id)
}

func (c *Client) waitAck(ack *pendingAck) error {
	t := c.clock.NewTimer(c.opts.AckTimeout)
	defer t.Stop()
	select {
	case <-ack.ch:
		c.mu.Lock()
		acked := ack.acked
		closeErr := c.closeErr
		c.mu.Unlock()
		if acked {
			return nil
		}
		// The channel was torn down wholesale. A local Close never put the
		// request on the wire ambiguity's path by intent, so keep the
		// historical error; transport loss after the send is the genuinely
		// ambiguous case.
		if closeErr == nil {
			return ErrClientClosed
		}
		return ErrAckUnknown
	case <-t.C():
		return ErrAckTimeout
	}
}

func (c *Client) removeSub(filter string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.subs, filter)
}

// writePublish encodes m into a pooled frame, patches in id at QoS 1, and
// writes it.
//
//sensolint:hotpath
func (c *Client) writePublish(m Message, id uint16) error {
	f := newPublishFrame(m, m.QoS)
	if m.QoS == 1 {
		binary.BigEndian.PutUint16(f.buf[f.idOff:], id)
	}
	err := c.writeFrame(f.buf)
	f.release()
	return err
}

// writeFrame writes an encoded frame unless the client is closed.
func (c *Client) writeFrame(buf []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClientClosed
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_, err := c.conn.Write(buf)
	return err
}

func (c *Client) write(ptype, flags byte, body []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.mu.Unlock()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return writePacket(c.conn, ptype, flags, body)
}
