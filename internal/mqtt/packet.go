// Package mqtt implements the subset of MQTT 3.1.1 that SenSocial relies on
// for its trigger channel (paper §4: "SenSocial uses the Mosquitto broker
// ... The Mosquitto broker contacts the mobile via the MQTT protocol. We use
// MQTT over HTTP protocols due to the fact that MQTT is based on the push
// paradigm").
//
// The implementation speaks a binary wire protocol over any net.Conn —
// real TCP or a netsim link — with CONNECT/CONNACK, PUBLISH (QoS 0 and 1),
// PUBACK, SUBSCRIBE/SUBACK, UNSUBSCRIBE/UNSUBACK, PINGREQ/PINGRESP and
// DISCONNECT packets, retained messages, and `+`/`#` topic wildcards.
package mqtt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Packet types (MQTT 3.1.1 §2.2.1).
const (
	packetConnect     byte = 1
	packetConnack     byte = 2
	packetPublish     byte = 3
	packetPuback      byte = 4
	packetSubscribe   byte = 8
	packetSuback      byte = 9
	packetUnsubscribe byte = 10
	packetUnsuback    byte = 11
	packetPingreq     byte = 12
	packetPingresp    byte = 13
	packetDisconnect  byte = 14
)

// Connack return codes.
const (
	connAccepted         byte = 0
	connRefusedBadClient byte = 2
)

// maxRemainingLength caps packet size (the protocol maximum is ~256 MB; we
// cap far lower since SenSocial payloads are small JSON/XML documents).
const maxRemainingLength = 1 << 22 // 4 MiB

// ErrMalformedPacket reports a protocol violation on the wire.
var ErrMalformedPacket = errors.New("mqtt: malformed packet")

// packet is a decoded fixed-header frame.
type packet struct {
	ptype byte
	flags byte
	body  []byte
}

// writePacket encodes a frame to w: fixed header, varint remaining length,
// body.
func writePacket(w io.Writer, ptype, flags byte, body []byte) error {
	if len(body) > maxRemainingLength {
		return fmt.Errorf("mqtt: packet body %d bytes exceeds limit: %w", len(body), ErrMalformedPacket)
	}
	header := make([]byte, 1, 5+len(body))
	header[0] = ptype<<4 | (flags & 0x0f)
	// Remaining length varint (up to 4 bytes).
	n := len(body)
	for {
		b := byte(n % 128)
		n /= 128
		if n > 0 {
			b |= 0x80
		}
		header = append(header, b)
		if n == 0 {
			break
		}
	}
	header = append(header, body...)
	_, err := w.Write(header)
	if err != nil {
		return fmt.Errorf("mqtt: write packet type %d: %w", ptype, err)
	}
	return nil
}

// readBufSize is the size of the buffer a packetReader borrows while a
// frame is in progress: room for several item PUBLISHes, so a burst costs
// one read call rather than three or four per frame.
const readBufSize = 4 << 10

// readBufs holds the borrowed buffers. An idle connection holds none, so
// the memory follows the frames in flight, not the session count.
var readBufs = sync.Pool{New: func() any { return new([readBufSize]byte) }}

// packetReader reads the frames of one connection. Idle, it blocks on a
// one-byte read of the next fixed header into hdr and holds no buffer. Once
// a frame starts, it borrows a buffer, reads whatever has arrived, and
// parses frames out of it until it is drained, then gives it back. It calls
// Read only when the frame being read needs another byte, so it never waits
// for a byte that frame does not need, and it calls Read again only after
// every frame it has already returned was handled: a netsim reader proves
// it is done with a chunk by calling Read again, which is what
// sensocial_netsim_unread_bytes counts on.
//
// Every body is a fresh copy, never a view of the buffer, so what is
// decoded from it may alias it. A connection's handshake and read loop
// must share one reader: bytes buffered behind the handshake frame belong
// to the frames that follow it.
type packetReader struct {
	r   io.Reader
	hdr [1]byte
	buf *[readBufSize]byte // nil while idle
	off int                // next unparsed byte in buf
	end int                // end of the bytes read into buf
	err error              // what Read returned beside the last bytes it gave
}

// read decodes the next frame.
func (pr *packetReader) read() (packet, error) {
	if pr.buf == nil {
		if pr.err != nil {
			return packet{}, pr.err
		}
		if _, err := io.ReadFull(pr.r, pr.hdr[:]); err != nil {
			return packet{}, err // io.EOF propagates unwrapped for clean shutdown
		}
		pr.buf = readBufs.Get().(*[readBufSize]byte)
		pr.buf[0] = pr.hdr[0]
		pr.off, pr.end = 0, 1
	}
	pkt, err := pr.parse()
	if err != nil || pr.off == pr.end {
		pr.release()
	}
	return pkt, err
}

// parse decodes the frame starting at buf[off], reading what it lacks.
func (pr *packetReader) parse() (packet, error) {
	// Fixed header byte, then the varint remaining length (up to 4 bytes).
	length, multiplier := 0, 1
	for i := 1; ; i++ {
		if i > 4 {
			return packet{}, fmt.Errorf("mqtt: remaining length too long: %w", ErrMalformedPacket)
		}
		if pr.off+i == pr.end {
			if err := pr.fill(); err != nil {
				return packet{}, fmt.Errorf("mqtt: read remaining length: %w", err)
			}
		}
		b := pr.buf[pr.off+i]
		length += int(b&0x7f) * multiplier
		if b&0x80 == 0 {
			if length > maxRemainingLength {
				return packet{}, fmt.Errorf("mqtt: remaining length %d exceeds limit: %w", length, ErrMalformedPacket)
			}
			pkt := packet{ptype: pr.buf[pr.off] >> 4, flags: pr.buf[pr.off] & 0x0f, body: make([]byte, length)}
			pr.off += i + 1
			n := copy(pkt.body, pr.buf[pr.off:pr.end])
			pr.off += n
			if n < length {
				// The rest of the body has not arrived: read exactly it,
				// straight into the body, so nothing past this frame is
				// waited for.
				pr.release()
				err := pr.err
				if err == nil {
					_, err = io.ReadFull(pr.r, pkt.body[n:])
				}
				if err != nil {
					return packet{}, fmt.Errorf("mqtt: read packet body: %w", unexpectedEOF(err))
				}
			}
			return pkt, nil
		}
		multiplier *= 128
	}
}

// fill moves the unparsed bytes to the front of buf and reads more after
// them; the caller needs at least one more byte.
func (pr *packetReader) fill() error {
	pr.end = copy(pr.buf[:], pr.buf[pr.off:pr.end])
	pr.off = 0
	for pr.err == nil {
		n, err := pr.r.Read(pr.buf[pr.end:])
		pr.end += n
		pr.err = err
		if n > 0 {
			return nil
		}
	}
	return unexpectedEOF(pr.err)
}

// release gives the buffer back; the reader is idle again.
func (pr *packetReader) release() {
	if pr.buf != nil {
		readBufs.Put(pr.buf)
		pr.buf, pr.off, pr.end = nil, 0, 0
	}
}

// unexpectedEOF reports an end of stream inside a frame as such.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Body encoding helpers: MQTT strings are uint16-length-prefixed UTF-8.

type bodyWriter struct{ buf []byte }

func (b *bodyWriter) writeString(s string) {
	b.writeUint16(uint16(len(s)))
	b.buf = append(b.buf, s...)
}

func (b *bodyWriter) writeUint16(v uint16) {
	b.buf = binary.BigEndian.AppendUint16(b.buf, v)
}

func (b *bodyWriter) writeByte(v byte) { b.buf = append(b.buf, v) }

type bodyReader struct {
	buf []byte
	off int
}

func (b *bodyReader) readString() (string, error) {
	n, err := b.readUint16()
	if err != nil {
		return "", err
	}
	if b.off+int(n) > len(b.buf) {
		return "", fmt.Errorf("mqtt: string length %d overruns body: %w", n, ErrMalformedPacket)
	}
	s := string(b.buf[b.off : b.off+int(n)])
	b.off += int(n)
	return s, nil
}

func (b *bodyReader) readUint16() (uint16, error) {
	if b.off+2 > len(b.buf) {
		return 0, fmt.Errorf("mqtt: short body: %w", ErrMalformedPacket)
	}
	v := binary.BigEndian.Uint16(b.buf[b.off:])
	b.off += 2
	return v, nil
}

func (b *bodyReader) readByte() (byte, error) {
	if b.off >= len(b.buf) {
		return 0, fmt.Errorf("mqtt: short body: %w", ErrMalformedPacket)
	}
	v := b.buf[b.off]
	b.off++
	return v, nil
}

func (b *bodyReader) rest() []byte { return b.buf[b.off:] }

func (b *bodyReader) remaining() int { return len(b.buf) - b.off }

// connectPacket carries the CONNECT payload fields we support.
type connectPacket struct {
	clientID     string
	keepAliveSec uint16
}

func encodeConnect(c connectPacket) []byte {
	var w bodyWriter
	w.writeString("MQTT")
	w.writeByte(4) // protocol level 3.1.1
	w.writeByte(0) // connect flags: clean session implied
	w.writeUint16(c.keepAliveSec)
	w.writeString(c.clientID)
	return w.buf
}

func decodeConnect(body []byte) (connectPacket, error) {
	r := bodyReader{buf: body}
	proto, err := r.readString()
	if err != nil {
		return connectPacket{}, err
	}
	if proto != "MQTT" {
		return connectPacket{}, fmt.Errorf("mqtt: protocol name %q: %w", proto, ErrMalformedPacket)
	}
	if _, err := r.readByte(); err != nil { // level
		return connectPacket{}, err
	}
	if _, err := r.readByte(); err != nil { // flags
		return connectPacket{}, err
	}
	ka, err := r.readUint16()
	if err != nil {
		return connectPacket{}, err
	}
	id, err := r.readString()
	if err != nil {
		return connectPacket{}, err
	}
	return connectPacket{clientID: id, keepAliveSec: ka}, nil
}

// publishPacket is a decoded PUBLISH frame. Writers encode one with
// newPublishFrame (fanout.go).
type publishPacket struct {
	topic    string
	payload  []byte
	qos      byte
	retain   bool
	packetID uint16 // only when qos == 1
}

func decodePublish(flags byte, body []byte) (publishPacket, error) {
	p := publishPacket{
		qos:    (flags >> 1) & 0x03,
		retain: flags&1 == 1,
	}
	if p.qos > 1 {
		return publishPacket{}, fmt.Errorf("mqtt: QoS %d unsupported: %w", p.qos, ErrMalformedPacket)
	}
	r := bodyReader{buf: body}
	topic, err := r.readString()
	if err != nil {
		return publishPacket{}, err
	}
	p.topic = topic
	if p.qos == 1 {
		id, err := r.readUint16()
		if err != nil {
			return publishPacket{}, err
		}
		p.packetID = id
	}
	p.payload = r.rest() // aliases body, which packetReader allocates per frame
	return p, nil
}

// subscribePacket carries SUBSCRIBE/UNSUBSCRIBE topic lists.
type subscribePacket struct {
	packetID uint16
	filters  []string
	qoss     []byte // parallel to filters; empty for UNSUBSCRIBE
}

func encodeSubscribe(p subscribePacket, withQoS bool) []byte {
	var w bodyWriter
	w.writeUint16(p.packetID)
	for i, f := range p.filters {
		w.writeString(f)
		if withQoS {
			w.writeByte(p.qoss[i])
		}
	}
	return w.buf
}

func decodeSubscribe(body []byte, withQoS bool) (subscribePacket, error) {
	r := bodyReader{buf: body}
	id, err := r.readUint16()
	if err != nil {
		return subscribePacket{}, err
	}
	p := subscribePacket{packetID: id}
	for r.remaining() > 0 {
		f, err := r.readString()
		if err != nil {
			return subscribePacket{}, err
		}
		p.filters = append(p.filters, f)
		if withQoS {
			q, err := r.readByte()
			if err != nil {
				return subscribePacket{}, err
			}
			p.qoss = append(p.qoss, q)
		}
	}
	if len(p.filters) == 0 {
		return subscribePacket{}, fmt.Errorf("mqtt: empty subscribe: %w", ErrMalformedPacket)
	}
	return p, nil
}

func encodeUint16Body(v uint16) []byte {
	var w bodyWriter
	w.writeUint16(v)
	return w.buf
}

func decodeUint16Body(body []byte) (uint16, error) {
	r := bodyReader{buf: body}
	return r.readUint16()
}
