package mqtt

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/vclock"
)

// readerFrames is a stream of frames laid out against the reader's buffer:
// empty bodies, one- and two-byte remaining lengths, frames that straddle
// the end of a full buffer, and frames larger than the buffer.
func readerFrames() []packet {
	var frames []packet
	add := func(ptype, flags byte, n int) {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(len(frames)*31 + i)
		}
		frames = append(frames, packet{ptype: ptype, flags: flags, body: body})
	}
	add(packetPingreq, 0, 0)
	add(packetPublish, 2, 100)
	add(packetPublish, 0, 127)
	add(packetPublish, 3, 128)
	add(packetPuback, 0, 2)
	add(packetPublish, 0, readBufSize-300) // ends a few bytes short of the first buffer
	add(packetPublish, 2, 250)             // straddles its end
	add(packetPublish, 0, 3*readBufSize)   // larger than the buffer
	add(packetSuback, 0, 3)
	add(packetPublish, 2, readBufSize-2-3) // fills a buffer exactly from its header on
	add(packetPingresp, 0, 0)
	return frames
}

func wireOf(t *testing.T, frames []packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := writePacket(&buf, f.ptype, f.flags, f.body); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestPacketReaderChunking reads one stream of frames whole and through
// readers that return it a byte at a time, half at a time, and with the
// final bytes beside io.EOF: every frame comes back as written, then a
// clean io.EOF.
func TestPacketReaderChunking(t *testing.T) {
	frames := readerFrames()
	wire := wireOf(t, frames)
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(wire),
		"one byte": iotest.OneByteReader(bytes.NewReader(wire)),
		"half":     iotest.HalfReader(bytes.NewReader(wire)),
		"data+EOF": iotest.DataErrReader(bytes.NewReader(wire)),
	} {
		in := &packetReader{r: r}
		for i, want := range frames {
			got, err := in.read()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if got.ptype != want.ptype || got.flags != want.flags || !bytes.Equal(got.body, want.body) {
				t.Fatalf("%s: frame %d: type %d flags %d body %d B, want type %d flags %d body %d B",
					name, i, got.ptype, got.flags, len(got.body), want.ptype, want.flags, len(want.body))
			}
		}
		if _, err := in.read(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
		if in.buf != nil {
			t.Fatalf("%s: reader holds a buffer at end of stream", name)
		}
	}
}

// TestPacketReaderTruncated cuts the stream inside a header and inside a
// body: the reader reports io.ErrUnexpectedEOF and gives its buffer back.
func TestPacketReaderTruncated(t *testing.T) {
	wire := wireOf(t, readerFrames()[:4])
	for _, cut := range []int{len(wire) - 1, len(wire) - 128, 2 + 1} {
		in := &packetReader{r: bytes.NewReader(wire[:cut])}
		var err error
		for err == nil {
			_, err = in.read()
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
		if in.buf != nil {
			t.Fatalf("cut at %d: reader holds a buffer after the error", cut)
		}
	}
}

// frameByFrame hands out one frame's bytes per Read call and fails any
// Read beyond the frames queued so far, as a peer that has sent nothing
// more would block it.
type frameByFrame struct {
	pending []byte
	extra   int // Read calls made with nothing pending
}

func (f *frameByFrame) Read(p []byte) (int, error) {
	if len(f.pending) == 0 {
		f.extra++
		return 0, errors.New("read past the bytes sent")
	}
	n := copy(p, f.pending)
	f.pending = f.pending[n:]
	return n, nil
}

// TestPacketReaderIdleHoldsNoBuffer sends frames one at a time: each read
// returns its frame without asking for a byte beyond it, and between
// frames the reader holds no buffer.
func TestPacketReaderIdleHoldsNoBuffer(t *testing.T) {
	src := &frameByFrame{}
	in := &packetReader{r: src}
	for i, f := range readerFrames() {
		src.pending = wireOf(t, []packet{f})
		got, err := in.read()
		if err != nil || !bytes.Equal(got.body, f.body) {
			t.Fatalf("frame %d: %d B, %v", i, len(got.body), err)
		}
		if src.extra != 0 {
			t.Fatalf("frame %d: reader asked for a byte past its frame", i)
		}
		if in.buf != nil {
			t.Fatalf("frame %d: idle reader holds a buffer", i)
		}
	}
}

// TestBrokerHandlesPipelinedHandshake writes CONNECT, SUBSCRIBE and a QoS 1
// PUBLISH in one Write, before reading anything: the broker must handle
// all three, so the CONNECT's reader is the session's reader.
func TestBrokerHandlesPipelinedHandshake(t *testing.T) {
	tb := newTestBus(t)
	var local collector
	if err := tb.broker.SubscribeLocal("pipe/#", local.handler); err != nil {
		t.Fatal(err)
	}
	conn, err := tb.net.Dial("piped", "broker:1883")
	if err != nil {
		t.Fatal(err)
	}
	r := &rawSession{t: t, conn: conn, in: &packetReader{r: conn}}
	t.Cleanup(func() { _ = conn.Close() })
	var wire bytes.Buffer
	if err := writePacket(&wire, packetConnect, 0, encodeConnect(connectPacket{clientID: "piped"})); err != nil {
		t.Fatal(err)
	}
	sub := subscribePacket{packetID: 1, filters: []string{"pipe/x"}, qoss: []byte{1}}
	if err := writePacket(&wire, packetSubscribe, 2, encodeSubscribe(sub, true)); err != nil {
		t.Fatal(err)
	}
	wire.Write(publishFrame(publishPacket{topic: "pipe/x", payload: []byte("hello"), qos: 1, packetID: 2}))
	if _, err := conn.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	if pkt := r.mustRead(); pkt.ptype != packetConnack {
		t.Fatalf("first reply type %d, want CONNACK", pkt.ptype)
	}
	if pkt := r.mustRead(); pkt.ptype != packetSuback {
		t.Fatalf("second reply type %d, want SUBACK", pkt.ptype)
	}
	// The PUBACK and the session's own copy of the publish, in either order.
	var acked, delivered bool
	for !acked || !delivered {
		pkt := r.mustRead()
		switch pkt.ptype {
		case packetPuback:
			acked = true
		case packetPublish:
			p, err := decodePublish(pkt.flags, pkt.body)
			if err != nil || string(p.payload) != "hello" {
				t.Fatalf("delivered %+v, %v", p, err)
			}
			delivered = true
		default:
			t.Fatalf("unexpected reply type %d", pkt.ptype)
		}
	}
	if msgs := local.waitFor(t, 1); string(msgs[0].Payload) != "hello" {
		t.Fatalf("local subscriber got %q", msgs[0].Payload)
	}
}

// TestClientSeesRedeliveryBehindConnack plays a broker that writes CONNACK
// and a DUP redelivery in one Write, as a durable broker's restoreSession
// may: the client must read and acknowledge the redelivery, so the
// CONNACK's reader is the client's reader.
func TestClientSeesRedeliveryBehindConnack(t *testing.T) {
	clientEnd, brokerEnd := net.Pipe()
	t.Cleanup(func() { _ = brokerEnd.Close() })
	wire := make(chan []byte, 1)
	go func() {
		in := &packetReader{r: brokerEnd}
		if _, err := in.read(); err != nil { // CONNECT
			return
		}
		var buf bytes.Buffer
		_ = writePacket(&buf, packetConnack, 0, []byte{0, connAccepted})
		dup := publishFrame(publishPacket{topic: "sensocial/device/d1/trigger", payload: []byte("again"), qos: 1, packetID: 7})
		dup[0] |= 0x08
		buf.Write(dup)
		_, _ = brokerEnd.Write(buf.Bytes())
		pkt, err := in.read() // the client's PUBACK
		if err == nil && pkt.ptype == packetPuback {
			wire <- pkt.body
		}
		_, _ = io.Copy(io.Discard, brokerEnd)
	}()
	c, err := Connect(clientEnd, ClientOptions{ClientID: "d1", Clock: vclock.NewReal()})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	// The client acknowledges a QoS 1 PUBLISH in its read loop, as it hands
	// the message to dispatch.
	select {
	case id := <-wire:
		if !bytes.Equal(id, []byte{0, 7}) {
			t.Fatalf("PUBACK for %v, want packet id 7", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client never acknowledged the redelivery")
	}
}
