package mqtt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/race"
)

// readPacket reads one frame from r through a fresh reader, as a
// connection's first read does. Bytes it buffers past the frame are lost
// with the reader: read a stream of frames through one packetReader.
func readPacket(r io.Reader) (packet, error) {
	in := packetReader{r: r}
	defer in.release()
	return in.read()
}

func roundTrip(t *testing.T, ptype, flags byte, body []byte) packet {
	t.Helper()
	var buf bytes.Buffer
	if err := writePacket(&buf, ptype, flags, body); err != nil {
		t.Fatalf("writePacket: %v", err)
	}
	pkt, err := readPacket(&buf)
	if err != nil {
		t.Fatalf("readPacket: %v", err)
	}
	return pkt
}

func TestPacketRoundTripSmall(t *testing.T) {
	pkt := roundTrip(t, packetPublish, 0x3, []byte("hello"))
	if pkt.ptype != packetPublish || pkt.flags != 0x3 || string(pkt.body) != "hello" {
		t.Fatalf("round trip = %+v", pkt)
	}
}

func TestPacketRoundTripMultiByteLength(t *testing.T) {
	// Bodies longer than 127 bytes exercise the varint continuation bit.
	for _, n := range []int{0, 1, 127, 128, 300, 16384, 100000} {
		body := bytes.Repeat([]byte{0xAB}, n)
		pkt := roundTrip(t, packetPublish, 0, body)
		if len(pkt.body) != n {
			t.Fatalf("n=%d: body length %d", n, len(pkt.body))
		}
	}
}

func TestPacketRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := writePacket(&buf, packetPublish, 0, make([]byte, maxRemainingLength+1)); !errors.Is(err, ErrMalformedPacket) {
		t.Fatalf("oversize write err = %v", err)
	}
	c := &Client{conn: discardConn{}}
	if err := c.Publish("t", make([]byte, maxRemainingLength-2), 0, false); !errors.Is(err, ErrMalformedPacket) {
		t.Fatalf("oversize publish err = %v", err)
	}
	// Hand-craft an oversize remaining length: 0xFF 0xFF 0xFF 0x7F = ~268M.
	r := bytes.NewReader([]byte{packetPublish << 4, 0xFF, 0xFF, 0xFF, 0x7F})
	if _, err := readPacket(r); !errors.Is(err, ErrMalformedPacket) {
		t.Fatalf("oversize read err = %v", err)
	}
}

func TestPacketTruncatedBody(t *testing.T) {
	r := bytes.NewReader([]byte{packetPublish << 4, 10, 1, 2, 3})
	if _, err := readPacket(r); err == nil {
		t.Fatal("truncated packet accepted")
	}
}

func TestPacketEOFOnEmpty(t *testing.T) {
	if _, err := readPacket(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestConnectRoundTrip(t *testing.T) {
	body := encodeConnect(connectPacket{clientID: "device-42", keepAliveSec: 60})
	c, err := decodeConnect(body)
	if err != nil {
		t.Fatalf("decodeConnect: %v", err)
	}
	if c.clientID != "device-42" || c.keepAliveSec != 60 {
		t.Fatalf("decoded %+v", c)
	}
}

func TestConnectRejectsWrongProtocol(t *testing.T) {
	var w bodyWriter
	w.writeString("HTTP")
	if _, err := decodeConnect(w.buf); !errors.Is(err, ErrMalformedPacket) {
		t.Fatalf("err = %v", err)
	}
}

// publishFrame encodes p as the client and the broker do, with
// newPublishFrame and the packet identifier patched in, and returns a copy
// of the wire bytes.
func publishFrame(p publishPacket) []byte {
	f := newPublishFrame(Message{Topic: p.topic, Payload: p.payload, QoS: p.qos, Retain: p.retain}, p.qos)
	if p.qos == 1 {
		binary.BigEndian.PutUint16(f.buf[f.idOff:], p.packetID)
	}
	b := append([]byte(nil), f.buf...)
	f.release()
	return b
}

// readPublish reads one frame from b and decodes it as a PUBLISH.
func readPublish(b []byte) (publishPacket, error) {
	pkt, err := readPacket(bytes.NewReader(b))
	if err != nil {
		return publishPacket{}, err
	}
	if pkt.ptype != packetPublish {
		return publishPacket{}, fmt.Errorf("packet type %d, want PUBLISH", pkt.ptype)
	}
	return decodePublish(pkt.flags, pkt.body)
}

func TestPublishRoundTripQoS0(t *testing.T) {
	p, err := readPublish(publishFrame(publishPacket{topic: "a/b", payload: []byte("data"), qos: 0, retain: true}))
	if err != nil {
		t.Fatalf("readPublish: %v", err)
	}
	if p.topic != "a/b" || string(p.payload) != "data" || p.qos != 0 || !p.retain {
		t.Fatalf("decoded %+v", p)
	}
}

func TestPublishRoundTripQoS1(t *testing.T) {
	p, err := readPublish(publishFrame(publishPacket{topic: "t", payload: []byte("x"), qos: 1, packetID: 777}))
	if err != nil {
		t.Fatalf("readPublish: %v", err)
	}
	if p.qos != 1 || p.packetID != 777 {
		t.Fatalf("decoded %+v", p)
	}
}

// TestClientPublishWriteAllocs pins a client's PUBLISH write, a 250 B QoS 1
// message, at one allocation: the frame comes from the broker's pool and
// the packet identifier is patched into it.
func TestClientPublishWriteAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector drops sync.Pool puts by design; alloc pinning does not apply")
	}
	var last []byte
	c := &Client{conn: recordConn{last: &last}}
	m := Message{Topic: "sensocial/device/d00001/uplink", Payload: bytes.Repeat([]byte{'x'}, 250), QoS: 1}
	id := uint16(0)
	allocs := testing.AllocsPerRun(1000, func() {
		id++
		if err := c.writePublish(m, id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("client PUBLISH write: %.1f allocs, want <= 1", allocs)
	}
	p, err := readPublish(last)
	if err != nil || p.topic != m.Topic || !bytes.Equal(p.payload, m.Payload) || p.qos != 1 || p.packetID != id {
		t.Fatalf("last write decodes to %+v, %v; want %s with packet id %d", p, err, m.Topic, id)
	}
}

// recordConn is a discardConn that keeps a copy of the last write.
type recordConn struct {
	discardConn
	last *[]byte
}

func (c recordConn) Write(p []byte) (int, error) {
	*c.last = append((*c.last)[:0], p...)
	return len(p), nil
}

// TestPublishReadAllocs pins reading and decoding a PUBLISH at two
// allocations, the body and the topic: the fixed header is read into the
// reader, and the payload aliases the body.
func TestPublishReadAllocs(t *testing.T) {
	wire := publishFrame(publishPacket{topic: "sensocial/device/d00001/uplink", payload: bytes.Repeat([]byte{'x'}, 250), qos: 1, packetID: 9})
	r := bytes.NewReader(wire)
	in := &packetReader{r: r}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Reset(wire)
		pkt, err := in.read()
		if err != nil {
			t.Fatal(err)
		}
		if p, err := decodePublish(pkt.flags, pkt.body); err != nil || p.packetID != 9 {
			t.Fatalf("decodePublish = %+v, %v", p, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("PUBLISH read and decode: %.1f allocs, want <= 2", allocs)
	}
}

func TestPublishRejectsQoS2(t *testing.T) {
	if _, err := decodePublish(2<<1, []byte{0, 1, 'a'}); !errors.Is(err, ErrMalformedPacket) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	in := subscribePacket{packetID: 9, filters: []string{"a/+", "b/#"}, qoss: []byte{0, 1}}
	out, err := decodeSubscribe(encodeSubscribe(in, true), true)
	if err != nil {
		t.Fatalf("decodeSubscribe: %v", err)
	}
	if out.packetID != 9 || len(out.filters) != 2 || out.filters[1] != "b/#" || out.qoss[1] != 1 {
		t.Fatalf("decoded %+v", out)
	}
}

func TestUnsubscribeRoundTrip(t *testing.T) {
	in := subscribePacket{packetID: 4, filters: []string{"x"}}
	out, err := decodeSubscribe(encodeSubscribe(in, false), false)
	if err != nil {
		t.Fatalf("decodeSubscribe: %v", err)
	}
	if out.packetID != 4 || len(out.filters) != 1 || out.filters[0] != "x" {
		t.Fatalf("decoded %+v", out)
	}
}

func TestSubscribeRejectsEmpty(t *testing.T) {
	if _, err := decodeSubscribe(encodeUint16Body(5), true); !errors.Is(err, ErrMalformedPacket) {
		t.Fatalf("err = %v", err)
	}
}

// Property: publish packets of arbitrary topic/payload round-trip intact.
func TestPropertyPublishRoundTrip(t *testing.T) {
	f := func(topicRaw string, payload []byte, qosRaw uint8, retain bool) bool {
		topic := topicRaw
		if topic == "" {
			topic = "t"
		}
		if len(topic) > 60000 {
			topic = topic[:60000]
		}
		qos := qosRaw % 2
		in := publishPacket{topic: topic, payload: payload, qos: qos, retain: retain, packetID: 1}
		out, err := readPublish(publishFrame(in))
		if err != nil {
			return false
		}
		return out.topic == topic && bytes.Equal(out.payload, payload) &&
			out.qos == qos && out.retain == retain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
