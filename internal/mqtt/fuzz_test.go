package mqtt

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"testing/quick"
)

// Property: packetReader never panics and never allocates absurdly on
// arbitrary input bytes — a malicious or corrupted peer cannot take the
// broker down.
func TestPropertyReadPacketRobust(t *testing.T) {
	f := func(data []byte) bool {
		in := &packetReader{r: bytes.NewReader(data)}
		for i := 0; i < 4; i++ { // drain a few frames if parseable
			if _, err := in.read(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: decodePublish/decodeConnect/decodeSubscribe never panic on
// arbitrary bodies.
func TestPropertyDecodersRobust(t *testing.T) {
	f := func(flags byte, body []byte) bool {
		_, _ = decodePublish(flags, body)
		_, _ = decodeConnect(body)
		_, _ = decodeSubscribe(body, true)
		_, _ = decodeSubscribe(body, false)
		_, _ = decodeUint16Body(body)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a handcrafted well-formed frame round-trips through the real
// reader regardless of payload contents.
func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(ptypeRaw, flagsRaw byte, body []byte) bool {
		ptype := ptypeRaw%14 + 1
		flags := flagsRaw & 0x0f
		if len(body) > maxRemainingLength {
			body = body[:maxRemainingLength]
		}
		var buf bytes.Buffer
		if err := writePacket(&buf, ptype, flags, body); err != nil {
			return false
		}
		pkt, err := readPacket(&buf)
		if err != nil {
			return false
		}
		return pkt.ptype == ptype && pkt.flags == flags && bytes.Equal(pkt.body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPacketRoundTrip checks the wire codec in both directions. As a
// generator seed, the input becomes a PUBLISH (QoS 0 or 1, retained or
// not), a SUBSCRIBE, an UNSUBSCRIBE and a CONNECT, each written the way the
// client writes it; every one must come back through packetReader and its
// decoder as it went in. As wire bytes, the input must decode frame by
// frame or fail, and never panic.
func FuzzPacketRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x01\x2c\x05a/b/cpayload"))
	f.Add([]byte{0x32, 0x09, 0x00, 0x03, 'a', '/', 'b', 0x00, 0x07, 'h', 'i'}) // a QoS 1 PUBLISH frame
	f.Add([]byte{0x82, 0x08, 0x00, 0x01, 0x00, 0x03, 'a', '/', '#', 0x01})     // a SUBSCRIBE frame
	f.Add([]byte{0x10, 0x0c, 0, 4, 'M', 'Q', 'T', 'T', 4, 0, 0, 60, 0, 0})     // a CONNECT frame
	f.Add([]byte{0x30, 0xff, 0xff, 0xff, 0xff, 0x01})                          // a remaining length of five bytes
	f.Add([]byte{0x32, 0x04, 0x00, 0x09, 'a', 'b'})                            // a topic longer than the body
	f.Fuzz(func(t *testing.T, data []byte) {
		g := data
		next := func(n int) []byte {
			n = min(n, len(g))
			p := g[:n]
			g = g[n:]
			return p
		}
		var head [3]byte
		copy(head[:], next(3))
		qos, retain := head[0]&1, head[0]&2 != 0
		id := binary.BigEndian.Uint16(head[1:])
		topic := string(next(int(head[0] >> 2)))
		payload := next(60000) // a SUBSCRIBE filter carries a 16-bit length

		pub := publishPacket{topic: topic, payload: payload, qos: qos, retain: retain}
		if qos == 1 {
			pub.packetID = id
		}
		if got, err := readPublish(publishFrame(pub)); err != nil || got.topic != pub.topic ||
			!bytes.Equal(got.payload, pub.payload) || got.qos != pub.qos || got.retain != pub.retain || got.packetID != pub.packetID {
			t.Fatalf("PUBLISH %+v read back as %+v, %v", pub, got, err)
		}

		sub := subscribePacket{packetID: id, filters: []string{topic, string(payload)}, qoss: []byte{qos, head[0] >> 7}}
		unsub := subscribePacket{packetID: id, filters: sub.filters}
		for _, tc := range []struct {
			p       subscribePacket
			ptype   byte
			withQoS bool
		}{{sub, packetSubscribe, true}, {unsub, packetUnsubscribe, false}} {
			pkt := roundTrip(t, tc.ptype, 2, encodeSubscribe(tc.p, tc.withQoS))
			got, err := decodeSubscribe(pkt.body, tc.withQoS)
			if err != nil || pkt.ptype != tc.ptype || got.packetID != tc.p.packetID ||
				!slices.Equal(got.filters, tc.p.filters) || !bytes.Equal(got.qoss, tc.p.qoss) {
				t.Fatalf("type %d %+v read back as %+v, %v", tc.ptype, tc.p, got, err)
			}
		}

		conn := connectPacket{clientID: topic, keepAliveSec: id}
		if got, err := decodeConnect(roundTrip(t, packetConnect, 0, encodeConnect(conn)).body); err != nil || got != conn {
			t.Fatalf("CONNECT %+v read back as %+v, %v", conn, got, err)
		}

		// As wire bytes.
		in := &packetReader{r: bytes.NewReader(data)}
		for {
			pkt, err := in.read()
			if err != nil {
				break
			}
			switch pkt.ptype {
			case packetPublish:
				_, _ = decodePublish(pkt.flags, pkt.body)
			case packetSubscribe:
				_, _ = decodeSubscribe(pkt.body, true)
			case packetUnsubscribe:
				_, _ = decodeSubscribe(pkt.body, false)
			case packetConnect:
				_, _ = decodeConnect(pkt.body)
			default:
				_, _ = decodeUint16Body(pkt.body)
			}
		}
	})
}
