package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/osn"
)

// The codec fuzzers are differential: codec.go's fast paths must behave
// exactly as encoding/json does, on every input.
//
// Decoding: for any bytes, DecodeItem (DecodeTrigger) and encoding/json
// agree on whether there is an error, and on the value when there is none.
// Encoding: every accepted value encodes to the bytes encoding/json writes,
// or both fail. An accepted value must also decode again, because decoded
// items are re-published verbatim by aggregators and multicast fan-out.
//
// Run with `go test -fuzz FuzzDecodeItem ./internal/core` (or
// FuzzDecodeTrigger) to explore; the seed corpus alone runs on every plain
// `go test`.

// garbageSeeds are inputs the fast paths must decline, each to be decoded
// by encoding/json exactly as before.
var garbageSeeds = []string{
	"", "null", "0", "[]", `"str"`, "{", "{}", `{"time":"not-a-time"}`,
	`{"raw":"bm90IGpzb24="}`, `{"context":{"k":1}}`, "\xff\xfe\x00",
	`{"stream_id":"a","stream_id":"b"}`, `{"kind":"sense","device_id":"d","stream_ids":[]}`,
	`{"kind":"config","device_id":"d","config_xml":"!!"}`,
}

// edgeItems are seed shapes beside the canonical ones: the zero item (empty
// strings, zero time), a raw wifi item without context, a classified item
// with another user's context key and the zero time, and a sparse social
// item whose action has an empty id and the zero time.
var edgeItems = []Item{
	{},
	{
		StreamID: "s1", DeviceID: "alice-phone", UserID: "alice",
		Modality: "wifi", Granularity: GranularityRaw,
		Time: time.Unix(1400000000, 0).UTC(),
		Raw:  []byte(`{"ssids":3}`),
	},
	{
		StreamID: "s2", DeviceID: "bob-phone", UserID: "bob",
		Modality: "accelerometer", Granularity: GranularityClassified,
		Classified: "walking",
		Context:    Context{"physical_activity": "walking", Key("carol", "audio_environment"): "silent"},
	},
	{
		StreamID: "social", UserID: "alice", Modality: "social",
		Action:      &osn.Action{UserID: "alice", Type: "post", Text: "hello"},
		AggregateID: "agg-1",
	},
}

func FuzzDecodeItem(f *testing.F) {
	seeds := append([]Item(nil), edgeItems...)
	for _, it := range canonicalItems() {
		seeds = append(seeds, it)
	}
	for _, it := range seeds {
		b, err := it.Encode()
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(b)
	}
	for _, garbage := range garbageSeeds {
		f.Add([]byte(garbage))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		item, err := DecodeItem(data) // must not panic, whatever the bytes
		var want Item
		if werr := json.Unmarshal(data, &want); (err != nil) != (werr != nil) {
			t.Fatalf("DecodeItem err = %v, encoding/json err = %v\ninput: %q", err, werr, data)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(item, want) {
			t.Fatalf("DecodeItem = %+v\nencoding/json = %+v\ninput: %q", item, want, data)
		}
		b, err := item.Encode()
		wantB, werr := json.Marshal(item)
		if (err != nil) != (werr != nil) || !bytes.Equal(b, wantB) {
			t.Fatalf("Encode = %s, %v\nencoding/json = %s, %v", b, err, wantB, werr)
		}
		if err != nil {
			t.Fatalf("accepted item does not re-encode: %v\ninput: %q", err, data)
		}
		again, err := DecodeItem(b)
		if err != nil {
			t.Fatalf("re-encoded item does not decode: %v\nencoded: %s", err, b)
		}
		if again.StreamID != item.StreamID || again.UserID != item.UserID ||
			again.Modality != item.Modality || again.Classified != item.Classified ||
			!again.Time.Equal(item.Time) || len(again.Context) != len(item.Context) {
			t.Fatalf("round trip drifted:\nfirst:  %+v\nsecond: %+v", item, again)
		}
	})
}

func FuzzDecodeTrigger(f *testing.F) {
	for _, tr := range canonicalTriggers() {
		b, err := tr.Encode()
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(b)
	}
	for _, garbage := range garbageSeeds {
		f.Add([]byte(garbage))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrigger(data)
		var want Trigger
		werr := json.Unmarshal(data, &want)
		if werr == nil {
			werr = want.Validate()
		}
		if (err != nil) != (werr != nil) {
			t.Fatalf("DecodeTrigger err = %v, encoding/json err = %v\ninput: %q", err, werr, data)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(tr, want) {
			t.Fatalf("DecodeTrigger = %+v\nencoding/json = %+v\ninput: %q", tr, want, data)
		}
		b, err := tr.Encode()
		wantB, werr := json.Marshal(tr)
		if (err != nil) != (werr != nil) || !bytes.Equal(b, wantB) {
			t.Fatalf("Encode = %s, %v\nencoding/json = %s, %v", b, err, wantB, werr)
		}
		if err != nil {
			t.Fatalf("accepted trigger does not re-encode: %v\ninput: %q", err, data)
		}
		if _, err := DecodeTrigger(b); err != nil {
			t.Fatalf("re-encoded trigger does not decode: %v\nencoded: %s", err, b)
		}
	})
}

// TestCodecTimeZones covers times the fuzzers cannot build by decoding:
// zone offsets, offsets of a whole day and with seconds, the zero time and
// years on both sides of the RFC 3339 range.
func TestCodecTimeZones(t *testing.T) {
	for _, at := range []time.Time{
		time.Date(2014, 12, 8, 9, 0, 0, 1, time.FixedZone("", 3600)),
		time.Date(2014, 12, 8, 9, 0, 0, 0, time.FixedZone("", -(9*3600+30*60))),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2014, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2014, 1, 1, 0, 0, 0, 0, time.FixedZone("", -24*3600)),
		time.Date(2014, 1, 1, 0, 0, 0, 0, time.FixedZone("", 3600+59)),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		{},
	} {
		it := canonicalItems()["pooled"]
		it.Time = at
		b, err := it.Encode()
		wantB, werr := json.Marshal(it)
		if (err != nil) != (werr != nil) || !bytes.Equal(b, wantB) {
			t.Fatalf("%v: Encode = %s, %v; encoding/json = %s, %v", at, b, err, wantB, werr)
		}
		if err != nil {
			continue
		}
		got, err := DecodeItem(b)
		var want Item
		if werr := json.Unmarshal(b, &want); err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: DecodeItem = %+v, %v; encoding/json = %+v, %v", at, got, err, want, werr)
		}
	}
}
