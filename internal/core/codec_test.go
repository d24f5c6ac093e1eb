package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/osn"
	"repro/internal/race"
)

// codecTime is a sample time with nanoseconds, as devices stamp items.
var codecTime = time.Unix(1400000000, 123456789).UTC()

// accelWindow is a raw accelerometer window in the device upload form: a
// JSON object of fixed-point integer arrays.
func accelWindow() []byte {
	var b strings.Builder
	b.WriteString(`{"rate_hz":50`)
	for _, axis := range []string{"x", "y", "z"} {
		b.WriteString(`,"` + axis + `":[`)
		for i := 0; i < 50; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString([]string{"-9981", "0", "10234", "-17", "4"}[i%5])
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return []byte(b.String())
}

// canonicalItems are the item shapes that cross the broker: the
// end-to-end benchmark's three classes (a classified activity with context,
// a raw accelerometer window, a raw location fix), the pooled fleet's
// classified item, and an OSN-coupled item carrying its action.
func canonicalItems() map[string]Item {
	return map[string]Item{
		"activity": {
			StreamID: "activity-00042", DeviceID: "d00042", UserID: "u00042",
			Modality: "accelerometer", Granularity: GranularityClassified, Time: codecTime,
			Classified: "walking",
			Context:    Context{CtxPlace: "Paris", CtxAudioEnvironment: "silent"},
		},
		"accel": {
			StreamID: "accel-00042", DeviceID: "d00042", UserID: "u00042",
			Modality: "accelerometer", Granularity: GranularityRaw, Time: codecTime,
			Raw: accelWindow(),
		},
		"fix": {
			StreamID: "fix-00042", DeviceID: "d00042", UserID: "u00042",
			Modality: "location", Granularity: GranularityRaw, Time: codecTime,
			Raw: []byte(`{"lat":48.85661,"lon":2.35222,"accuracy_m":12,"fix_seconds":3.4}`),
		},
		"pooled": {
			StreamID: "pool-activity", DeviceID: "pool000042-phone", UserID: "pool000042",
			Modality: "accelerometer", Granularity: GranularityClassified,
			Time: time.Unix(1400003600, 0).UTC(), Classified: "still",
		},
		"action": {
			StreamID: "social", DeviceID: "alice-phone", UserID: "alice",
			Modality: "microphone", Granularity: GranularityClassified, Time: codecTime,
			Classified: "noisy", Context: Context{Key("bob", CtxPhysicalActivity): "running"},
			Action: &osn.Action{ID: "facebook-7", Network: "facebook", UserID: "alice",
				Type: osn.ActionPost, Text: "out for a run", Time: codecTime},
			AggregateID: "agg-1",
		},
	}
}

// canonicalTriggers are the trigger kinds the server sends.
func canonicalTriggers() map[string]Trigger {
	return map[string]Trigger{
		"sense": {Kind: TriggerSense, DeviceID: "d00042", Action: &osn.Action{
			ID: "w00042", Network: "facebook", UserID: "u00042", Type: osn.ActionComment,
			Text: "see you at the station", Time: codecTime}},
		"config": {Kind: TriggerConfig, DeviceID: "d00042",
			ConfigXML: []byte(`<streams><stream id="s1" modality="wifi"/></streams>`)},
		"remove": {Kind: TriggerRemove, DeviceID: "d00042", StreamIDs: []string{"s1", "s2"}},
		"notify": {Kind: TriggerNotify, DeviceID: "d00042", Message: "Bob is nearby"},
	}
}

// TestCodecFastPathMatchesEncodingJSON pins that every canonical shape takes
// the fast path in both directions and that the fast path writes and reads
// exactly what encoding/json does.
func TestCodecFastPathMatchesEncodingJSON(t *testing.T) {
	for name, it := range canonicalItems() {
		want, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendItem(&it)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("item %s: fast encode (ok %v)\n%s\nwant\n%s", name, ok, got, want)
		}
		var wantItem Item
		if err := json.Unmarshal(want, &wantItem); err != nil {
			t.Fatal(err)
		}
		if gotItem, ok := decodeItem(want); !ok || !reflect.DeepEqual(gotItem, wantItem) {
			t.Errorf("item %s: fast decode (ok %v) = %+v, want %+v", name, ok, gotItem, wantItem)
		}
	}
	for name, tr := range canonicalTriggers() {
		want, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendTrigger(&tr)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("trigger %s: fast encode (ok %v)\n%s\nwant\n%s", name, ok, got, want)
		}
		var wantTrigger Trigger
		if err := json.Unmarshal(want, &wantTrigger); err != nil {
			t.Fatal(err)
		}
		if gotTrigger, ok := decodeTrigger(want); !ok || !reflect.DeepEqual(gotTrigger, wantTrigger) {
			t.Errorf("trigger %s: fast decode (ok %v) = %+v, want %+v", name, ok, gotTrigger, wantTrigger)
		}
	}
}

// TestCodecFallsBack pins inputs the fast path must leave to encoding/json,
// each of which still decodes or encodes exactly as encoding/json does.
func TestCodecFallsBack(t *testing.T) {
	base := canonicalItems()["activity"]
	for name, mutate := range map[string]func(*Item){
		"html in a string":   func(it *Item) { it.Classified = "<b>" },
		"non-ASCII string":   func(it *Item) { it.UserID = "zoë" },
		"quote in a key":     func(it *Item) { it.Context = Context{`a"b`: "x"} },
		"raw with space":     func(it *Item) { it.Raw = []byte(`{"a": 1}`) },
		"raw with ampersand": func(it *Item) { it.Raw = []byte(`"a&b"`) },
		"raw with escape":    func(it *Item) { it.Raw = []byte(`{"a":"\u0041"}`) },
		"year 10000":         func(it *Item) { it.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
	} {
		it := base
		mutate(&it)
		if _, ok := appendItem(&it); ok {
			t.Errorf("%s: fast encode accepted %+v", name, it)
		}
		got, err := it.Encode()
		want, werr := json.Marshal(it)
		if (err != nil) != (werr != nil) || !bytes.Equal(got, want) {
			t.Errorf("%s: Encode = %s, %v; encoding/json = %s, %v", name, got, err, want, werr)
		}
	}
	canonical, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]string{
		"whitespace":     strings.Replace(string(canonical), `:"walking"`, `: "walking"`, 1),
		"escape":         strings.Replace(string(canonical), `"walking"`, `"walk\u0069ng"`, 1),
		"non-ASCII":      strings.Replace(string(canonical), `"Paris"`, `"Zürich"`, 1),
		"upper-case key": strings.Replace(string(canonical), `"classified":`, `"Classified":`, 1),
		"null context":   strings.Replace(string(canonical), `"context":{"audio_environment":"silent","place":"Paris"}`, `"context":null`, 1),
		"unsorted keys":  strings.Replace(string(canonical), `"audio_environment":"silent","place":"Paris"`, `"place":"Paris","audio_environment":"silent"`, 1),
		"empty context":  strings.Replace(string(canonical), `{"audio_environment":"silent","place":"Paris"}`, `{}`, 1),
		"trailing space": string(canonical) + " ",
	} {
		if _, ok := decodeItem([]byte(in)); ok {
			t.Errorf("%s: fast decode accepted %s", name, in)
		}
		got, err := DecodeItem([]byte(in))
		var want Item
		werr := json.Unmarshal([]byte(in), &want)
		if werr != nil {
			want = Item{}
		}
		if (err != nil) != (werr != nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DecodeItem = %+v, %v; encoding/json = %+v, %v", name, got, err, want, werr)
		}
	}
}

// TestCodecAllocs pins the fast path's allocations, so a change that sends
// a canonical shape to encoding/json fails here even though every equality
// test would stay green.
func TestCodecAllocs(t *testing.T) {
	items := canonicalItems()
	for name, it := range items {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := it.Encode(); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("Item.Encode(%s): %.1f allocs, want <= 1", name, n)
		}
	}
	// A classified item with context: three ids, the label, the map and its
	// two values; modality, granularity and context keys are interned.
	activity, err := items["activity"].Encode()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeItem(activity); err != nil {
			t.Fatal(err)
		}
	}); n > 10 {
		t.Errorf("DecodeItem(activity): %.1f allocs, want <= 10", n)
	}
	for name, bound := range map[string]float64{"sense": 1, "config": 1, "remove": 1, "notify": 1} {
		tr := canonicalTriggers()[name]
		if n := testing.AllocsPerRun(200, func() {
			if _, err := tr.Encode(); err != nil {
				t.Fatal(err)
			}
		}); n > bound {
			t.Errorf("Trigger.Encode(%s): %.1f allocs, want <= %.0f", name, n, bound)
		}
	}
	for name, bound := range map[string]float64{"sense": 5, "config": 2, "remove": 5, "notify": 2} {
		b, err := canonicalTriggers()[name].Encode()
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := DecodeTrigger(b); err != nil {
				t.Fatal(err)
			}
		}); n > bound {
			t.Errorf("DecodeTrigger(%s): %.1f allocs, want <= %.0f", name, n, bound)
		}
	}
}

// fallbackItems are realistic items the fast path declines: OSN action
// text with an ampersand, and a non-ASCII user id.
func fallbackItems() map[string]Item {
	amp := canonicalItems()["action"]
	a := *amp.Action
	a.Text = "fish & chips"
	amp.Action = &a
	accented := canonicalItems()["activity"]
	accented.UserID, accented.StreamID = "zoë", "activity-zoë"
	return map[string]Item{"ampersand": amp, "non-ASCII": accented}
}

// TestCodecFallbackCostsNoMore pins that an item the fast path declines
// costs no more allocations than encoding/json alone: itemLen and
// escapeFree decline before anything is allocated or copied.
// BenchmarkItemCodec shows the time.
func TestCodecFallbackCostsNoMore(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool puts")
	}
	for name, it := range fallbackItems() {
		want := testing.AllocsPerRun(200, func() {
			if _, err := json.Marshal(it); err != nil {
				t.Fatal(err)
			}
		})
		if n := testing.AllocsPerRun(200, func() {
			if _, err := it.Encode(); err != nil {
				t.Fatal(err)
			}
		}); n > want {
			t.Errorf("Item.Encode(%s): %.1f allocs, encoding/json %.1f", name, n, want)
		}
		b, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		want = testing.AllocsPerRun(200, func() {
			var it Item
			if err := json.Unmarshal(b, &it); err != nil {
				t.Fatal(err)
			}
		})
		if n := testing.AllocsPerRun(200, func() {
			if _, err := DecodeItem(b); err != nil {
				t.Fatal(err)
			}
		}); n > want {
			t.Errorf("DecodeItem(%s): %.1f allocs, encoding/json %.1f", name, n, want)
		}
	}
}

// BenchmarkItemCodec times Item.Encode and DecodeItem beside encoding/json
// on the canonical shapes and on the fallback ones, where the two should
// take the same time:
//
//	go test -run '^$' -bench ItemCodec -benchmem ./internal/core
func BenchmarkItemCodec(b *testing.B) {
	shapes := canonicalItems()
	for name, it := range fallbackItems() {
		shapes["fallback-"+name] = it
	}
	for name, it := range shapes {
		enc, err := json.Marshal(it)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := it.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/encode-json", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(it); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DecodeItem(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/decode-json", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var it Item
				if err := json.Unmarshal(enc, &it); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
