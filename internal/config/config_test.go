package config

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

func sampleConfigs() []core.StreamConfig {
	return []core.StreamConfig{
		{
			ID: "s1", DeviceID: "dev1", UserID: "alice",
			Modality: "location", Granularity: core.GranularityClassified,
			Kind: core.KindContinuous, SampleInterval: time.Minute, DutyCycle: 0.5,
			Deliver: core.DeliverServer,
			Filter: core.Filter{Conditions: []core.Condition{
				{Modality: core.CtxPhysicalActivity, Operator: core.OpEquals, Value: "walking"},
				{Modality: core.CtxPlace, Operator: core.OpEquals, Value: "Paris", UserID: "carol"},
			}},
		},
		{
			ID: "s2", DeviceID: "dev1",
			Modality: "accelerometer", Granularity: core.GranularityRaw,
			Kind: core.KindSocialEvent, Deliver: core.DeliverLocal,
		},
	}
}

func TestStreamsRoundTrip(t *testing.T) {
	in := sampleConfigs()
	data, err := EncodeStreams(in)
	if err != nil {
		t.Fatalf("EncodeStreams: %v", err)
	}
	if !strings.Contains(string(data), "<streams>") {
		t.Fatalf("unexpected XML: %s", data)
	}
	out, err := DecodeStreams(data)
	if err != nil {
		t.Fatalf("DecodeStreams: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d streams", len(out))
	}
	if out[0].ID != "s1" || out[0].SampleInterval != time.Minute || out[0].DutyCycle != 0.5 {
		t.Fatalf("s1 = %+v", out[0])
	}
	if len(out[0].Filter.Conditions) != 2 {
		t.Fatalf("s1 conditions = %+v", out[0].Filter.Conditions)
	}
	if out[0].Filter.Conditions[1].UserID != "carol" {
		t.Fatal("cross-user condition lost")
	}
	if out[1].Kind != core.KindSocialEvent || out[1].SampleInterval != 0 {
		t.Fatalf("s2 = %+v", out[1])
	}
}

// marshalStreams is the reflection encoder EncodeStreams replaced: the
// xmlStreams document through xml.MarshalIndent. It is the reference the
// direct writer must reproduce byte for byte.
func marshalStreams(t *testing.T, configs []core.StreamConfig) []byte {
	t.Helper()
	doc := xmlStreams{}
	for _, c := range configs {
		xs := xmlStream{
			ID: c.ID, DeviceID: c.DeviceID, UserID: c.UserID, Modality: c.Modality,
			Granularity: string(c.Granularity), Kind: string(c.Kind),
			DutyCycle: c.DutyCycle, Deliver: string(c.Deliver),
		}
		if c.SampleInterval > 0 {
			xs.SampleIntervalSec = c.SampleInterval.Seconds()
		}
		for _, cond := range c.Filter.Conditions {
			xs.Conditions = append(xs.Conditions, xmlCondition{
				Modality: cond.Modality, Operator: string(cond.Operator),
				Value: cond.Value, UserID: cond.UserID,
			})
		}
		doc.Streams = append(doc.Streams, xs)
	}
	b, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("xml.MarshalIndent: %v", err)
	}
	return append([]byte(xml.Header), b...)
}

// TestEncodeStreamsMatchesEncodingXML pins EncodeStreams to the bytes
// encoding/xml writes for the same document: config triggers and stream
// journals must not change with the encoder. The cases cover every escape
// encoding/xml makes in an attribute, omitempty floats at zero and at
// values 'g' formatting treats specially, and streams with no conditions.
func TestEncodeStreamsMatchesEncodingXML(t *testing.T) {
	cond := func(mod, val, user string) core.Condition {
		return core.Condition{Modality: mod, Operator: core.OpEquals, Value: val, UserID: user}
	}
	odd := []string{
		`a&b`, `<tag>`, `say "hi"`, "it's", "tab\there", "line\nbreak", "cr\rlf",
		"caf\u00e9", "\u4e16\u754c", "bad\xffutf8", "ctl\x01x", "\ufffd", "del\x7f", "&amp;",
	}
	cases := map[string][]core.StreamConfig{
		"none":   nil,
		"empty":  {},
		"sample": sampleConfigs(),
		"no conditions, zero floats": {{
			ID: "s", DeviceID: "d", Modality: "wifi", Granularity: core.GranularityRaw,
			Kind: core.KindSocialEvent, Deliver: core.DeliverLocal,
		}},
		"fractional floats": {{
			ID: "f", DeviceID: "d", Modality: "wifi", Granularity: core.GranularityRaw,
			Kind: core.KindContinuous, SampleInterval: 1500 * time.Millisecond, DutyCycle: 1.0 / 3,
			Deliver: core.DeliverServer,
		}, {
			ID: "g", DeviceID: "d", Modality: "wifi", Granularity: core.GranularityRaw,
			Kind: core.KindContinuous, SampleInterval: time.Nanosecond, DutyCycle: 1e-7,
			Deliver: core.DeliverServer,
		}, {
			ID: "h", DeviceID: "d", Modality: "wifi", Granularity: core.GranularityRaw,
			Kind: core.KindContinuous, SampleInterval: 1 << 62, DutyCycle: 1,
			Deliver: core.DeliverServer,
		}},
	}
	for i, s := range odd {
		cases[fmt.Sprintf("escape %d", i)] = []core.StreamConfig{{
			ID: "id " + s, DeviceID: s, UserID: s, Modality: "location",
			Granularity: core.GranularityClassified, Kind: core.KindSocialEvent,
			Deliver: core.DeliverServer,
			Filter: core.Filter{Conditions: []core.Condition{
				cond(core.CtxPlace, s, ""), cond(core.CtxPlace, "v", s),
			}},
		}}
	}
	for name, configs := range cases {
		got, err := EncodeStreams(configs)
		if err != nil {
			t.Fatalf("%s: EncodeStreams: %v", name, err)
		}
		if want := marshalStreams(t, configs); !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeStreams differs from encoding/xml\n got: %q\nwant: %q", name, got, want)
		}
	}
}

func TestEncodeRejectsInvalidConfig(t *testing.T) {
	bad := sampleConfigs()
	bad[0].Modality = "gyroscope"
	if _, err := EncodeStreams(bad); err == nil {
		t.Fatal("invalid config encoded")
	}
}

func TestDecodeRejectsInvalidXML(t *testing.T) {
	if _, err := DecodeStreams([]byte("<streams><stream")); err == nil {
		t.Fatal("malformed XML accepted")
	}
}

func TestDecodeRejectsInvalidConfig(t *testing.T) {
	xmlDoc := `<streams>
  <stream id="s1" device="d" modality="location" granularity="vague" kind="continuous" sampleIntervalSec="60" deliver="local"></stream>
</streams>`
	if _, err := DecodeStreams([]byte(xmlDoc)); err == nil {
		t.Fatal("invalid granularity accepted")
	}
}

func TestDecodeRejectsDuplicateIDs(t *testing.T) {
	in := sampleConfigs()
	in[1].ID = "s1"
	in[1].Filter = core.Filter{}
	// Encode both manually via two single-item docs spliced together is
	// awkward; instead check the decoder directly.
	xmlDoc := `<streams>
  <stream id="dup" device="d" modality="location" granularity="raw" kind="social-event" deliver="local"></stream>
  <stream id="dup" device="d" modality="wifi" granularity="raw" kind="social-event" deliver="local"></stream>
</streams>`
	if _, err := DecodeStreams([]byte(xmlDoc)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v", err)
	}
}

func TestMergeStreamsReplaceAndAppend(t *testing.T) {
	existing := sampleConfigs()
	updated := existing[0]
	updated.SampleInterval = 5 * time.Minute
	fresh := core.StreamConfig{
		ID: "s3", DeviceID: "dev1", Modality: "microphone",
		Granularity: core.GranularityClassified, Kind: core.KindSocialEvent,
		Deliver: core.DeliverServer,
	}
	merged := MergeStreams(existing, []core.StreamConfig{updated, fresh})
	if len(merged) != 3 {
		t.Fatalf("merged %d streams", len(merged))
	}
	if merged[0].ID != "s1" || merged[0].SampleInterval != 5*time.Minute {
		t.Fatalf("replacement failed: %+v", merged[0])
	}
	if merged[1].ID != "s2" {
		t.Fatal("untouched stream lost")
	}
	if merged[2].ID != "s3" {
		t.Fatal("new stream not appended")
	}
}

func TestMergeStreamsIdempotent(t *testing.T) {
	existing := sampleConfigs()
	once := MergeStreams(existing, existing)
	twice := MergeStreams(once, existing)
	if len(once) != len(existing) || len(twice) != len(existing) {
		t.Fatalf("merge not idempotent: %d then %d", len(once), len(twice))
	}
}

func TestRemoveStream(t *testing.T) {
	configs := sampleConfigs()
	out, found := RemoveStream(configs, "s1")
	if !found || len(out) != 1 || out[0].ID != "s2" {
		t.Fatalf("RemoveStream = %v, %v", out, found)
	}
	out, found = RemoveStream(out, "ghost")
	if found || len(out) != 1 {
		t.Fatalf("RemoveStream(ghost) = %v, %v", out, found)
	}
}

func TestPrivacyRoundTrip(t *testing.T) {
	in := []core.PrivacyPolicy{
		{Modality: "location", AllowRaw: false, AllowClassified: true},
		{Modality: "accelerometer", AllowRaw: true, AllowClassified: true},
	}
	data, err := EncodePrivacy(in)
	if err != nil {
		t.Fatalf("EncodePrivacy: %v", err)
	}
	out, err := DecodePrivacy(data)
	if err != nil {
		t.Fatalf("DecodePrivacy: %v", err)
	}
	if len(out) != 2 || out[0].Modality != "location" || out[0].AllowRaw || !out[0].AllowClassified {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestPrivacyValidation(t *testing.T) {
	if _, err := EncodePrivacy([]core.PrivacyPolicy{{Modality: ""}}); err == nil {
		t.Fatal("empty modality accepted")
	}
	if _, err := EncodePrivacy([]core.PrivacyPolicy{
		{Modality: "x"}, {Modality: "x"},
	}); err == nil {
		t.Fatal("duplicate policies accepted")
	}
	if _, err := DecodePrivacy([]byte("<privacy")); err == nil {
		t.Fatal("malformed XML accepted")
	}
	dup := `<privacyPolicyDescriptor>
  <policy modality="x" allowRaw="true" allowClassified="false"/>
  <policy modality="x" allowRaw="true" allowClassified="false"/>
</privacyPolicyDescriptor>`
	if _, err := DecodePrivacy([]byte(dup)); err == nil {
		t.Fatal("duplicate decoded policies accepted")
	}
	empty := `<privacyPolicyDescriptor><policy modality="" /></privacyPolicyDescriptor>`
	if _, err := DecodePrivacy([]byte(empty)); err == nil {
		t.Fatal("empty decoded modality accepted")
	}
}

// Property: encode/decode of generated valid configs is lossless for the
// fields that matter.
func TestPropertyStreamsRoundTrip(t *testing.T) {
	modalities := []string{"accelerometer", "microphone", "location", "wifi", "bluetooth"}
	grans := []core.Granularity{core.GranularityRaw, core.GranularityClassified}
	f := func(modPick, granPick, intervalSec uint8, duty float64) bool {
		interval := time.Duration(int(intervalSec)%600+1) * time.Second
		if duty < 0 || duty > 1 || duty != duty {
			duty = 1
		}
		in := []core.StreamConfig{{
			ID:             "p1",
			DeviceID:       "dev",
			Modality:       modalities[int(modPick)%len(modalities)],
			Granularity:    grans[int(granPick)%len(grans)],
			Kind:           core.KindContinuous,
			SampleInterval: interval,
			DutyCycle:      duty,
			Deliver:        core.DeliverLocal,
		}}
		data, err := EncodeStreams(in)
		if err != nil {
			return false
		}
		out, err := DecodeStreams(data)
		if err != nil || len(out) != 1 {
			return false
		}
		got := out[0]
		return got.Modality == in[0].Modality &&
			got.Granularity == in[0].Granularity &&
			got.SampleInterval == in[0].SampleInterval
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: DecodeStreams and DecodePrivacy never panic on arbitrary bytes.
func TestPropertyDecodersRobust(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeStreams(data)
		_, _ = DecodePrivacy(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: MergeStreams preserves every incoming config and never loses
// an existing id.
func TestPropertyMergePreservesIDs(t *testing.T) {
	mk := func(ids []uint8) []core.StreamConfig {
		var out []core.StreamConfig
		seen := map[string]bool{}
		for _, id := range ids {
			name := fmt.Sprintf("s%d", id%16)
			if seen[name] {
				continue
			}
			seen[name] = true
			out = append(out, core.StreamConfig{
				ID: name, DeviceID: "d", Modality: "wifi",
				Granularity: core.GranularityRaw, Kind: core.KindSocialEvent,
				Deliver: core.DeliverLocal,
			})
		}
		return out
	}
	f := func(a, b []uint8) bool {
		existing, incoming := mk(a), mk(b)
		merged := MergeStreams(existing, incoming)
		ids := map[string]bool{}
		for _, c := range merged {
			if ids[c.ID] {
				return false // duplicates must never appear
			}
			ids[c.ID] = true
		}
		for _, c := range existing {
			if !ids[c.ID] {
				return false
			}
		}
		for _, c := range incoming {
			if !ids[c.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
