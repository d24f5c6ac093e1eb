package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/osn"
)

func validConfig() StreamConfig {
	return StreamConfig{
		ID:             "s1",
		DeviceID:       "dev1",
		Modality:       "accelerometer",
		Granularity:    GranularityClassified,
		Kind:           KindContinuous,
		SampleInterval: time.Minute,
		Deliver:        DeliverLocal,
	}
}

func TestStreamConfigValidate(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*StreamConfig)
	}{
		{"empty id", func(c *StreamConfig) { c.ID = " " }},
		{"bad modality", func(c *StreamConfig) { c.Modality = "gyroscope" }},
		{"bad granularity", func(c *StreamConfig) { c.Granularity = "fuzzy" }},
		{"bad kind", func(c *StreamConfig) { c.Kind = "sometimes" }},
		{"no interval", func(c *StreamConfig) { c.SampleInterval = 0 }},
		{"bad duty cycle", func(c *StreamConfig) { c.DutyCycle = 1.5 }},
		{"bad destination", func(c *StreamConfig) { c.Deliver = "cloud" }},
		{"bad filter", func(c *StreamConfig) {
			c.Filter = Filter{Conditions: []Condition{{Modality: "x", Operator: OpEquals, Value: "y"}}}
		}},
	}
	for _, m := range mutations {
		c := validConfig()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestSocialEventStreamNeedsNoInterval(t *testing.T) {
	c := validConfig()
	c.Kind = KindSocialEvent
	c.SampleInterval = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("social-event config rejected: %v", err)
	}
}

func TestEffectiveDutyCycle(t *testing.T) {
	c := validConfig()
	if c.EffectiveDutyCycle() != 1 {
		t.Fatalf("default duty cycle = %f", c.EffectiveDutyCycle())
	}
	c.DutyCycle = 0.25
	if c.EffectiveDutyCycle() != 0.25 {
		t.Fatalf("duty cycle = %f", c.EffectiveDutyCycle())
	}
}

func TestItemEncodeDecodeRoundTrip(t *testing.T) {
	at := time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)
	in := Item{
		StreamID:    "s1",
		DeviceID:    "dev1",
		UserID:      "alice",
		Modality:    "location",
		Granularity: GranularityClassified,
		Time:        at,
		Classified:  "Paris",
		Context:     Context{CtxPlace: "Paris"},
		Action: &osn.Action{
			ID: "facebook-1", Network: "facebook", UserID: "alice",
			Type: osn.ActionPost, Text: "hello", Time: at,
		},
	}
	b, err := in.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeItem(b)
	if err != nil {
		t.Fatalf("DecodeItem: %v", err)
	}
	if out.StreamID != in.StreamID || out.Classified != "Paris" ||
		out.Action == nil || out.Action.ID != "facebook-1" ||
		out.Context[CtxPlace] != "Paris" || !out.Time.Equal(at) {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestDecodeItemRejectsGarbage(t *testing.T) {
	if _, err := DecodeItem([]byte("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestHubRouting(t *testing.T) {
	h := NewHub()
	var mu sync.Mutex
	counts := map[string]int{}
	mk := func(name string) Listener {
		return ListenerFunc(func(Item) {
			mu.Lock()
			counts[name]++
			mu.Unlock()
		})
	}
	if err := h.Register("s1", mk("s1")); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := h.Register("s2", mk("s2")); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := h.Register(Wildcard, mk("all")); err != nil {
		t.Fatalf("Register: %v", err)
	}
	h.Publish(Item{StreamID: "s1"})
	h.Publish(Item{StreamID: "s1"})
	h.Publish(Item{StreamID: "s2"})
	mu.Lock()
	defer mu.Unlock()
	if counts["s1"] != 2 || counts["s2"] != 1 || counts["all"] != 3 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestHubUnregister(t *testing.T) {
	h := NewHub()
	n := 0
	if err := h.Register("s1", ListenerFunc(func(Item) { n++ })); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if h.ListenerCount("s1") != 1 {
		t.Fatalf("ListenerCount = %d", h.ListenerCount("s1"))
	}
	h.Unregister("s1")
	h.Publish(Item{StreamID: "s1"})
	if n != 0 {
		t.Fatal("unregistered listener invoked")
	}
}

func TestHubValidation(t *testing.T) {
	h := NewHub()
	if err := h.Register("", ListenerFunc(func(Item) {})); err == nil {
		t.Fatal("empty stream id accepted")
	}
	if err := h.Register("s", nil); err == nil {
		t.Fatal("nil listener accepted")
	}
}

func TestTriggerRoundTrip(t *testing.T) {
	tr := Trigger{
		Kind:      TriggerSense,
		DeviceID:  "dev1",
		StreamIDs: []string{"s1", "s2"},
		Action:    &osn.Action{ID: "fb-1", Network: "facebook", UserID: "alice", Type: osn.ActionLike, Time: time.Now().UTC()},
	}
	b, err := tr.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeTrigger(b)
	if err != nil {
		t.Fatalf("DecodeTrigger: %v", err)
	}
	if out.Kind != TriggerSense || out.DeviceID != "dev1" || len(out.StreamIDs) != 2 || out.Action.ID != "fb-1" {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestTriggerValidation(t *testing.T) {
	bad := []Trigger{
		{Kind: "explode", DeviceID: "d"},
		{Kind: TriggerSense, DeviceID: ""},
		{Kind: TriggerConfig, DeviceID: "d"}, // config without XML
	}
	for _, tr := range bad {
		if _, err := tr.Encode(); err == nil {
			t.Errorf("Encode(%+v) accepted", tr)
		}
	}
	if _, err := DecodeTrigger([]byte("junk")); err == nil {
		t.Fatal("garbage trigger accepted")
	}
	if _, err := DecodeTrigger([]byte(`{"kind":"sense","device_id":""}`)); err == nil {
		t.Fatal("invalid decoded trigger accepted")
	}
}

func TestTopicScheme(t *testing.T) {
	if got := DeviceTriggerTopic("dev1"); got != "sensocial/device/dev1/trigger" {
		t.Fatalf("DeviceTriggerTopic = %q", got)
	}
	if got := StreamDataTopic("dev1"); got != "sensocial/stream/dev1" {
		t.Fatalf("StreamDataTopic = %q", got)
	}
	if RegistryTopic() == "" || DeviceTriggerFilter() == "" || StreamDataFilter() == "" {
		t.Fatal("empty topic helpers")
	}
}

func TestEnumHelpers(t *testing.T) {
	if !ValidGranularity(GranularityRaw) || ValidGranularity("fuzzy") {
		t.Fatal("ValidGranularity wrong")
	}
	if !ValidStreamKind(KindSocialEvent) || ValidStreamKind("x") {
		t.Fatal("ValidStreamKind wrong")
	}
	if !ValidDestination(DeliverServer) || ValidDestination("x") {
		t.Fatal("ValidDestination wrong")
	}
	if !ValidTriggerKind(TriggerNotify) || ValidTriggerKind("x") {
		t.Fatal("ValidTriggerKind wrong")
	}
	if len(ContextModalities()) != 8 {
		t.Fatalf("ContextModalities = %v", ContextModalities())
	}
	for want, name := range ContextModalities() {
		if got, ok := ContextModalityIndex(name); !ok || got != want || !ValidContextModality(name) {
			t.Fatalf("ContextModalityIndex(%q) = %d, %v; want %d, its place in ContextModalities()", name, got, ok, want)
		}
	}
	if _, ok := ContextModalityIndex("mood"); ok || ValidContextModality("mood") || ValidContextModality("bob/place") {
		t.Fatal("a name outside the vocabulary has a modality index")
	}
}
