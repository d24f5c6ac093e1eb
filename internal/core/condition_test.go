package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConditionValidate(t *testing.T) {
	good := []Condition{
		{Modality: CtxPhysicalActivity, Operator: OpEquals, Value: "walking"},
		{Modality: CtxTimeOfDay, Operator: OpGTE, Value: "09:30"},
		{Modality: CtxFacebookActivity, Operator: OpEquals, Value: OSNActive},
		{Modality: CtxPlace, Operator: OpEquals, Value: "Paris", UserID: "other"},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []Condition{
		{Modality: "heart_rate", Operator: OpEquals, Value: "x"},
		{Modality: CtxPlace, Operator: Operator("matches"), Value: "x"},
		{Modality: CtxPlace, Operator: OpEquals, Value: "  "},
		{Modality: CtxTimeOfDay, Operator: OpGT, Value: "25:99"},
		{Modality: CtxTimeOfDay, Operator: OpGT, Value: "sometime"},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
}

func TestConditionEvalEquals(t *testing.T) {
	c := Condition{Modality: CtxPhysicalActivity, Operator: OpEquals, Value: "walking"}
	if !c.Eval(Context{CtxPhysicalActivity: "walking"}) {
		t.Fatal("exact match failed")
	}
	if !c.Eval(Context{CtxPhysicalActivity: "Walking"}) {
		t.Fatal("case-insensitive match failed")
	}
	if c.Eval(Context{CtxPhysicalActivity: "running"}) {
		t.Fatal("mismatch matched")
	}
	if c.Eval(Context{}) {
		t.Fatal("missing context matched equals")
	}
}

func TestConditionEvalNotEquals(t *testing.T) {
	c := Condition{Modality: CtxPlace, Operator: OpNotEquals, Value: "Paris"}
	if !c.Eval(Context{CtxPlace: "Bordeaux"}) {
		t.Fatal("different value failed not_equals")
	}
	if c.Eval(Context{CtxPlace: "Paris"}) {
		t.Fatal("equal value passed not_equals")
	}
	if !c.Eval(Context{}) {
		t.Fatal("missing context should satisfy not_equals")
	}
}

func TestConditionEvalContains(t *testing.T) {
	c := Condition{Modality: CtxPlace, Operator: OpContains, Value: "par"}
	if !c.Eval(Context{CtxPlace: "Paris"}) {
		t.Fatal("substring failed")
	}
	if c.Eval(Context{CtxPlace: "Lyon"}) {
		t.Fatal("non-substring matched")
	}
}

func TestConditionEvalTimeOfDay(t *testing.T) {
	morning := Condition{Modality: CtxTimeOfDay, Operator: OpLT, Value: "12:00"}
	if !morning.Eval(Context{CtxTimeOfDay: "09:30"}) {
		t.Fatal("09:30 < 12:00 failed")
	}
	if morning.Eval(Context{CtxTimeOfDay: "14:00"}) {
		t.Fatal("14:00 < 12:00 passed")
	}
	gte := Condition{Modality: CtxTimeOfDay, Operator: OpGTE, Value: "09:30"}
	if !gte.Eval(Context{CtxTimeOfDay: "09:30"}) {
		t.Fatal("boundary gte failed")
	}
	// Malformed runtime value fails closed.
	if morning.Eval(Context{CtxTimeOfDay: "noonish"}) {
		t.Fatal("malformed time matched")
	}
}

func TestConditionEvalNumericOrdering(t *testing.T) {
	c := Condition{Modality: CtxBTSocial, Operator: OpGT, Value: "3"}
	if !c.Eval(Context{CtxBTSocial: "10"}) {
		t.Fatal("10 > 3 failed (numeric, not lexical)")
	}
	if c.Eval(Context{CtxBTSocial: "2"}) {
		t.Fatal("2 > 3 passed")
	}
}

func TestConditionEvalCrossUser(t *testing.T) {
	c := Condition{Modality: CtxPhysicalActivity, Operator: OpEquals, Value: "walking", UserID: "bob"}
	ctx := Context{
		CtxPhysicalActivity:             "still",
		Key("bob", CtxPhysicalActivity): "walking",
	}
	if !c.Eval(ctx) {
		t.Fatal("cross-user condition failed")
	}
	own := Condition{Modality: CtxPhysicalActivity, Operator: OpEquals, Value: "walking"}
	if own.Eval(ctx) {
		t.Fatal("own-user condition read another user's value")
	}
	// EvalValue is Eval for a caller that looked the value up itself.
	if !c.EvalValue("Walking", true) || c.EvalValue("still", true) || c.EvalValue("", false) {
		t.Fatal("EvalValue disagrees with Eval on a present or a missing value")
	}
}

func TestFilterEvalConjunction(t *testing.T) {
	f, err := NewFilter(
		Condition{Modality: CtxPhysicalActivity, Operator: OpEquals, Value: "walking"},
		Condition{Modality: CtxPlace, Operator: OpEquals, Value: "Paris"},
	)
	if err != nil {
		t.Fatalf("NewFilter: %v", err)
	}
	if !f.Eval(Context{CtxPhysicalActivity: "walking", CtxPlace: "Paris"}) {
		t.Fatal("both-true failed")
	}
	if f.Eval(Context{CtxPhysicalActivity: "walking", CtxPlace: "Lyon"}) {
		t.Fatal("one-false passed")
	}
	if !(Filter{}).Eval(Context{}) {
		t.Fatal("empty filter must pass everything")
	}
	if !(Filter{}).Empty() {
		t.Fatal("Empty() on empty filter")
	}
}

func TestNewFilterValidates(t *testing.T) {
	if _, err := NewFilter(Condition{Modality: "junk", Operator: OpEquals, Value: "x"}); err == nil {
		t.Fatal("invalid condition accepted")
	}
}

func TestFilterRequiredSensors(t *testing.T) {
	f, err := NewFilter(
		Condition{Modality: CtxPhysicalActivity, Operator: OpEquals, Value: "walking"},
		Condition{Modality: CtxAudioEnvironment, Operator: OpEquals, Value: "silent"},
		Condition{Modality: CtxPhysicalActivity, Operator: OpNotEquals, Value: "running"}, // dup sensor
		Condition{Modality: CtxTimeOfDay, Operator: OpLT, Value: "12:00"},                 // no sensor
		Condition{Modality: CtxFacebookActivity, Operator: OpEquals, Value: OSNActive},    // no sensor
		Condition{Modality: CtxPlace, Operator: OpEquals, Value: "Paris", UserID: "bob"},  // cross-user
	)
	if err != nil {
		t.Fatalf("NewFilter: %v", err)
	}
	got, err := f.RequiredSensors()
	if err != nil {
		t.Fatalf("RequiredSensors: %v", err)
	}
	want := map[string]bool{"accelerometer": true, "microphone": true}
	if len(got) != len(want) {
		t.Fatalf("RequiredSensors = %v", got)
	}
	for _, s := range got {
		if !want[s] {
			t.Fatalf("unexpected sensor %q", s)
		}
	}
	if !f.HasCrossUser() {
		t.Fatal("HasCrossUser = false")
	}
}

func TestFilterMergeDeduplicates(t *testing.T) {
	c1 := Condition{Modality: CtxPlace, Operator: OpEquals, Value: "Paris"}
	c2 := Condition{Modality: CtxTimeOfDay, Operator: OpLT, Value: "12:00"}
	a := Filter{Conditions: []Condition{c1}}
	b := Filter{Conditions: []Condition{c1, c2}}
	m := a.Merge(b)
	if len(m.Conditions) != 2 {
		t.Fatalf("merged = %v", m.Conditions)
	}
}

func TestSensorContextMappingsRoundTrip(t *testing.T) {
	for _, ctxMod := range ContextModalities() {
		s, err := SensorForContext(ctxMod)
		if err != nil {
			t.Fatalf("SensorForContext(%s): %v", ctxMod, err)
		}
		if s == "" {
			continue
		}
		back, err := ContextForSensor(s)
		if err != nil {
			t.Fatalf("ContextForSensor(%s): %v", s, err)
		}
		if back != ctxMod {
			t.Fatalf("round trip %s -> %s -> %s", ctxMod, s, back)
		}
	}
	if _, err := SensorForContext("junk"); err == nil {
		t.Fatal("unknown context modality accepted")
	}
	if _, err := ContextForSensor("junk"); err == nil {
		t.Fatal("unknown sensor modality accepted")
	}
}

func TestParseClockBounds(t *testing.T) {
	cases := map[string]bool{
		"00:00": true, "23:59": true, "09:30": true,
		"24:00": false, "12:60": false, "12": false, "ab:cd": false, "1:2:3": false,
	}
	for s, ok := range cases {
		_, err := parseClock(s)
		if (err == nil) != ok {
			t.Errorf("parseClock(%q) err = %v, want ok=%v", s, err, ok)
		}
	}
	if FormatClock(9, 5) != "09:05" {
		t.Fatalf("FormatClock = %q", FormatClock(9, 5))
	}
}

// Property: for any context value, exactly one of equals/not_equals holds.
func TestPropertyEqualsComplement(t *testing.T) {
	f := func(v, w string) bool {
		if strings.TrimSpace(w) == "" {
			return true
		}
		eq := Condition{Modality: CtxPlace, Operator: OpEquals, Value: w}
		ne := Condition{Modality: CtxPlace, Operator: OpNotEquals, Value: w}
		ctx := Context{CtxPlace: v}
		return eq.Eval(ctx) != ne.Eval(ctx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: filter conjunction is order-insensitive.
func TestPropertyFilterOrderInsensitive(t *testing.T) {
	f := func(act, place uint8) bool {
		acts := []string{"still", "walking", "running"}
		places := []string{"Paris", "Bordeaux", "Lyon"}
		ctx := Context{
			CtxPhysicalActivity: acts[int(act)%3],
			CtxPlace:            places[int(place)%3],
		}
		c1 := Condition{Modality: CtxPhysicalActivity, Operator: OpEquals, Value: "walking"}
		c2 := Condition{Modality: CtxPlace, Operator: OpEquals, Value: "Paris"}
		f1 := Filter{Conditions: []Condition{c1, c2}}
		f2 := Filter{Conditions: []Condition{c2, c1}}
		return f1.Eval(ctx) == f2.Eval(ctx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
