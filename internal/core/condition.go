package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Operator compares a context value against a condition value (paper §3.1:
// "each condition comprises of a modality, a comparison operator, and a
// value").
type Operator string

// Operators.
const (
	OpEquals    Operator = "equals"
	OpNotEquals Operator = "not_equals"
	OpContains  Operator = "contains"
	OpGT        Operator = "gt"
	OpGTE       Operator = "gte"
	OpLT        Operator = "lt"
	OpLTE       Operator = "lte"
)

// ValidOperator reports whether op is known.
func ValidOperator(op Operator) bool {
	switch op {
	case OpEquals, OpNotEquals, OpContains, OpGT, OpGTE, OpLT, OpLTE:
		return true
	default:
		return false
	}
}

// Condition is one clause of a filter. UserID is empty for conditions on
// the stream's own user; the server-side filter manager supports
// cross-user conditions ("one can create a filter that sends user's GPS
// data only when another user is walking") by setting UserID to the other
// user.
type Condition struct {
	Modality string   `json:"modality"`
	Operator Operator `json:"operator"`
	Value    string   `json:"value"`
	UserID   string   `json:"user_id,omitempty"`
}

// Validate checks the condition's vocabulary.
func (c Condition) Validate() error {
	if !ValidContextModality(c.Modality) {
		return fmt.Errorf("core: condition: unknown modality %q", c.Modality)
	}
	if !ValidOperator(c.Operator) {
		return fmt.Errorf("core: condition on %q: unknown operator %q", c.Modality, c.Operator)
	}
	if strings.TrimSpace(c.Value) == "" {
		return fmt.Errorf("core: condition on %q: empty value", c.Modality)
	}
	if c.Modality == CtxTimeOfDay {
		if _, err := parseClock(c.Value); err != nil {
			return fmt.Errorf("core: condition on %q: %w", c.Modality, err)
		}
	}
	return nil
}

// Context is a snapshot of classified context values keyed by context
// modality type, e.g. {"physical_activity": "walking", "place": "Paris"}.
// Cross-user values are keyed "userID/modality" by the server.
type Context map[string]string

// Key builds a cross-user context key.
func Key(userID, modality string) string {
	if userID == "" {
		return modality
	}
	return userID + "/" + modality
}

// Eval evaluates the condition against a context snapshot.
func (c Condition) Eval(ctx Context) bool {
	got, ok := ctx[Key(c.UserID, c.Modality)]
	return c.EvalValue(got, ok)
}

// EvalValue evaluates the condition against the current value of its
// modality, for callers that hold context in some other shape than a
// Context map; ok is false when there is none. A missing context value
// fails every operator except not_equals (which is satisfied vacuously: the
// value is certainly not equal).
func (c Condition) EvalValue(got string, ok bool) bool {
	if !ok {
		return c.Operator == OpNotEquals
	}
	switch c.Operator {
	case OpEquals:
		return strings.EqualFold(got, c.Value)
	case OpNotEquals:
		return !strings.EqualFold(got, c.Value)
	case OpContains:
		return strings.Contains(strings.ToLower(got), strings.ToLower(c.Value))
	case OpGT, OpGTE, OpLT, OpLTE:
		return evalOrdered(c.Operator, got, c.Value, c.Modality == CtxTimeOfDay)
	default:
		return false
	}
}

func evalOrdered(op Operator, got, want string, isClock bool) bool {
	var cmp int
	if isClock {
		g, errG := parseClock(got)
		w, errW := parseClock(want)
		if errG != nil || errW != nil {
			return false
		}
		cmp = g - w
	} else if gf, errG := strconv.ParseFloat(got, 64); errG == nil {
		wf, errW := strconv.ParseFloat(want, 64)
		if errW != nil {
			return false
		}
		switch {
		case gf < wf:
			cmp = -1
		case gf > wf:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(got, want)
	}
	switch op {
	case OpGT:
		return cmp > 0
	case OpGTE:
		return cmp >= 0
	case OpLT:
		return cmp < 0
	case OpLTE:
		return cmp <= 0
	default:
		return false
	}
}

// parseClock parses "HH:MM" into minutes since midnight.
func parseClock(s string) (int, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, fmt.Errorf("invalid time of day %q (want HH:MM)", s)
	}
	h, err := strconv.Atoi(parts[0])
	if err != nil || h < 0 || h > 23 {
		return 0, fmt.Errorf("invalid hour in %q", s)
	}
	m, err := strconv.Atoi(parts[1])
	if err != nil || m < 0 || m > 59 {
		return 0, fmt.Errorf("invalid minute in %q", s)
	}
	return h*60 + m, nil
}

// FormatClock renders minutes-since-midnight or a time's wall clock as
// "HH:MM" for CtxTimeOfDay context values.
func FormatClock(hour, minute int) string {
	return fmt.Sprintf("%02d:%02d", hour, minute)
}

// Filter is a conjunction of conditions (paper §3.1: "It consists of a set
// of conditions"). An empty filter passes everything.
type Filter struct {
	Conditions []Condition `json:"conditions"`
}

// NewFilter builds and validates a filter.
func NewFilter(conditions ...Condition) (Filter, error) {
	f := Filter{Conditions: append([]Condition(nil), conditions...)}
	if err := f.Validate(); err != nil {
		return Filter{}, err
	}
	return f, nil
}

// Validate checks every condition.
func (f Filter) Validate() error {
	for i, c := range f.Conditions {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("condition %d: %w", i, err)
		}
	}
	return nil
}

// Eval reports whether the context satisfies all conditions.
func (f Filter) Eval(ctx Context) bool {
	for _, c := range f.Conditions {
		if !c.Eval(ctx) {
			return false
		}
	}
	return true
}

// Empty reports whether the filter has no conditions.
func (f Filter) Empty() bool { return len(f.Conditions) == 0 }

// RequiredSensors returns the sensor modalities that must be sampled to
// evaluate this filter's same-user conditions (conditional modalities are
// "sampled continuously", paper §4). Cross-user conditions are excluded:
// their sensing happens on other devices.
func (f Filter) RequiredSensors() ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	for _, c := range f.Conditions {
		if c.UserID != "" {
			continue
		}
		s, err := SensorForContext(c.Modality)
		if err != nil {
			return nil, err
		}
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out, nil
}

// HasCrossUser reports whether any condition references another user.
func (f Filter) HasCrossUser() bool {
	for _, c := range f.Conditions {
		if c.UserID != "" {
			return true
		}
	}
	return false
}

// Merge returns a filter containing the conditions of both (deduplicated).
func (f Filter) Merge(other Filter) Filter {
	seen := make(map[Condition]bool, len(f.Conditions))
	out := Filter{}
	for _, c := range append(append([]Condition(nil), f.Conditions...), other.Conditions...) {
		if !seen[c] {
			seen[c] = true
			out.Conditions = append(out.Conditions, c)
		}
	}
	return out
}
