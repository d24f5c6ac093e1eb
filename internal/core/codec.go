package core

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/osn"
	"repro/internal/sensors"
)

// The item and trigger wire codec. Items and triggers cross the broker as
// JSON (paper §4), and every byte of it is what encoding/json writes for
// the Item and Trigger struct tags, so journals, snapshots, the pooled
// fleet's per-byte energy charge and any peer decoding with encoding/json
// do not depend on which path wrote it. The fast paths below are
// deliberately narrow — fields in declaration order, strings of printable
// ASCII that need no escape, a Raw value without escapes that
// encoding/json's compact step would copy unchanged — and whatever falls
// outside them is handed to encoding/json whole, so the two can only
// differ in speed. FuzzDecodeItem and FuzzDecodeTrigger check that
// differentially in both directions.

// plainByte marks the bytes encoding/json writes verbatim inside a string:
// printable ASCII except '"', '\\' and the HTML-escaped '<', '>', '&'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// maxRawDepth bounds the nesting a fast-path Raw value may have; deeper
// values are left to encoding/json, which allows 10 000 levels.
const maxRawDepth = 64

// Interned vocabularies: a decoded string equal to one of these is
// returned as the constant, without allocating.
var (
	granularityNames = []string{string(GranularityRaw), string(GranularityClassified)}
	modalityNames    = sensors.Modalities()
	contextNames     = ContextModalities()
	triggerKindNames = []string{string(TriggerSense), string(TriggerConfig), string(TriggerConfigPull),
		string(TriggerRemove), string(TriggerNotify)}
	networkNames    = []string{"facebook", "twitter"}
	actionTypeNames = []string{string(osn.ActionPost), string(osn.ActionComment), string(osn.ActionLike),
		string(osn.ActionTweet)}
)

// timeLen is the longest RFC 3339 time with nanoseconds and a zone offset.
const timeLen = len(time.RFC3339Nano)

// An item or trigger is encoded in two steps. itemLen (triggerLen) checks
// every string and the Raw value against the fast path while it adds up a
// bound on the length, and returns false at the first miss, before any
// buffer exists: a value bound for encoding/json costs nothing more than
// that scan. The encoder then appends into one buffer of that length.

// plain reports whether every byte of s is a plain byte.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// plainLen adds the lengths of ss to n, or reports false at the first
// string that is not plain.
func plainLen(n int, ss ...string) (int, bool) {
	for _, s := range ss {
		if !plain(s) {
			return 0, false
		}
		n += len(s)
	}
	return n, true
}

// contextLen bounds the encoding of c, or reports a miss.
func contextLen(n int, c Context) (int, bool) {
	for k, v := range c {
		if !plain(k) || !plain(v) {
			return 0, false
		}
		n += len(k) + len(v) + 6
	}
	return n, true
}

// actionLen bounds the encoding of a, or reports a miss.
func actionLen(n int, a *osn.Action) (int, bool) {
	return plainLen(n+64+timeLen, a.ID, a.Network, a.UserID, string(a.Type), a.Text)
}

// itemLen bounds the encoding of it, or reports a miss.
func itemLen(it *Item) (int, bool) {
	n, ok := plainLen(160+timeLen+len(it.Raw), it.StreamID, it.DeviceID, it.UserID, it.Modality,
		string(it.Granularity), it.Classified, it.AggregateID)
	if ok && len(it.Raw) > 0 {
		ok = scanValue(it.Raw, 0, 0) == len(it.Raw)
	}
	if ok {
		n, ok = contextLen(n, it.Context)
	}
	if ok && it.Action != nil {
		n, ok = actionLen(n, it.Action)
	}
	return n, ok
}

// triggerLen bounds the encoding of t, or reports a miss.
func triggerLen(t *Trigger) (int, bool) {
	n, ok := plainLen(96+base64.StdEncoding.EncodedLen(len(t.ConfigXML)), string(t.Kind), t.DeviceID, t.Message)
	for i := 0; ok && i < len(t.StreamIDs); i++ {
		n, ok = plainLen(n+3, t.StreamIDs[i])
	}
	if ok && t.Action != nil {
		n, ok = actionLen(n, t.Action)
	}
	return n, ok
}

// encoder appends JSON to b. Strings and Raw were checked before b was
// allocated; ok turns false only on a time encoding/json rejects, and the
// caller then discards b and lets encoding/json report the error.
type encoder struct {
	b  []byte
	ok bool
}

func (e *encoder) lit(s string) { e.b = append(e.b, s...) }

func (e *encoder) str(s string) {
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// time writes t as time.Time.MarshalJSON does. AppendFormat with
// RFC3339Nano is the formatter MarshalJSON calls, and the two checks are
// the ones it makes on the result; a time they reject (a year outside
// [0,9999], a zone offset of 24 hours or more) goes to encoding/json for
// its error.
func (e *encoder) time(t time.Time) {
	start := len(e.b) + 1
	b := t.AppendFormat(append(e.b, '"'), time.RFC3339Nano)
	if b[start+len("2006")] != '-' {
		e.ok = false
		return
	}
	if b[len(b)-1] != 'Z' {
		zone := b[len(b)-len("-07:00"):]
		if '0' <= zone[0] && zone[0] <= '9' || 10*(zone[1]-'0')+(zone[2]-'0') >= 24 {
			e.ok = false
			return
		}
	}
	e.b = append(b, '"')
}

// context writes a map with its keys sorted, as encoding/json does.
func (e *encoder) context(c Context) {
	var stack [8]string
	keys := stack[:0]
	for k := range c {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i == 0 {
			e.lit("{")
		} else {
			e.lit(",")
		}
		e.str(k)
		e.lit(":")
		e.str(c[k])
	}
	e.lit("}")
}

func (e *encoder) action(a *osn.Action) {
	e.lit(`{"id":`)
	e.str(a.ID)
	e.lit(`,"network":`)
	e.str(a.Network)
	e.lit(`,"user_id":`)
	e.str(a.UserID)
	e.lit(`,"type":`)
	e.str(string(a.Type))
	e.lit(`,"text":`)
	e.str(a.Text)
	e.lit(`,"time":`)
	e.time(a.Time)
	e.lit("}")
}

// appendItem is Item.Encode's fast path.
func appendItem(it *Item) ([]byte, bool) {
	n, ok := itemLen(it)
	if !ok {
		return nil, false
	}
	e := encoder{b: make([]byte, 0, n), ok: true}
	e.lit(`{"stream_id":`)
	e.str(it.StreamID)
	e.lit(`,"device_id":`)
	e.str(it.DeviceID)
	if it.UserID != "" {
		e.lit(`,"user_id":`)
		e.str(it.UserID)
	}
	e.lit(`,"modality":`)
	e.str(it.Modality)
	e.lit(`,"granularity":`)
	e.str(string(it.Granularity))
	e.lit(`,"time":`)
	e.time(it.Time)
	if len(it.Raw) > 0 {
		e.lit(`,"raw":`)
		e.b = append(e.b, it.Raw...)
	}
	if it.Classified != "" {
		e.lit(`,"classified":`)
		e.str(it.Classified)
	}
	if len(it.Context) > 0 {
		e.lit(`,"context":`)
		e.context(it.Context)
	}
	if it.Action != nil {
		e.lit(`,"action":`)
		e.action(it.Action)
	}
	if it.AggregateID != "" {
		e.lit(`,"aggregate_id":`)
		e.str(it.AggregateID)
	}
	e.lit("}")
	return e.b, e.ok
}

// appendTrigger is Trigger.Encode's fast path.
func appendTrigger(t *Trigger) ([]byte, bool) {
	n, ok := triggerLen(t)
	if !ok {
		return nil, false
	}
	e := encoder{b: make([]byte, 0, n), ok: true}
	e.lit(`{"kind":`)
	e.str(string(t.Kind))
	e.lit(`,"device_id":`)
	e.str(t.DeviceID)
	if len(t.StreamIDs) > 0 {
		for i, s := range t.StreamIDs {
			if i == 0 {
				e.lit(`,"stream_ids":[`)
			} else {
				e.lit(",")
			}
			e.str(s)
		}
		e.lit("]")
	}
	if t.Action != nil {
		e.lit(`,"action":`)
		e.action(t.Action)
	}
	if len(t.ConfigXML) > 0 {
		e.lit(`,"config_xml":"`)
		e.b = base64.StdEncoding.AppendEncode(e.b, t.ConfigXML)
		e.lit(`"`)
	}
	if t.Message != "" {
		e.lit(`,"message":`)
		e.str(t.Message)
	}
	e.lit("}")
	return e.b, e.ok
}

// decoder reads what encoder writes. bad is sticky: once set, every method
// returns a zero value, and the caller falls back to encoding/json. Strings
// it returns are copies, never views of b: the registry and the filter
// table keep ids, and a view would pin the whole frame.
type decoder struct {
	b   []byte
	off int
	bad bool
}

// escapeFree reports whether b holds neither a backslash nor a non-ASCII
// byte. encoding/json writes one of the two for every string the fast path
// declines (an escape, or UTF-8), so decoding checks this first and leaves
// such input to encoding/json before anything is copied.
func escapeFree(b []byte) bool {
	if bytes.IndexByte(b, '\\') >= 0 {
		return false
	}
	le := binary.LittleEndian
	for ; len(b) >= 32; b = b[32:] { // the high bits of four words at once
		if (le.Uint64(b)|le.Uint64(b[8:])|le.Uint64(b[16:])|le.Uint64(b[24:]))&0x8080808080808080 != 0 {
			return false
		}
	}
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// done reports whether the input was consumed exactly and without a miss.
func (d *decoder) done() bool { return !d.bad && d.off == len(d.b) }

// next consumes s if the input continues with it.
func (d *decoder) next(s string) bool {
	if d.bad || len(d.b)-d.off < len(s) || string(d.b[d.off:d.off+len(s)]) != s {
		return false
	}
	d.off += len(s)
	return true
}

// expect consumes s or fails.
func (d *decoder) expect(s string) {
	if !d.next(s) {
		d.bad = true
	}
}

// plain consumes a string of plain bytes and returns its contents.
func (d *decoder) plain() []byte {
	d.expect(`"`)
	if d.bad {
		return nil
	}
	start := d.off
	for d.off < len(d.b) && plainByte[d.b[d.off]] {
		d.off++
	}
	s := d.b[start:d.off]
	d.expect(`"`)
	return s
}

func (d *decoder) str() string { return string(d.plain()) }

// time decodes a quoted time through time.Time.UnmarshalJSON, the method
// encoding/json calls.
func (d *decoder) time() time.Time {
	start := d.off
	d.plain()
	var t time.Time
	if d.bad {
		return t
	}
	if err := t.UnmarshalJSON(d.b[start:d.off]); err != nil {
		d.bad = true
	}
	return t
}

// raw decodes a json.RawMessage value.
func (d *decoder) raw() []byte {
	if d.bad {
		return nil
	}
	end := scanValue(d.b, d.off, 0)
	if end < 0 {
		d.bad = true
		return nil
	}
	start := d.off
	d.off = end
	return append([]byte(nil), d.b[start:end]...)
}

// scanValue returns the end of the JSON value starting at b[i], or -1
// unless it is one encoding/json's compact step copies unchanged: valid,
// without whitespace or escapes, and ASCII without '<', '>' or '&'.
func scanValue(b []byte, i, depth int) int {
	if i >= len(b) || depth > maxRawDepth {
		return -1
	}
	switch b[i] {
	case '{':
		i++
		if i < len(b) && b[i] == '}' {
			return i + 1
		}
		for {
			if i = scanString(b, i); i < 0 || i >= len(b) || b[i] != ':' {
				return -1
			}
			if i = scanValue(b, i+1, depth+1); i < 0 || i >= len(b) {
				return -1
			}
			switch b[i] {
			case ',':
				i++
			case '}':
				return i + 1
			default:
				return -1
			}
		}
	case '[':
		i++
		if i < len(b) && b[i] == ']' {
			return i + 1
		}
		for {
			if i < len(b) && (b[i] == '-' || '0' <= b[i] && b[i] <= '9') {
				i = scanNumber(b, i) // the common element, without the call through scanValue
			} else {
				i = scanValue(b, i, depth+1)
			}
			if i < 0 || i >= len(b) {
				return -1
			}
			switch b[i] {
			case ',':
				i++
			case ']':
				return i + 1
			default:
				return -1
			}
		}
	case '"':
		return scanString(b, i)
	case 't':
		return scanLiteral(b, i, "true")
	case 'f':
		return scanLiteral(b, i, "false")
	case 'n':
		return scanLiteral(b, i, "null")
	default:
		return scanNumber(b, i)
	}
}

// scanString returns the end of the string starting at b[i], or -1 unless
// it holds only plain bytes. An escape is left to encoding/json, as it is
// in every other string.
func scanString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		if b[i] == '"' {
			return i + 1
		}
		if !plainByte[b[i]] {
			return -1
		}
	}
	return -1
}

func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// scanNumber returns the end of -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// starting at b[i], or -1.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		start := i + 1
		if i = skipDigits(b, start); i == start {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = skipDigits(b, i); i == start {
			return -1
		}
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// context decodes a non-empty map whose keys ascend strictly, as encoder
// writes it; an empty, unsorted or duplicated map goes to encoding/json.
func (d *decoder) context() Context {
	d.expect("{")
	if d.bad || d.next("}") {
		d.bad = true
		return nil
	}
	c := make(Context)
	var prev []byte
	for i := 0; !d.bad; i++ {
		k := d.plain()
		if i > 0 && string(k) <= string(prev) {
			d.bad = true
			return nil
		}
		prev = k
		d.expect(":")
		v := d.str()
		if d.bad {
			return nil
		}
		c[intern(k, contextNames)] = v
		if !d.next(",") {
			break
		}
	}
	d.expect("}")
	return c
}

// intern returns the entry of names equal to s, or a copy of s.
func intern(s []byte, names []string) string {
	for _, n := range names {
		if string(s) == n {
			return n
		}
	}
	return string(s)
}

func (d *decoder) action() *osn.Action {
	a := new(osn.Action)
	d.expect(`{"id":`)
	a.ID = d.str()
	d.expect(`,"network":`)
	a.Network = intern(d.plain(), networkNames)
	d.expect(`,"user_id":`)
	a.UserID = d.str()
	d.expect(`,"type":`)
	a.Type = osn.ActionType(intern(d.plain(), actionTypeNames))
	d.expect(`,"text":`)
	a.Text = d.str()
	d.expect(`,"time":`)
	a.Time = d.time()
	d.expect("}")
	return a
}

// decodeItem is DecodeItem's fast path.
func decodeItem(b []byte) (Item, bool) {
	var it Item
	if !escapeFree(b) {
		return it, false
	}
	d := decoder{b: b}
	d.expect(`{"stream_id":`)
	it.StreamID = d.str()
	d.expect(`,"device_id":`)
	it.DeviceID = d.str()
	if d.next(`,"user_id":`) {
		it.UserID = d.str()
	}
	d.expect(`,"modality":`)
	it.Modality = intern(d.plain(), modalityNames)
	d.expect(`,"granularity":`)
	it.Granularity = Granularity(intern(d.plain(), granularityNames))
	d.expect(`,"time":`)
	it.Time = d.time()
	if d.next(`,"raw":`) {
		it.Raw = d.raw()
	}
	if d.next(`,"classified":`) {
		it.Classified = d.str()
	}
	if d.next(`,"context":`) {
		it.Context = d.context()
	}
	if d.next(`,"action":`) {
		it.Action = d.action()
	}
	if d.next(`,"aggregate_id":`) {
		it.AggregateID = d.str()
	}
	d.expect("}")
	return it, d.done()
}

// decodeTrigger is DecodeTrigger's fast path.
func decodeTrigger(b []byte) (Trigger, bool) {
	var t Trigger
	if !escapeFree(b) {
		return t, false
	}
	d := decoder{b: b}
	d.expect(`{"kind":`)
	t.Kind = TriggerKind(intern(d.plain(), triggerKindNames))
	d.expect(`,"device_id":`)
	t.DeviceID = d.str()
	if d.next(`,"stream_ids":[`) {
		for !d.bad {
			t.StreamIDs = append(t.StreamIDs, d.str())
			if !d.next(",") {
				break
			}
		}
		d.expect("]")
	}
	if d.next(`,"action":`) {
		t.Action = d.action()
	}
	if d.next(`,"config_xml":`) {
		s := d.plain()
		if len(s) == 0 {
			d.bad = true // encoding/json decodes "" to an empty, non-nil slice
		}
		if !d.bad {
			buf := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
			n, err := base64.StdEncoding.Decode(buf, s)
			d.bad = err != nil
			t.ConfigXML = buf[:n]
		}
	}
	if d.next(`,"message":`) {
		t.Message = d.str()
	}
	d.expect("}")
	return t, d.done()
}
