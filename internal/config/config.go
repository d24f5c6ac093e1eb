// Package config implements SenSocial's XML configuration documents. The
// paper's remote stream management works by "encapsulating a stream
// configuration in an XML file, which is pushed from the server to mobile
// devices"; on the phone, "the FilterMerge class merges this newly
// downloaded XML file to the existing set of filter configurations that are
// stored in the mobile device as an XML file". Privacy policies live in a
// PrivacyPolicyDescriptor file with the same lifecycle.
package config

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
)

// xmlStreams is the on-disk/on-wire shape of a stream configuration set.
type xmlStreams struct {
	XMLName xml.Name    `xml:"streams"`
	Streams []xmlStream `xml:"stream"`
}

type xmlStream struct {
	ID                string         `xml:"id,attr"`
	DeviceID          string         `xml:"device,attr"`
	UserID            string         `xml:"user,attr,omitempty"`
	Modality          string         `xml:"modality,attr"`
	Granularity       string         `xml:"granularity,attr"`
	Kind              string         `xml:"kind,attr"`
	SampleIntervalSec float64        `xml:"sampleIntervalSec,attr,omitempty"`
	DutyCycle         float64        `xml:"dutyCycle,attr,omitempty"`
	Deliver           string         `xml:"deliver,attr"`
	Conditions        []xmlCondition `xml:"filter>condition"`
}

type xmlCondition struct {
	Modality string `xml:"modality,attr"`
	Operator string `xml:"operator,attr"`
	Value    string `xml:"value,attr"`
	UserID   string `xml:"user,attr,omitempty"`
}

// EncodeStreams serializes stream configurations to the XML document format.
// It writes the fixed <streams> schema directly rather than through
// reflection; its bytes are exactly xml.Header followed by
// xml.MarshalIndent(doc, "", "  ") of the xmlStreams document DecodeStreams
// reads, so config triggers and journals carry what they always have.
func EncodeStreams(configs []core.StreamConfig) ([]byte, error) {
	size := len(xml.Header) + len("<streams>\n</streams>")
	for i := range configs {
		if err := configs[i].Validate(); err != nil {
			return nil, fmt.Errorf("config: encode: %w", err)
		}
		size += 256 + 96*len(configs[i].Filter.Conditions)
	}
	b := make(appender, 0, size)
	b = append(b, xml.Header...)
	b = append(b, "<streams>"...)
	for i := range configs {
		c := &configs[i]
		b = append(b, "\n  <stream"...)
		b.attr("id", c.ID)
		b.attr("device", c.DeviceID)
		if c.UserID != "" {
			b.attr("user", c.UserID)
		}
		b.attr("modality", c.Modality)
		b.attr("granularity", string(c.Granularity))
		b.attr("kind", string(c.Kind))
		if c.SampleInterval > 0 {
			b.floatAttr("sampleIntervalSec", c.SampleInterval.Seconds())
		}
		b.floatAttr("dutyCycle", c.DutyCycle)
		b.attr("deliver", string(c.Deliver))
		b = append(b, ">\n    <filter>"...)
		for _, cond := range c.Filter.Conditions {
			b = append(b, "\n      <condition"...)
			b.attr("modality", cond.Modality)
			b.attr("operator", string(cond.Operator))
			b.attr("value", cond.Value)
			if cond.UserID != "" {
				b.attr("user", cond.UserID)
			}
			b = append(b, "></condition>"...)
		}
		if len(c.Filter.Conditions) > 0 {
			b = append(b, "\n    "...)
		}
		b = append(b, "</filter>\n  </stream>"...)
	}
	if len(configs) > 0 {
		b = append(b, '\n')
	}
	return append(b, "</streams>"...), nil
}

// appender builds a document by appending; as an io.Writer it is what
// xml.EscapeText writes escaped text into.
type appender []byte

func (a *appender) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}

// attr appends ` name="value"`, value escaped as encoding/xml escapes an
// attribute. A value with no byte to escape, the usual case, is copied;
// any other goes through xml.EscapeText, the escaper encoding/xml uses.
func (a *appender) attr(name, value string) {
	*a = append(*a, ' ')
	*a = append(*a, name...)
	*a = append(*a, '=', '"')
	plain := true
	for i := 0; i < len(value) && plain; i++ {
		c := value[i]
		plain = c >= 0x20 && c < 0x7f && c != '"' && c != '\'' && c != '&' && c != '<' && c != '>'
	}
	if plain {
		*a = append(*a, value...)
	} else {
		_ = xml.EscapeText(a, []byte(value)) // an appender's Write never fails
	}
	*a = append(*a, '"')
}

// floatAttr appends a float attribute tagged omitempty: nothing for zero,
// else the shortest 'g' form, as encoding/xml formats a float64.
func (a *appender) floatAttr(name string, v float64) {
	if v == 0 {
		return
	}
	*a = append(*a, ' ')
	*a = append(*a, name...)
	*a = append(*a, '=', '"')
	*a = strconv.AppendFloat(*a, v, 'g', -1, 64)
	*a = append(*a, '"')
}

// DecodeStreams parses and validates an XML stream configuration document.
func DecodeStreams(data []byte) ([]core.StreamConfig, error) {
	var doc xmlStreams
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("config: decode streams: %w", err)
	}
	var out []core.StreamConfig
	seen := make(map[string]bool)
	for _, xs := range doc.Streams {
		if seen[xs.ID] {
			return nil, fmt.Errorf("config: decode streams: duplicate stream id %q", xs.ID)
		}
		seen[xs.ID] = true
		c := core.StreamConfig{
			ID:             xs.ID,
			DeviceID:       xs.DeviceID,
			UserID:         xs.UserID,
			Modality:       xs.Modality,
			Granularity:    core.Granularity(xs.Granularity),
			Kind:           core.StreamKind(xs.Kind),
			SampleInterval: time.Duration(xs.SampleIntervalSec * float64(time.Second)),
			DutyCycle:      xs.DutyCycle,
			Deliver:        core.Destination(xs.Deliver),
		}
		for _, xc := range xs.Conditions {
			c.Filter.Conditions = append(c.Filter.Conditions, core.Condition{
				Modality: xc.Modality,
				Operator: core.Operator(xc.Operator),
				Value:    xc.Value,
				UserID:   xc.UserID,
			})
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("config: decode streams: %w", err)
		}
		out = append(out, c)
	}
	return out, nil
}

// MergeStreams implements FilterMerge semantics: incoming configurations
// replace existing ones with the same id and new ids are appended;
// untouched existing streams are preserved. Order: existing (updated in
// place) then new.
func MergeStreams(existing, incoming []core.StreamConfig) []core.StreamConfig {
	out := make([]core.StreamConfig, 0, len(existing)+len(incoming))
	replaced := make(map[string]core.StreamConfig, len(incoming))
	for _, c := range incoming {
		replaced[c.ID] = c
	}
	seen := make(map[string]bool, len(existing))
	for _, c := range existing {
		seen[c.ID] = true
		if repl, ok := replaced[c.ID]; ok {
			out = append(out, repl)
		} else {
			out = append(out, c)
		}
	}
	for _, c := range incoming {
		if !seen[c.ID] {
			out = append(out, c)
		}
	}
	return out
}

// RemoveStream deletes the configuration with the given id, reporting
// whether it was present.
func RemoveStream(configs []core.StreamConfig, id string) ([]core.StreamConfig, bool) {
	out := make([]core.StreamConfig, 0, len(configs))
	found := false
	for _, c := range configs {
		if c.ID == id {
			found = true
			continue
		}
		out = append(out, c)
	}
	return out, found
}

// xmlPrivacy is the on-disk shape of the PrivacyPolicyDescriptor file.
type xmlPrivacy struct {
	XMLName  xml.Name    `xml:"privacyPolicyDescriptor"`
	Policies []xmlPolicy `xml:"policy"`
}

type xmlPolicy struct {
	Modality        string `xml:"modality,attr"`
	AllowRaw        bool   `xml:"allowRaw,attr"`
	AllowClassified bool   `xml:"allowClassified,attr"`
}

// EncodePrivacy serializes privacy policies.
func EncodePrivacy(policies []core.PrivacyPolicy) ([]byte, error) {
	doc := xmlPrivacy{}
	seen := make(map[string]bool)
	for _, p := range policies {
		if p.Modality == "" {
			return nil, fmt.Errorf("config: encode privacy: empty modality")
		}
		if seen[p.Modality] {
			return nil, fmt.Errorf("config: encode privacy: duplicate policy for %q", p.Modality)
		}
		seen[p.Modality] = true
		doc.Policies = append(doc.Policies, xmlPolicy{
			Modality:        p.Modality,
			AllowRaw:        p.AllowRaw,
			AllowClassified: p.AllowClassified,
		})
	}
	b, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("config: encode privacy: %w", err)
	}
	return append([]byte(xml.Header), b...), nil
}

// DecodePrivacy parses a PrivacyPolicyDescriptor document.
func DecodePrivacy(data []byte) ([]core.PrivacyPolicy, error) {
	var doc xmlPrivacy
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("config: decode privacy: %w", err)
	}
	var out []core.PrivacyPolicy
	seen := make(map[string]bool)
	for _, p := range doc.Policies {
		if p.Modality == "" {
			return nil, fmt.Errorf("config: decode privacy: empty modality")
		}
		if seen[p.Modality] {
			return nil, fmt.Errorf("config: decode privacy: duplicate policy for %q", p.Modality)
		}
		seen[p.Modality] = true
		out = append(out, core.PrivacyPolicy{
			Modality:        p.Modality,
			AllowRaw:        p.AllowRaw,
			AllowClassified: p.AllowClassified,
		})
	}
	return out, nil
}
