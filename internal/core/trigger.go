package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/osn"
)

// Trigger kinds carried over MQTT (paper §3.2: "Triggers can carry either
// stream configuration information or signals to start sensing based on an
// OSN action"). Notify triggers additionally let server applications push
// application-level messages to devices (the Figure 2 friend-arrival
// notification).
type TriggerKind string

// TriggerKind values. TriggerConfigPull tells the device that new
// configuration is available for download over HTTP — the paper's
// FilterDownloader path ("if needed, a stream filter is downloaded from
// the server by the FilterDownloader class") — as opposed to
// TriggerConfig, which carries the XML inline.
const (
	TriggerSense      TriggerKind = "sense"
	TriggerConfig     TriggerKind = "config"
	TriggerConfigPull TriggerKind = "config-pull"
	TriggerRemove     TriggerKind = "remove"
	TriggerNotify     TriggerKind = "notify"
)

// ValidTriggerKind reports whether k is known.
func ValidTriggerKind(k TriggerKind) bool {
	switch k {
	case TriggerSense, TriggerConfig, TriggerConfigPull, TriggerRemove, TriggerNotify:
		return true
	default:
		return false
	}
}

// Trigger is the JSON payload the server's Trigger Manager compiles and
// hands to the MQTT broker ("the Trigger Manager compiles the OSN action
// and the relevant device information in a JSON-formatted string").
type Trigger struct {
	Kind     TriggerKind `json:"kind"`
	DeviceID string      `json:"device_id"`
	// StreamIDs lists the social event-based streams to sample (sense) or
	// the streams to remove (remove).
	StreamIDs []string `json:"stream_ids,omitempty"`
	// Action is the OSN action that caused a sense trigger.
	Action *osn.Action `json:"action,omitempty"`
	// ConfigXML carries stream configurations for config triggers.
	ConfigXML []byte `json:"config_xml,omitempty"`
	// Message carries an application-level notification payload.
	Message string `json:"message,omitempty"`
}

// Validate checks the trigger.
func (t Trigger) Validate() error {
	if !ValidTriggerKind(t.Kind) {
		return fmt.Errorf("core: trigger: invalid kind %q", t.Kind)
	}
	if strings.TrimSpace(t.DeviceID) == "" {
		return fmt.Errorf("core: trigger: empty device id")
	}
	if t.Kind == TriggerConfig && len(t.ConfigXML) == 0 {
		return fmt.Errorf("core: config trigger for %q has no configuration", t.DeviceID)
	}
	return nil
}

// Encode serializes the trigger for MQTT transport: the bytes encoding/json
// writes for it, produced by codec.go's fast path whenever the trigger fits
// it.
func (t Trigger) Encode() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if b, ok := appendTrigger(&t); ok {
		return b, nil
	}
	b, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("core: encode trigger for %q: %w", t.DeviceID, err)
	}
	return b, nil
}

// DecodeTrigger parses a trigger payload, as encoding/json.Unmarshal would.
func DecodeTrigger(b []byte) (Trigger, error) {
	t, ok := decodeTrigger(b)
	if !ok {
		var slow Trigger // its own variable, so t does not escape on the fast path
		if err := json.Unmarshal(b, &slow); err != nil {
			return Trigger{}, fmt.Errorf("core: decode trigger: %w", err)
		}
		t = slow
	}
	if err := t.Validate(); err != nil {
		return Trigger{}, err
	}
	return t, nil
}

// MQTT topic scheme. Device-bound traffic is per-device so the broker's
// wildcard routing selects exactly the intended recipients; data flows up
// on a device-scoped topic the server subscribes to with a wildcard.
const (
	topicPrefix = "sensocial"
)

// DeviceTriggerTopic is the topic a device subscribes to for triggers.
func DeviceTriggerTopic(deviceID string) string {
	return topicPrefix + "/device/" + deviceID + "/trigger"
}

// DeviceTriggerFilter matches all device trigger topics.
func DeviceTriggerFilter() string {
	return topicPrefix + "/device/+/trigger"
}

// StreamDataTopic is the topic a device publishes stream items on.
func StreamDataTopic(deviceID string) string {
	return topicPrefix + "/stream/" + deviceID
}

// StreamDataFilter matches all stream data topics (server subscription).
func StreamDataFilter() string {
	return topicPrefix + "/stream/+"
}

// RegistryTopic carries device registration announcements.
func RegistryTopic() string {
	return topicPrefix + "/registry"
}
