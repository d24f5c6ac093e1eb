package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/osn"
	"repro/internal/sensors"
)

// StreamConfig describes one contextual data stream. It is the unit the
// server encapsulates "in an XML file, which is pushed from the server to
// mobile devices" (paper §4, Remote Stream Management): required modality,
// granularity, filtering conditions and the identification code of the
// device on which the stream is created, plus the sampling settings the
// developer tunes (duty cycle and sample rate).
type StreamConfig struct {
	// ID uniquely names the stream.
	ID string `json:"id"`
	// DeviceID is the device the stream samples on.
	DeviceID string `json:"device_id"`
	// UserID is the owner of the device (set by the registry; informative).
	UserID string `json:"user_id,omitempty"`
	// Modality is the sensor modality sampled (sensors.Modality* values).
	Modality string `json:"modality"`
	// Granularity selects raw samples or classified labels.
	Granularity Granularity `json:"granularity"`
	// Kind selects continuous or social event-based sampling.
	Kind StreamKind `json:"kind"`
	// SampleInterval is the continuous sampling period (ignored for
	// social-event streams). The paper's evaluation samples every 60 s.
	SampleInterval time.Duration `json:"sample_interval,omitempty"`
	// DutyCycle is the fraction of sampling cycles actually executed, in
	// (0,1]; 1 means every cycle. Mirrors the ESSensorManager duty-cycle
	// setting.
	DutyCycle float64 `json:"duty_cycle,omitempty"`
	// Filter gates delivery (and sampling, where possible).
	Filter Filter `json:"filter"`
	// Deliver selects local or server delivery.
	Deliver Destination `json:"deliver"`
}

// Validate checks the configuration.
func (c StreamConfig) Validate() error {
	if strings.TrimSpace(c.ID) == "" {
		return fmt.Errorf("core: stream config: empty id")
	}
	if !sensors.IsModality(c.Modality) {
		return fmt.Errorf("core: stream %q: unknown modality %q", c.ID, c.Modality)
	}
	if !ValidGranularity(c.Granularity) {
		return fmt.Errorf("core: stream %q: invalid granularity %q", c.ID, c.Granularity)
	}
	if !ValidStreamKind(c.Kind) {
		return fmt.Errorf("core: stream %q: invalid kind %q", c.ID, c.Kind)
	}
	if c.Kind == KindContinuous && c.SampleInterval <= 0 {
		return fmt.Errorf("core: stream %q: continuous streams need a positive sample interval", c.ID)
	}
	if c.DutyCycle < 0 || c.DutyCycle > 1 {
		return fmt.Errorf("core: stream %q: duty cycle %f outside [0,1]", c.ID, c.DutyCycle)
	}
	if !ValidDestination(c.Deliver) {
		return fmt.Errorf("core: stream %q: invalid destination %q", c.ID, c.Deliver)
	}
	if err := c.Filter.Validate(); err != nil {
		return fmt.Errorf("core: stream %q: %w", c.ID, err)
	}
	return nil
}

// EffectiveDutyCycle returns DutyCycle with the zero value defaulted to 1.
func (c StreamConfig) EffectiveDutyCycle() float64 {
	if c.DutyCycle == 0 {
		return 1
	}
	return c.DutyCycle
}

// Item is one datum flowing through a stream: a sensor sample (raw payload
// or classified label), the context snapshot used for filtering, and, for
// social event-based streams, the OSN action that triggered it (paper §4:
// "The sampled sensor data is coupled with the OSN action data received
// with the trigger").
type Item struct {
	StreamID    string          `json:"stream_id"`
	DeviceID    string          `json:"device_id"`
	UserID      string          `json:"user_id,omitempty"`
	Modality    string          `json:"modality"`
	Granularity Granularity     `json:"granularity"`
	Time        time.Time       `json:"time"`
	Raw         json.RawMessage `json:"raw,omitempty"`
	Classified  string          `json:"classified,omitempty"`
	Context     Context         `json:"context,omitempty"`
	Action      *osn.Action     `json:"action,omitempty"`
	// AggregateID is set when the item was multiplexed through an
	// aggregator on the server.
	AggregateID string `json:"aggregate_id,omitempty"`
}

// Encode serializes the item for transport (MQTT payload): the bytes
// encoding/json writes for it, produced by codec.go's fast path whenever
// the item fits it.
func (i Item) Encode() ([]byte, error) {
	if b, ok := appendItem(&i); ok {
		return b, nil
	}
	b, err := json.Marshal(i)
	if err != nil {
		return nil, fmt.Errorf("core: encode item of stream %q: %w", i.StreamID, err)
	}
	return b, nil
}

// DecodeItem parses an item from its transport encoding, as
// encoding/json.Unmarshal would.
func DecodeItem(b []byte) (Item, error) {
	if i, ok := decodeItem(b); ok {
		return i, nil
	}
	var i Item
	if err := json.Unmarshal(b, &i); err != nil {
		return Item{}, fmt.Errorf("core: decode item: %w", err)
	}
	return i, nil
}

// Listener receives stream items (the subscriber side of the
// publish-subscribe API; the application "has to implement SenSocial
// Listener").
type Listener interface {
	// OnItem is invoked once per delivered item.
	OnItem(Item)
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(Item)

var _ Listener = ListenerFunc(nil)

// OnItem implements Listener.
func (f ListenerFunc) OnItem(i Item) { f(i) }

// Hub is the in-process publish-subscribe fabric both managers use to
// route items from streams to registered listeners. Subscriptions are per
// stream id or the wildcard "*".
type Hub struct {
	mu sync.Mutex
	// listeners' slices are never written in place once stored (Register
	// copies), so Publish iterates them outside mu without copying.
	listeners map[string][]Listener
}

// Wildcard subscribes to every stream on a hub.
const Wildcard = "*"

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{listeners: make(map[string][]Listener)}
}

// Register adds a listener for a stream id (or Wildcard).
func (h *Hub) Register(streamID string, l Listener) error {
	if streamID == "" {
		return fmt.Errorf("core: hub: empty stream id")
	}
	if l == nil {
		return fmt.Errorf("core: hub: nil listener for %q", streamID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ls := h.listeners[streamID]
	h.listeners[streamID] = append(ls[:len(ls):len(ls)], l)
	return nil
}

// Unregister removes every listener for a stream id.
func (h *Hub) Unregister(streamID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.listeners, streamID)
}

// Publish fans an item out to the stream's listeners, then the wildcard
// listeners, synchronously.
func (h *Hub) Publish(i Item) {
	h.mu.Lock()
	own, all := h.listeners[i.StreamID], h.listeners[Wildcard]
	h.mu.Unlock()
	for _, l := range own {
		l.OnItem(i)
	}
	for _, l := range all {
		l.OnItem(i)
	}
}

// ListenerCount reports how many listeners are registered for a stream id.
func (h *Hub) ListenerCount(streamID string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.listeners[streamID])
}
