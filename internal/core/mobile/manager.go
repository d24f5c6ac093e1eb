// Package mobile implements the client-side SenSocial middleware of paper
// Figure 3: the SenSocial Manager (the application's point of entry), the
// Sensor Manager (backed by the sensing package), the Filter Manager, the
// Privacy Policy Manager, and the MQTT trigger service that receives
// remote stream configurations and OSN-action sense triggers from the
// server.
package mobile

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mqtt"
	"repro/internal/sensing"
	"repro/internal/sensors"
)

// StreamStatus is the lifecycle state of a stream on the device.
type StreamStatus string

// StreamStatus values. Paused streams exist but do not sample — the state a
// stream enters when it fails a privacy screen ("such a stream is moved
// back to the working state later when it clears the privacy check").
const (
	StatusActive StreamStatus = "active"
	StatusPaused StreamStatus = "paused"
)

// Options configures the mobile manager.
type Options struct {
	// Device hosts the middleware.
	Device *device.Device
	// Classifiers turn raw readings into context labels; required.
	Classifiers *classify.Registry
	// Privacy is the privacy policy descriptor; nil allows everything
	// (convenient for benchmarks; real applications should pass one).
	Privacy *core.PrivacyDescriptor
	// BrokerAddr is the MQTT broker address reachable through the device's
	// fabric. Empty runs the middleware offline: local streams only, no
	// triggers.
	BrokerAddr string
	// HTTPAddr is the server's HTTP address, used by the FilterDownloader
	// path (config-pull triggers). Optional.
	HTTPAddr string
	// Reconnect maintains the broker session across failures with backoff
	// and subscription replay instead of going permanently offline when
	// the link drops.
	Reconnect bool
	// Logger receives diagnostics; nil disables.
	Logger *slog.Logger
}

// Manager is the mobile-side SenSocial Manager.
type Manager struct {
	dev     *device.Device
	reg     *classify.Registry
	privacy *core.PrivacyDescriptor
	logger  *slog.Logger

	hub        *core.Hub
	sensing    *sensing.Manager
	client     brokerLink // nil when offline
	httpBase   string
	httpClient *http.Client

	mu       sync.Mutex
	streams  map[string]*runtimeStream
	ctx      core.Context // latest classified context per modality
	onNotify []func(string)
	closed   bool
}

type runtimeStream struct {
	cfg    core.StreamConfig
	status StreamStatus
	sub    *sensing.Subscription // non-nil for active continuous streams
}

// New builds and starts the mobile middleware. When BrokerAddr is set the
// manager connects, subscribes to its trigger topic and serves remote
// management until Close.
func New(opts Options) (*Manager, error) {
	if opts.Device == nil {
		return nil, fmt.Errorf("mobile: device required")
	}
	if opts.Classifiers == nil {
		return nil, fmt.Errorf("mobile: classifier registry required")
	}
	if opts.Privacy == nil {
		opts.Privacy = core.AllowAll(sensors.Modalities())
	}
	sm, err := sensing.NewManager(opts.Device)
	if err != nil {
		return nil, fmt.Errorf("mobile: %w", err)
	}
	m := &Manager{
		dev:     opts.Device,
		reg:     opts.Classifiers,
		privacy: opts.Privacy,
		logger:  opts.Logger,
		hub:     core.NewHub(),
		sensing: sm,
		streams: make(map[string]*runtimeStream),
		ctx:     make(core.Context),
	}
	m.privacy.OnChange(m.rescreenAll)
	if opts.HTTPAddr != "" {
		m.httpBase = opts.HTTPAddr
		m.httpClient = m.newHTTPClient()
	}

	if opts.BrokerAddr != "" {
		clientOpts := mqtt.ClientOptions{
			ClientID:  opts.Device.ID(),
			KeepAlive: time.Minute,
			Clock:     opts.Device.Clock(),
		}
		var client brokerLink
		if opts.Reconnect {
			rd, err := mqtt.NewRedialer(func() (net.Conn, error) {
				return opts.Device.Dial(opts.BrokerAddr)
			}, clientOpts)
			if err != nil {
				return nil, fmt.Errorf("mobile: connect broker: %w", err)
			}
			client = rd
		} else {
			conn, err := opts.Device.Dial(opts.BrokerAddr)
			if err != nil {
				return nil, fmt.Errorf("mobile: connect broker: %w", err)
			}
			c, err := mqtt.Connect(conn, clientOpts)
			if err != nil {
				return nil, fmt.Errorf("mobile: connect broker: %w", err)
			}
			client = c
		}
		m.client = client
		if err := client.Subscribe(core.DeviceTriggerTopic(m.dev.ID()), 1, m.onTrigger); err != nil {
			_ = client.Close()
			return nil, fmt.Errorf("mobile: subscribe triggers: %w", err)
		}
	}
	return m, nil
}

// brokerLink is the broker session surface the manager needs; satisfied by
// both mqtt.Client (single session) and mqtt.Redialer (self-healing).
type brokerLink interface {
	Publish(topic string, payload []byte, qos byte, retain bool) error
	Subscribe(filter string, qos byte, h mqtt.Handler) error
	Close() error
}

var (
	_ brokerLink = (*mqtt.Client)(nil)
	_ brokerLink = (*mqtt.Redialer)(nil)
)

// DeviceID returns the hosting device's id (getUserId/getDevice in the
// paper's Figure 7 snippet).
func (m *Manager) DeviceID() string { return m.dev.ID() }

// UserID returns the device owner's id.
func (m *Manager) UserID() string { return m.dev.UserID() }

// Device exposes the underlying device (examples read its meters).
func (m *Manager) Device() *device.Device { return m.dev }

// CreateStream instantiates a stream from a configuration: the Figure 7
// pattern `user.getDevice().getStream(modality, granularity)` followed by
// `setFilter`. The configuration is screened by the Privacy Policy Manager;
// a failing stream is created in the paused state.
func (m *Manager) CreateStream(cfg core.StreamConfig) error {
	if cfg.DeviceID == "" {
		cfg.DeviceID = m.dev.ID()
	}
	if cfg.UserID == "" {
		cfg.UserID = m.dev.UserID()
	}
	if cfg.DeviceID != m.dev.ID() {
		return fmt.Errorf("mobile: stream %q targets device %q, this is %q", cfg.ID, cfg.DeviceID, m.dev.ID())
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("mobile: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("mobile: manager closed")
	}
	if _, exists := m.streams[cfg.ID]; exists {
		return fmt.Errorf("mobile: stream %q already exists", cfg.ID)
	}
	rs := &runtimeStream{cfg: cfg, status: StatusPaused}
	m.streams[cfg.ID] = rs
	if err := m.privacy.Screen(cfg); err != nil {
		m.logf("stream paused by privacy screen", "stream", cfg.ID, "reason", err)
		return nil // created, but paused (paper semantics)
	}
	m.activateLocked(rs)
	return nil
}

// UpdateStream replaces a stream's configuration in place (remote
// reconfiguration path), re-screening and restarting it.
func (m *Manager) UpdateStream(cfg core.StreamConfig) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("mobile: %w", err)
	}
	var old *sensing.Subscription
	defer func() {
		if old != nil {
			old.Wait()
		}
	}()
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.streams[cfg.ID]
	if !ok {
		return fmt.Errorf("mobile: stream %q not found", cfg.ID)
	}
	old = m.deactivateLocked(rs)
	rs.cfg = cfg
	if err := m.privacy.Screen(cfg); err != nil {
		m.logf("stream paused by privacy screen", "stream", cfg.ID, "reason", err)
		return nil
	}
	m.activateLocked(rs)
	return nil
}

// RemoveStream destroys a stream.
func (m *Manager) RemoveStream(id string) error {
	var old *sensing.Subscription
	defer func() {
		if old != nil {
			old.Wait()
		}
	}()
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.streams[id]
	if !ok {
		return fmt.Errorf("mobile: stream %q not found", id)
	}
	old = m.deactivateLocked(rs)
	delete(m.streams, id)
	m.hub.Unregister(id)
	return nil
}

// RegisterListener is the paper's registerListener(): the subscriber side
// of the publish-subscribe API. Use core.Wildcard to hear every stream.
func (m *Manager) RegisterListener(streamID string, l core.Listener) error {
	return m.hub.Register(streamID, l)
}

// OnNotify registers a handler for application-level notify triggers
// pushed by the server (e.g. Figure 2's "friend arrived" notification).
func (m *Manager) OnNotify(f func(message string)) {
	if f == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onNotify = append(m.onNotify, f)
}

// StreamStatus reports a stream's state.
func (m *Manager) StreamStatus(id string) (StreamStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.streams[id]
	if !ok {
		return "", fmt.Errorf("mobile: stream %q not found", id)
	}
	return rs.status, nil
}

// StreamConfigs returns a snapshot of all stream configurations.
func (m *Manager) StreamConfigs() []core.StreamConfig {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]core.StreamConfig, 0, len(m.streams))
	for _, rs := range m.streams {
		out = append(out, rs.cfg)
	}
	return out
}

// Context returns a copy of the latest classified context snapshot.
func (m *Manager) Context() core.Context {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(core.Context, len(m.ctx))
	for k, v := range m.ctx {
		out[k] = v
	}
	return out
}

// Close stops all streams and disconnects from the broker.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	var waits []*sensing.Subscription
	for _, rs := range m.streams {
		if sub := m.deactivateLocked(rs); sub != nil {
			waits = append(waits, sub)
		}
	}
	m.mu.Unlock()
	for _, sub := range waits {
		sub.Wait()
	}
	m.sensing.Close()
	if m.client != nil {
		return m.client.Close()
	}
	return nil
}

// activateLocked starts a stream's sampling machinery.
func (m *Manager) activateLocked(rs *runtimeStream) {
	rs.status = StatusActive
	if rs.cfg.Kind != core.KindContinuous {
		return // social-event streams sample on trigger only
	}
	cfg := rs.cfg
	sub, err := m.sensing.Subscribe(cfg.Modality, sensing.Settings{
		Interval:  cfg.SampleInterval,
		DutyCycle: cfg.EffectiveDutyCycle(),
	}, func(r sensors.Reading) {
		m.handleSample(cfg, r, nil)
	})
	if err != nil {
		// Validation happened earlier; a failure here means the manager is
		// closing. Leave the stream paused.
		rs.status = StatusPaused
		m.logf("stream activation failed", "stream", cfg.ID, "err", err)
		return
	}
	rs.sub = sub
}

// deactivateLocked cancels a stream's sampling and returns the old
// subscription, which the caller must Wait on AFTER releasing m.mu: the
// sampling callback takes m.mu (refreshContext), so waiting for the loop
// under the lock deadlocks whenever a sample is mid-flight.
func (m *Manager) deactivateLocked(rs *runtimeStream) *sensing.Subscription {
	sub := rs.sub
	if sub != nil {
		sub.Cancel()
		rs.sub = nil
	}
	rs.status = StatusPaused
	return sub
}

// rescreenAll re-evaluates every stream against the privacy descriptor
// (invoked on every policy change).
func (m *Manager) rescreenAll() {
	var waits []*sensing.Subscription
	defer func() {
		for _, sub := range waits {
			sub.Wait()
		}
	}()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	for _, rs := range m.streams {
		err := m.privacy.Screen(rs.cfg)
		switch {
		case err == nil && rs.status == StatusPaused:
			m.activateLocked(rs)
			m.logf("stream resumed after privacy change", "stream", rs.cfg.ID)
		case err != nil && rs.status == StatusActive:
			if sub := m.deactivateLocked(rs); sub != nil {
				waits = append(waits, sub)
			}
			m.logf("stream paused after privacy change", "stream", rs.cfg.ID, "reason", err)
		}
	}
}

func (m *Manager) logf(msg string, args ...any) {
	if m.logger != nil {
		m.logger.Debug(msg, args...)
	}
}
