package server

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/mqtt"
	"repro/internal/osn"
	"repro/internal/sensors"
)

// CreateRemoteStream creates (or reconfigures) a stream on a remote device:
// the configuration is recorded in the registry and pushed to the device as
// an XML config trigger (paper §4, Remote Stream Management).
func (m *Manager) CreateRemoteStream(cfg core.StreamConfig) error {
	if err := m.recordRemoteStream(&cfg); err != nil {
		return err
	}
	xml, err := config.EncodeStreams([]core.StreamConfig{cfg})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return m.sendTrigger(core.Trigger{
		Kind:      core.TriggerConfig,
		DeviceID:  cfg.DeviceID,
		ConfigXML: xml,
	})
}

// CreateRemoteStreamViaDownload records the stream like CreateRemoteStream
// but, instead of pushing the XML inline, sends a config-pull trigger so
// the device fetches its configuration document from the HTTP endpoint —
// the paper's FilterDownloader flow.
func (m *Manager) CreateRemoteStreamViaDownload(cfg core.StreamConfig) error {
	if err := m.recordRemoteStream(&cfg); err != nil {
		return err
	}
	return m.sendTrigger(core.Trigger{
		Kind:     core.TriggerConfigPull,
		DeviceID: cfg.DeviceID,
	})
}

// recordRemoteStream validates the configuration, stores it in the stream
// registry (replacing any previous version) and installs its filter in the
// copy-on-write filter table.
func (m *Manager) recordRemoteStream(cfg *core.StreamConfig) error {
	if cfg.Deliver == "" {
		cfg.Deliver = core.DeliverServer
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if cfg.DeviceID == "" {
		return fmt.Errorf("server: remote stream %q needs a device id", cfg.ID)
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("server: encode stream %q: %w", cfg.ID, err)
	}
	if _, err := m.store.Collection(streamsCollection).Upsert(
		docstore.Doc{docstore.IDField: cfg.ID},
		docstore.Doc{docstore.IDField: cfg.ID, "device": cfg.DeviceID, "config": string(cfgJSON)},
	); err != nil {
		return fmt.Errorf("server: record stream %q: %w", cfg.ID, err)
	}
	m.filters.Set(cfg.ID, cfg.Filter)
	return nil
}

// DestroyRemoteStream removes a server-created stream from its device and
// the registry.
func (m *Manager) DestroyRemoteStream(streamID string) error {
	streams := m.store.Collection(streamsCollection)
	doc, err := streams.Get(streamID)
	if err != nil {
		return fmt.Errorf("server: destroy stream %q: %w", streamID, err)
	}
	deviceID, _ := doc["device"].(string)
	if _, err := streams.Delete(docstore.Doc{docstore.IDField: streamID}); err != nil {
		return fmt.Errorf("server: destroy stream %q: %w", streamID, err)
	}
	m.filters.Delete(streamID)
	m.hub.Unregister(streamID)
	return m.sendTrigger(core.Trigger{
		Kind:      core.TriggerRemove,
		DeviceID:  deviceID,
		StreamIDs: []string{streamID},
	})
}

// StreamConfigsForDevice returns the server-created stream configurations
// targeting a device (the FilterDownloader HTTP endpoint serves these).
func (m *Manager) StreamConfigsForDevice(deviceID string) ([]core.StreamConfig, error) {
	docs, err := m.store.Collection(streamsCollection).Find(
		docstore.Doc{"device": deviceID}, docstore.FindOpts{SortBy: docstore.IDField})
	if err != nil {
		return nil, fmt.Errorf("server: stream configs for %q: %w", deviceID, err)
	}
	out := make([]core.StreamConfig, 0, len(docs))
	for _, d := range docs {
		s, ok := d["config"].(string)
		if !ok {
			continue
		}
		var cfg core.StreamConfig
		if err := json.Unmarshal([]byte(s), &cfg); err != nil {
			return nil, fmt.Errorf("server: decode stream config %v: %w", d[docstore.IDField], err)
		}
		out = append(out, cfg)
	}
	return out, nil
}

// NotifyDevice pushes an application-level message to a device.
func (m *Manager) NotifyDevice(deviceID, message string) error {
	return m.sendTrigger(core.Trigger{
		Kind:     core.TriggerNotify,
		DeviceID: deviceID,
		Message:  message,
	})
}

// OnOSNAction is the entry point for OSN plug-in deliveries (the PHP
// FacebookReceiver / Twitter poller equivalent). After the configured
// processing delay it sends a sense trigger — carrying the action JSON — to
// every device of the acting user (paper §4: "The relevant client(s) are
// selected and the Trigger Manager compiles the OSN action and the relevant
// device information in a JSON-formatted string passed to the Mosquitto
// broker").
func (m *Manager) OnOSNAction(a osn.Action) {
	if m.closed.Load() {
		return
	}
	delay := m.procDelay
	if m.procJitter > 0 {
		m.rngMu.Lock()
		delay += time.Duration(m.rng.Float64() * float64(m.procJitter))
		m.rngMu.Unlock()
	}
	// OSN activity is context for cross-user filters too.
	ctxMod := core.CtxFacebookActivity
	if a.Network == "twitter" {
		ctxMod = core.CtxTwitterActivity
	}
	if err := m.registry.Set(a.UserID, ctxMod, core.OSNActive); err != nil {
		m.logf("osn action: context not recorded", "err", err)
	}
	m.wg.Add(1)

	go func() {
		defer m.wg.Done()
		if delay > 0 {
			m.clock.Sleep(delay)
		}
		devices, err := m.DevicesOf(a.UserID)
		if err != nil {
			m.logf("osn action: device lookup failed", "user", a.UserID, "err", err)
			return
		}
		action := a
		for _, dev := range devices {
			if err := m.sendTrigger(core.Trigger{
				Kind:     core.TriggerSense,
				DeviceID: dev,
				Action:   &action,
			}); err != nil {
				m.logf("sense trigger failed", "device", dev, "err", err)
			}
		}
	}()
}

// sendTrigger hands a trigger to the colocated broker.
func (m *Manager) sendTrigger(t core.Trigger) error {
	payload, err := t.Encode()
	if err != nil {
		return err
	}
	err = m.currentBroker().PublishLocal(mqtt.Message{
		Topic:   core.DeviceTriggerTopic(t.DeviceID),
		Payload: payload,
		QoS:     1,
	})
	if err == nil {
		m.triggerSent.WithLabelValues(string(t.Kind)).Inc()
	}
	return err
}

// onStreamData is the server Filter Manager's intake: every item uploaded
// by any device arrives here via the broker and is handed to the sharded
// ingest pipeline.
func (m *Manager) onStreamData(msg mqtt.Message) {
	sp := m.tracer.Start("ingest.enqueue", 0)
	defer sp.End()
	item, err := core.DecodeItem(msg.Payload)
	if err != nil {
		m.logf("bad stream item", "err", err)
		return
	}
	sp.SetAttr("stream", item.StreamID)
	sp.SetAttr("user", item.UserID)
	if m.owns != nil && item.UserID != "" && !m.owns(item.UserID) {
		m.foreignItems.Inc()
		sp.SetAttr("foreign", "true")
		return
	}
	if !m.Ingest(item) {
		sp.SetAttr("dropped", "true")
		m.logf("ingest overflow", "stream", item.StreamID, "user", item.UserID)
	}
}

// Ingest enqueues one decoded item on its user's pipeline shard. It reports
// whether the item was accepted; false means the shard's bounded queue was
// full (or the manager closed) and the drop was counted on the registry — the
// pipeline never blocks the caller. Exposed for in-process pipelines
// (tests, single-binary sims).
func (m *Manager) Ingest(item core.Item) bool {
	return m.pipeline.Enqueue(item)
}

// processItem runs registry updates, cross-user filtering and delivery for
// one item on its shard's worker goroutine. Items of one user are processed
// in submission order; distinct users proceed in parallel.
//
//sensolint:hotpath
func (m *Manager) processItem(item core.Item) {
	sp := m.tracer.Start("ingest.process", 0)
	defer sp.End()
	sp.SetAttr("stream", item.StreamID)
	sp.SetAttr("user", item.UserID)

	m.updateRegistryFromItem(item)
	m.registry.ApplyItem(item)

	// Cross-user conditions: the mobile already enforced same-user
	// conditions; the server filter manager enforces the rest ("streams
	// coming from one user can be conditioned on data coming from another
	// user"). The snapshot is one atomic load; each referenced user's
	// conditions are evaluated in place against that user's registry record.
	snap := m.filters.Snapshot()
	if cross := snap.filters[item.StreamID]; len(cross) > 0 {
		fsp := m.tracer.Start("filter.eval", sp.ID())
		fsp.SetAttr("stream", item.StreamID)
		for i := range cross {
			if !m.registry.evalUser(cross[i].userID, cross[i].conds) {
				m.filterRejected.Inc()
				fsp.SetAttr("rejected", "true")
				fsp.End()
				return
			}
		}
		fsp.End()
	}

	m.delivery.Deliver(item, snap.hooks, sp.ID())
}

// updateRegistryFromItem keeps the user location registry current from
// location streams ("the user's geographic location is updated
// periodically"). Writes that would not change the stored point and city
// are skipped and counted instead of hitting the document store.
func (m *Manager) updateRegistryFromItem(item core.Item) {
	if item.Modality != sensors.ModalityLocation || item.UserID == "" {
		return
	}
	switch item.Granularity {
	case core.GranularityRaw:
		var fix sensors.LocationReading
		if err := json.Unmarshal(item.Raw, &fix); err != nil {
			return
		}
		city := ""
		if m.places != nil {
			city = m.places.ReverseGeocode(fix.Point())
		}
		if m.registry.LocationUnchanged(item.UserID, fix.Point(), city) {
			return
		}
		if err := m.UpdateUserLocation(item.UserID, fix.Point(), city); err != nil {
			m.logf("location update failed", "user", item.UserID, "err", err)
		}
	case core.GranularityClassified:
		// Classified location is a city name; keep the previous raw point.
		// The registry remembers it after the first write (or a durable
		// restart); before that it is read from the user document.
		pt, ok := m.registry.lastPoint(item.UserID)
		if !ok {
			var err error
			if pt, _, err = m.UserLocation(item.UserID); err != nil {
				return
			}
		}
		if m.registry.LocationUnchanged(item.UserID, pt, item.Classified) {
			return
		}
		if err := m.UpdateUserLocation(item.UserID, pt, item.Classified); err != nil {
			m.logf("location update failed", "user", item.UserID, "err", err)
		}
	}
}

// textClassifiers are shared across calls; both are immutable after
// construction.
var textClassifiers = struct {
	sentiment *classify.SentimentClassifier
	topics    *classify.TopicClassifier
}{classify.NewSentimentClassifier(), classify.NewTopicClassifier(nil)}

// ClassifyActionText runs the server-side OSN text classifiers (topic and
// sentiment — the paper's future-work components) over an action.
func (m *Manager) ClassifyActionText(a osn.Action) (sentiment string, topics []string) {
	return textClassifiers.sentiment.Classify(a.Text), textClassifiers.topics.Classify(a.Text)
}
