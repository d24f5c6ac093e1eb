package server

import (
	"log/slog"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/obs"
)

// DeliveryHub is the output stage of the ingest pipeline: it persists an
// accepted item (when configured), runs the coarse per-item hooks, fans the
// item out on the publish-subscribe hub, and kicks geo-based multicast
// refresh. It owns no locks of its own — the hub has its own, and the
// multicast refresh callback takes the manager's multicast lock — so a slow
// listener never stalls context updates or filter evaluation.
type DeliveryHub struct {
	store   *docstore.Store
	hub     *core.Hub
	persist bool
	logger  *slog.Logger
	tracer  *obs.Tracer
	// refresh is invoked after publication with the delivery span as
	// parent (the manager wires multicast membership refresh here); nil
	// disables.
	refresh func(core.Item, obs.SpanID)

	persisted       *obs.Counter
	published       *obs.Counter
	persistFailures *obs.Counter
}

// NewDeliveryHub builds the output stage. Counters register against
// metrics (families sensocial_delivery_*); nil metrics uses a private
// registry. A nil tracer disables the delivery.deliver span.
func NewDeliveryHub(store *docstore.Store, hub *core.Hub, persist bool, logger *slog.Logger,
	refresh func(core.Item, obs.SpanID), metrics *obs.Registry, tracer *obs.Tracer) *DeliveryHub {
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	return &DeliveryHub{
		store:   store,
		hub:     hub,
		persist: persist,
		logger:  logger,
		tracer:  tracer,
		refresh: refresh,
		persisted: metrics.Counter("sensocial_delivery_persisted_total",
			"Items written to the document store."),
		published: metrics.Counter("sensocial_delivery_published_total",
			"Items fanned out on the publish-subscribe hub."),
		persistFailures: metrics.Counter("sensocial_delivery_persist_failures_total",
			"Item writes the document store rejected."),
	}
}

// Deliver runs the output stage for one accepted item. hooks is the
// immutable hook slice from the filter-table snapshot current at filter
// time; parent is the enclosing ingest.process span (0 outside a trace).
//
//sensolint:hotpath
func (d *DeliveryHub) Deliver(item core.Item, hooks []func(core.Item), parent obs.SpanID) {
	sp := d.tracer.Start("delivery.deliver", parent)
	sp.SetAttr("stream", item.StreamID)
	if d.persist {
		d.persistItem(item)
	}
	for _, h := range hooks {
		h(item)
	}
	d.hub.Publish(item)
	d.published.Inc()
	if d.refresh != nil {
		d.refresh(item, sp.ID())
	}
	sp.End()
}

// persistItem stores one item in the document store (Facebook Sensor Map's
// multi-user querying needs this).
func (d *DeliveryHub) persistItem(item core.Item) {
	doc := docstore.Doc{
		"stream":      item.StreamID,
		"device":      item.DeviceID,
		"user":        item.UserID,
		"modality":    item.Modality,
		"granularity": string(item.Granularity),
		"time":        item.Time.UnixMilli(),
		"classified":  item.Classified,
	}
	if item.Action != nil {
		doc["action"] = docstore.Doc{
			"id": item.Action.ID, "type": string(item.Action.Type),
			"text": item.Action.Text, "network": item.Action.Network,
		}
	}
	if len(item.Raw) > 0 {
		doc["raw"] = string(item.Raw)
	}
	if _, err := d.store.Collection(itemsCollection).Insert(doc); err != nil {
		d.persistFailures.Inc()
		if d.logger != nil {
			d.logger.Debug("persist item failed", "stream", item.StreamID, "err", err)
		}
		return
	}
	d.persisted.Inc()
}
