// Package server implements the server-side SenSocial middleware of paper
// Figure 3: the server SenSocial Manager (stream creation and subscription
// for remote devices), the Trigger Manager (MQTT push of sense/config
// triggers), the server Filter Manager (cross-user conditions over
// incoming streams), aggregators, multicast streams over geographic and
// OSN queries, and the MongoDB-backed registry of users, devices,
// friendships and locations.
//
// The server is structured as composable subcomponents, each with its own
// lock domain, wired together by the Manager façade:
//
//   - ContextRegistry: user-sharded cross-user context cache + location
//     write memory (per-shard mutexes).
//   - FilterTable: copy-on-write filter/hook snapshots (lock-free reads).
//   - IngestPipeline (internal/core/server/ingest): bounded per-shard
//     worker queues partitioned by user, preserving per-user ordering while
//     distinct users process in parallel, with an explicit drop-on-overflow
//     policy.
//   - DeliveryHub: persist + hub publish + multicast refresh output stage.
//
// Every subcomponent registers its counters against the obs metrics
// registry passed in Options.Metrics (families sensocial_*, served on
// GET /metrics), and the item path is traced end to end when
// Options.Tracer is set: ingest.enqueue on broker receipt, then
// ingest.process → filter.eval → delivery.deliver → multicast.refresh on
// the shard worker. The registry is the only place a count is kept; read
// one with Metrics().Sum or off a GET /metrics scrape.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/core/server/ingest"
	"repro/internal/docstore"
	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/obs"
	"repro/internal/osn"
	"repro/internal/vclock"
)

// Collection names in the document store.
const (
	usersCollection   = "users"
	devicesCollection = "devices"
	streamsCollection = "streams"
	itemsCollection   = "items"
)

// Options configures the server manager.
type Options struct {
	// Clock supplies time; required.
	Clock vclock.Clock
	// Broker is the colocated MQTT broker; required.
	Broker *mqtt.Broker
	// Store is the document database; nil creates a fresh in-memory store.
	Store *docstore.Store
	// Places reverse-geocodes raw location uploads; nil disables geocoding
	// of raw fixes (classified location items carry the city already).
	Places *geo.PlaceDB
	// ProcessingDelay models the original pipeline's OSN-event handling
	// latency (Facebook app → PHP receiver → Java server → DB queries).
	// Table 3 measures ~8.9 s between server receipt and mobile sampling;
	// most of it is this pipeline, so experiments set it accordingly.
	// Zero means triggers dispatch immediately.
	ProcessingDelay time.Duration
	// ProcessingJitter adds a uniform random delay in [0, Jitter).
	ProcessingJitter time.Duration
	// PersistItems stores every received item in the document store
	// (Facebook Sensor Map's multi-user querying needs this).
	PersistItems bool
	// Seed makes jitter deterministic.
	Seed int64
	// Logger receives diagnostics; nil disables.
	Logger *slog.Logger
	// IngestShards is the number of parallel ingest workers (and context
	// registry shards). Items are partitioned by user, so per-user ordering
	// is preserved across any shard count. Non-positive selects
	// ingest.DefaultShards.
	IngestShards int
	// IngestQueueDepth bounds each shard's queue. When a queue is full
	// further items for its users are dropped and counted
	// (sensocial_ingest_dropped_total) rather than blocking the broker. Non-positive selects
	// ingest.DefaultQueueDepth.
	IngestQueueDepth int
	// Owns, when set, restricts ingest to users this shard owns under the
	// cluster's consistent-hash ring: stream items whose user hashes to a
	// different shard are skipped and counted instead of processed, so a
	// misrouted upload (or a bridged copy of another shard's traffic) never
	// double-writes registry or store state. Nil means single-shard
	// deployment: every user is local.
	Owns func(userID string) bool
	// Metrics is the observability registry every subcomponent registers
	// its counters against (served on GET /metrics). Nil creates a private
	// registry; share one registry across broker and server to get a single
	// scrape surface.
	Metrics *obs.Registry
	// Tracer records spans along the item path (served on GET /trace). Nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
}

// Manager is the server-side SenSocial Manager: a thin façade wiring the
// context registry, filter table, ingest pipeline and delivery hub
// together over the document store and the MQTT broker.
type Manager struct {
	clock   vclock.Clock
	store   *docstore.Store
	places  *geo.PlaceDB
	logger  *slog.Logger
	metrics *obs.Registry
	tracer  *obs.Tracer

	filterRejected     *obs.Counter
	multicastRefreshes *obs.Counter
	triggerSent        *obs.CounterVec
	foreignItems       *obs.Counter

	owns func(userID string) bool

	procDelay  time.Duration
	procJitter time.Duration
	persist    bool

	hub      *core.Hub
	registry *ContextRegistry
	filters  *FilterTable
	pipeline *ingest.Pipeline[core.Item]
	delivery *DeliveryHub

	brokerMu sync.Mutex
	broker   *mqtt.Broker

	rngMu sync.Mutex
	rng   *rand.Rand

	mcMu       sync.Mutex
	multicasts map[string]*MulticastStream

	closed atomic.Bool
	wg     sync.WaitGroup
}

// New builds the server manager and attaches it to the broker's stream
// data topics.
func New(opts Options) (*Manager, error) {
	if opts.Clock == nil {
		return nil, fmt.Errorf("server: clock required")
	}
	if opts.Broker == nil {
		return nil, fmt.Errorf("server: broker required")
	}
	if opts.Store == nil {
		opts.Store = docstore.NewStore()
	}
	shards := opts.IngestShards
	if shards <= 0 {
		shards = ingest.DefaultShards
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	m := &Manager{
		clock:      opts.Clock,
		store:      opts.Store,
		places:     opts.Places,
		logger:     opts.Logger,
		metrics:    metrics,
		tracer:     opts.Tracer,
		procDelay:  opts.ProcessingDelay,
		procJitter: opts.ProcessingJitter,
		persist:    opts.PersistItems,
		hub:        core.NewHub(),
		registry:   NewContextRegistry(shards, metrics),
		filters:    NewFilterTable(),
		rng:        rand.New(rand.NewSource(opts.Seed)),
		multicasts: make(map[string]*MulticastStream),
		owns:       opts.Owns,
	}
	m.filterRejected = metrics.Counter("sensocial_filter_rejected_total",
		"Items dropped by cross-user filter conditions.")
	m.multicastRefreshes = metrics.Counter("sensocial_multicast_refreshes_total",
		"Multicast membership refreshes triggered by location items.")
	m.triggerSent = metrics.CounterVec("sensocial_trigger_sent_total",
		"Triggers published to devices, by trigger kind.", "kind")
	m.foreignItems = metrics.Counter("sensocial_cluster_foreign_items_total",
		"Stream items skipped because the receiving shard does not own the user.")
	metrics.GaugeFunc("sensocial_filter_streams",
		"Stream filters installed in the copy-on-write filter table.",
		func() float64 { return float64(m.filters.Len()) })
	metrics.GaugeFunc("sensocial_multicast_streams",
		"Live multicast streams.",
		func() float64 {
			m.mcMu.Lock()
			defer m.mcMu.Unlock()
			return float64(len(m.multicasts))
		})
	m.delivery = NewDeliveryHub(m.store, m.hub, m.persist, m.logger, m.refreshMulticastsFor, metrics, m.tracer)
	pipeline, err := ingest.New(shards, opts.IngestQueueDepth, partitionKey, m.processItem,
		ingest.WithMetrics(metrics), ingest.WithClock(m.clock))
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	m.pipeline = pipeline
	// Index the registry the way §5.5 prescribes for MongoDB: secondary
	// indexes for common queries plus a geospatial index on user location.
	users := m.store.Collection(usersCollection)
	if err := users.CreateGeoIndex("loc"); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := users.CreateIndex("city"); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := m.store.Collection(devicesCollection).CreateIndex("user"); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	// Every FilterDownloader request asks for one device's stream configs.
	if err := m.store.Collection(streamsCollection).CreateIndex("device"); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	// A journal-backed store may arrive with recovered users; rebuild the
	// in-memory context registry from their stored locations so cross-user
	// filters and multicast queries see last-known state immediately after
	// a durable restart (on a fresh store this is a no-op).
	if err := m.warmContexts(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := m.AttachBroker(opts.Broker); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return m, nil
}

// warmContexts repopulates the context registry's location memory from the
// user registry (the durable recovery path; see docs/DURABILITY.md).
func (m *Manager) warmContexts() error {
	docs, err := m.store.Collection(usersCollection).Find(nil,
		docstore.FindOpts{SortBy: docstore.IDField})
	if err != nil {
		return fmt.Errorf("warm contexts: %w", err)
	}
	for _, d := range docs {
		id, _ := d[docstore.IDField].(string)
		loc, ok := d["loc"].(map[string]any)
		if id == "" || !ok {
			continue
		}
		lat, _ := loc["lat"].(float64)
		lon, _ := loc["lon"].(float64)
		city, _ := d["city"].(string)
		m.registry.RememberLocation(id, geo.Point{Lat: lat, Lon: lon}, city)
	}
	return nil
}

// partitionKey routes an item to its pipeline shard: by user so per-user
// ordering is preserved, falling back to device then stream for items
// without an owner.
func partitionKey(item core.Item) string {
	if item.UserID != "" {
		return item.UserID
	}
	if item.DeviceID != "" {
		return item.DeviceID
	}
	return item.StreamID
}

// AttachBroker binds the manager to a broker: stream data subscriptions
// are installed and triggers publish through it. Call again after a broker
// restart to re-attach (deployments that restart Mosquitto do exactly
// this).
func (m *Manager) AttachBroker(b *mqtt.Broker) error {
	if b == nil {
		return fmt.Errorf("server: attach: nil broker")
	}
	if err := b.SubscribeLocal(core.StreamDataFilter(), m.onStreamData); err != nil {
		return err
	}
	m.brokerMu.Lock()
	m.broker = b
	m.brokerMu.Unlock()
	return nil
}

// currentBroker returns the attached broker.
func (m *Manager) currentBroker() *mqtt.Broker {
	m.brokerMu.Lock()
	defer m.brokerMu.Unlock()
	return m.broker
}

// Store exposes the underlying document store (applications run their own
// queries against it, as Facebook Sensor Map does).
func (m *Manager) Store() *docstore.Store { return m.store }

// Metrics exposes the observability registry the server's counters live in
// (served on GET /metrics).
func (m *Manager) Metrics() *obs.Registry { return m.metrics }

// Tracer exposes the span tracer; nil when tracing is disabled.
func (m *Manager) Tracer() *obs.Tracer { return m.tracer }

// RegisterUser adds a user to the registry; idempotent, also when several
// devices of a new user register at once. A known user costs one read;
// otherwise the insert decides, and losing a race to another insert of the
// same user is success.
func (m *Manager) RegisterUser(userID string) error {
	if userID == "" {
		return fmt.Errorf("server: register user: empty id")
	}
	users := m.store.Collection(usersCollection)
	if _, err := users.Get(userID); err == nil {
		return nil
	}
	_, err := users.Insert(docstore.Doc{docstore.IDField: userID, "friends": []any{}})
	if err != nil && !errors.Is(err, docstore.ErrDuplicateID) {
		return fmt.Errorf("server: register user %q: %w", userID, err)
	}
	return nil
}

// RegisterDevice binds a device to a user, registering the user if needed.
func (m *Manager) RegisterDevice(userID, deviceID string) error {
	if deviceID == "" {
		return fmt.Errorf("server: register device: empty id")
	}
	if err := m.RegisterUser(userID); err != nil {
		return err
	}
	devices := m.store.Collection(devicesCollection)
	if _, err := devices.Upsert(
		docstore.Doc{docstore.IDField: deviceID},
		docstore.Doc{docstore.IDField: deviceID, "user": userID},
	); err != nil {
		return fmt.Errorf("server: register device %q: %w", deviceID, err)
	}
	return nil
}

// DevicesOf returns the device ids registered to a user, sorted by id.
func (m *Manager) DevicesOf(userID string) ([]string, error) {
	docs, err := m.store.Collection(devicesCollection).Find(
		docstore.Doc{"user": userID}, docstore.FindOpts{SortBy: docstore.IDField})
	if err != nil {
		return nil, fmt.Errorf("server: devices of %q: %w", userID, err)
	}
	out := make([]string, 0, len(docs))
	for _, d := range docs {
		id, ok := d[docstore.IDField].(string)
		if ok {
			out = append(out, id)
		}
	}
	return out, nil
}

// SyncFriendships mirrors an OSN graph's friendship edges into the user
// registry ("the server component uses a MongoDB database to store ...
// user's OSN friendship"). Unknown users are registered.
func (m *Manager) SyncFriendships(g *osn.Graph) error {
	if g == nil {
		return fmt.Errorf("server: sync friendships: nil graph")
	}
	users := m.store.Collection(usersCollection)
	for _, u := range g.Users() {
		if err := m.RegisterUser(u); err != nil {
			return err
		}
		friends := g.Friends(u)
		arr := make([]any, len(friends))
		for i, f := range friends {
			arr[i] = f
		}
		if _, err := users.Update(
			docstore.Doc{docstore.IDField: u},
			docstore.Doc{"$set": docstore.Doc{"friends": arr}},
		); err != nil {
			return fmt.Errorf("server: sync friendships of %q: %w", u, err)
		}
	}
	return nil
}

// FriendsOf returns a user's friends from the registry.
func (m *Manager) FriendsOf(userID string) ([]string, error) {
	doc, err := m.store.Collection(usersCollection).Get(userID)
	if err != nil {
		return nil, fmt.Errorf("server: friends of %q: %w", userID, err)
	}
	arr, _ := doc["friends"].([]any)
	out := make([]string, 0, len(arr))
	for _, f := range arr {
		if s, ok := f.(string); ok {
			out = append(out, s)
		}
	}
	return out, nil
}

// UpdateUserLocation stores a user's latest position and city.
func (m *Manager) UpdateUserLocation(userID string, pt geo.Point, city string) error {
	update := docstore.Doc{"$set": docstore.Doc{
		"loc":  docstore.Doc{"lat": pt.Lat, "lon": pt.Lon},
		"city": city,
	}}
	n, err := m.store.Collection(usersCollection).Update(
		docstore.Doc{docstore.IDField: userID}, update)
	if err != nil {
		return fmt.Errorf("server: update location of %q: %w", userID, err)
	}
	if n == 0 {
		return fmt.Errorf("server: update location of %q: unknown user", userID)
	}
	m.registry.RememberLocation(userID, pt, city)
	return nil
}

// UserLocation returns a user's last known position and city.
func (m *Manager) UserLocation(userID string) (geo.Point, string, error) {
	doc, err := m.store.Collection(usersCollection).Get(userID)
	if err != nil {
		return geo.Point{}, "", fmt.Errorf("server: location of %q: %w", userID, err)
	}
	city, _ := doc["city"].(string)
	loc, ok := doc["loc"].(map[string]any)
	if !ok {
		return geo.Point{}, city, nil
	}
	lat, _ := loc["lat"].(float64)
	lon, _ := loc["lon"].(float64)
	return geo.Point{Lat: lat, Lon: lon}, city, nil
}

// UsersInCity returns users whose latest classified location is the city.
func (m *Manager) UsersInCity(city string) ([]string, error) {
	docs, err := m.store.Collection(usersCollection).Find(
		docstore.Doc{"city": city}, docstore.FindOpts{SortBy: docstore.IDField})
	if err != nil {
		return nil, fmt.Errorf("server: users in %q: %w", city, err)
	}
	return docIDs(docs), nil
}

// UsersNear returns users within radiusMeters of a point (MongoDB-style
// geospatial query over the geo-indexed registry).
func (m *Manager) UsersNear(center geo.Point, radiusMeters float64) ([]string, error) {
	docs, err := m.store.Collection(usersCollection).Find(docstore.Doc{
		"loc": docstore.Doc{"$near": docstore.Doc{
			"lat": center.Lat, "lon": center.Lon, "$maxDistance": radiusMeters,
		}},
	}, docstore.FindOpts{SortBy: docstore.IDField})
	if err != nil {
		return nil, fmt.Errorf("server: users near %v: %w", center, err)
	}
	return docIDs(docs), nil
}

func docIDs(docs []docstore.Doc) []string {
	out := make([]string, 0, len(docs))
	for _, d := range docs {
		if id, ok := d[docstore.IDField].(string); ok {
			out = append(out, id)
		}
	}
	return out
}

// Context returns a copy of the server's cross-user context cache, merged
// across registry shards.
func (m *Manager) Context() core.Context {
	return m.registry.SnapshotAll()
}

// Registry exposes the sharded context registry (read-mostly diagnostics;
// the ingest pipeline is the writer).
func (m *Manager) Registry() *ContextRegistry { return m.registry }

// RegisterListener subscribes an application listener to a stream id (or
// core.Wildcard). Items arrive after server-side filtering.
func (m *Manager) RegisterListener(streamID string, l core.Listener) error {
	return m.hub.Register(streamID, l)
}

// OnItem registers a coarse hook invoked for every accepted item
// (experiments use it for timing). Hooks run on the ingest shard worker of
// the item's user.
func (m *Manager) OnItem(f func(core.Item)) {
	m.filters.AddHook(f)
}

// CreateAggregator wires an aggregator over source streams and registers
// it on the hub.
func (m *Manager) CreateAggregator(id string, sourceStreamIDs ...string) (*core.Aggregator, error) {
	agg, err := core.NewAggregator(id, sourceStreamIDs...)
	if err != nil {
		return nil, err
	}
	for _, s := range sourceStreamIDs {
		if err := m.hub.Register(s, agg); err != nil {
			return nil, err
		}
	}
	return agg, nil
}

// Close stops background work: the ingest pipeline drains its accepted
// backlog and its workers exit, then pending OSN trigger dispatches finish.
// The broker is owned by the caller.
func (m *Manager) Close() error {
	if m.closed.CompareAndSwap(false, true) {
		m.pipeline.Close()
	}
	m.wg.Wait()
	return nil
}

func (m *Manager) logf(msg string, args ...any) {
	if m.logger != nil {
		m.logger.Debug(msg, args...)
	}
}
