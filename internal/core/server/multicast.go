package server

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sensors"
)

// QueryKind selects how multicast members are chosen (paper §3.1: "the
// multicast stream can tap into the information about the geographic
// location of the users, or their OSN interconnectivity").
type QueryKind string

// QueryKind values.
const (
	QueryCity      QueryKind = "city"
	QueryNear      QueryKind = "near"
	QueryFriendsOf QueryKind = "friends-of"
)

// MemberQuery selects the users a multicast stream covers.
type MemberQuery struct {
	Kind QueryKind
	// City for QueryCity.
	City string
	// Center and RadiusMeters for QueryNear.
	Center       geo.Point
	RadiusMeters float64
	// UserID for QueryFriendsOf.
	UserID string
}

// Validate checks the query.
func (q MemberQuery) Validate() error {
	switch q.Kind {
	case QueryCity:
		if q.City == "" {
			return fmt.Errorf("server: multicast city query needs a city")
		}
	case QueryNear:
		if !q.Center.Valid() || q.RadiusMeters <= 0 {
			return fmt.Errorf("server: multicast near query needs a valid center and positive radius")
		}
	case QueryFriendsOf:
		if q.UserID == "" {
			return fmt.Errorf("server: multicast friends-of query needs a user")
		}
	default:
		return fmt.Errorf("server: unknown multicast query kind %q", q.Kind)
	}
	return nil
}

// MulticastStream abstracts related streams of multiple clients into a
// single entity: member selection by geo/OSN query, transparent filter
// distribution, and an aggregator that multiplexes member items.
//
// Lock domains: the manager's mcMu guards the multicast map and each
// stream's members map; opMu serializes whole membership operations
// (Refresh/SetFilter/Close) so concurrent ingest workers triggering
// refreshes for different users cannot double-create member streams. Lock
// order is opMu before mcMu, never the reverse.
type MulticastStream struct {
	id      string
	manager *Manager
	query   MemberQuery
	agg     *core.Aggregator

	// opMu serializes Refresh/SetFilter/Close.
	opMu sync.Mutex

	// template and members are guarded by manager.mcMu.
	template core.StreamConfig
	members  map[string][]string // userID -> per-device stream ids
}

// CreateMulticastStream instantiates a multicast stream: the template's
// modality/granularity/kind/interval/filter are applied per member device;
// per-device stream ids are derived as "<id>/<deviceID>". Membership is
// resolved immediately; call Refresh after movement or graph changes.
func (m *Manager) CreateMulticastStream(id string, template core.StreamConfig, q MemberQuery) (*MulticastStream, error) {
	if id == "" {
		return nil, fmt.Errorf("server: multicast stream needs an id")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	agg, err := core.NewAggregator(id)
	if err != nil {
		return nil, err
	}
	ms := &MulticastStream{
		id:       id,
		manager:  m,
		template: template,
		query:    q,
		agg:      agg,
		members:  make(map[string][]string),
	}
	m.mcMu.Lock()
	if _, exists := m.multicasts[id]; exists {
		m.mcMu.Unlock()
		return nil, fmt.Errorf("server: multicast stream %q already exists", id)
	}
	m.multicasts[id] = ms
	m.mcMu.Unlock()
	if err := ms.Refresh(); err != nil {
		m.mcMu.Lock()
		delete(m.multicasts, id)
		m.mcMu.Unlock()
		return nil, err
	}
	return ms, nil
}

// ID returns the multicast stream id.
func (ms *MulticastStream) ID() string { return ms.id }

// Register subscribes a listener to the aggregated member items.
func (ms *MulticastStream) Register(l core.Listener) error {
	return ms.agg.Register(l)
}

// Members returns the current member users, sorted.
func (ms *MulticastStream) Members() []string {
	ms.manager.mcMu.Lock()
	defer ms.manager.mcMu.Unlock()
	out := make([]string, 0, len(ms.members))
	for u := range ms.members {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// SetFilter updates the template filter and re-pushes configuration to
// every member ("filters set upon a multicast stream are transparently
// distributed to all the users encompassed by the multicast stream").
func (ms *MulticastStream) SetFilter(f core.Filter) error {
	if err := f.Validate(); err != nil {
		return err
	}
	ms.opMu.Lock()
	defer ms.opMu.Unlock()
	ms.manager.mcMu.Lock()
	ms.template.Filter = f
	members := make([]string, 0, len(ms.members))
	for u := range ms.members {
		members = append(members, u)
	}
	ms.manager.mcMu.Unlock()
	sort.Strings(members)
	for _, user := range members {
		if err := ms.pushToUser(user); err != nil {
			return err
		}
	}
	return nil
}

// Refresh re-evaluates the member query: streams are created on devices of
// new members and destroyed on departed ones (paper §3.2: "every time the
// person moves, a new geo-fenced location stream is created on the mobile
// devices of all the users who are currently nearby, and the previously
// created streams are removed").
func (ms *MulticastStream) Refresh() error {
	ms.opMu.Lock()
	defer ms.opMu.Unlock()
	users, err := ms.resolveMembers()
	if err != nil {
		return err
	}
	want := make(map[string]bool, len(users))
	for _, u := range users {
		want[u] = true
	}

	ms.manager.mcMu.Lock()
	var departed []string
	for u := range ms.members {
		if !want[u] {
			departed = append(departed, u)
		}
	}
	var joined []string
	for u := range want {
		if _, ok := ms.members[u]; !ok {
			joined = append(joined, u)
		}
	}
	ms.manager.mcMu.Unlock()
	sort.Strings(departed)
	sort.Strings(joined)

	for _, u := range departed {
		if err := ms.dropUser(u); err != nil {
			return err
		}
	}
	for _, u := range joined {
		if err := ms.pushToUser(u); err != nil {
			return err
		}
	}
	return nil
}

// Close destroys all member streams and removes the multicast.
func (ms *MulticastStream) Close() error {
	ms.opMu.Lock()
	defer ms.opMu.Unlock()
	for _, u := range ms.Members() {
		if err := ms.dropUser(u); err != nil {
			return err
		}
	}
	ms.manager.mcMu.Lock()
	delete(ms.manager.multicasts, ms.id)
	ms.manager.mcMu.Unlock()
	return nil
}

func (ms *MulticastStream) resolveMembers() ([]string, error) {
	switch ms.query.Kind {
	case QueryCity:
		return ms.manager.UsersInCity(ms.query.City)
	case QueryNear:
		return ms.manager.UsersNear(ms.query.Center, ms.query.RadiusMeters)
	case QueryFriendsOf:
		return ms.manager.FriendsOf(ms.query.UserID)
	default:
		return nil, fmt.Errorf("server: unknown multicast query kind %q", ms.query.Kind)
	}
}

// pushToUser creates/updates the per-device streams for one member. Callers
// hold opMu.
func (ms *MulticastStream) pushToUser(user string) error {
	devices, err := ms.manager.DevicesOf(user)
	if err != nil {
		return err
	}
	ms.manager.mcMu.Lock()
	template := ms.template
	ms.manager.mcMu.Unlock()
	var streamIDs []string
	for _, dev := range devices {
		cfg := template
		cfg.ID = ms.id + "/" + dev
		cfg.DeviceID = dev
		cfg.UserID = user
		if cfg.Deliver == "" {
			cfg.Deliver = core.DeliverServer
		}
		if err := ms.manager.CreateRemoteStream(cfg); err != nil {
			return fmt.Errorf("server: multicast %q: %w", ms.id, err)
		}
		ms.agg.AddSource(cfg.ID)
		if err := ms.manager.hub.Register(cfg.ID, ms.agg); err != nil {
			return err
		}
		streamIDs = append(streamIDs, cfg.ID)
	}
	ms.manager.mcMu.Lock()
	ms.members[user] = streamIDs
	ms.manager.mcMu.Unlock()
	return nil
}

// dropUser destroys the member's streams. Callers hold opMu.
func (ms *MulticastStream) dropUser(user string) error {
	ms.manager.mcMu.Lock()
	streamIDs := append([]string(nil), ms.members[user]...)
	delete(ms.members, user)
	ms.manager.mcMu.Unlock()
	for _, id := range streamIDs {
		ms.agg.RemoveSource(id)
		if err := ms.manager.DestroyRemoteStream(id); err != nil {
			return fmt.Errorf("server: multicast %q: %w", ms.id, err)
		}
	}
	return nil
}

// refreshMulticastsFor triggers membership refresh of geo-based multicast
// streams when a location item arrives (user movement). Runs on the item's
// ingest shard worker; the modality check keeps the non-location fast path
// lock-free. parent is the enclosing delivery span (0 outside a trace).
func (m *Manager) refreshMulticastsFor(item core.Item, parent obs.SpanID) {
	if item.Modality != sensors.ModalityLocation {
		return
	}
	m.mcMu.Lock()
	var todo []*MulticastStream
	for _, ms := range m.multicasts {
		if ms.query.Kind == QueryCity || ms.query.Kind == QueryNear {
			todo = append(todo, ms)
		}
	}
	m.mcMu.Unlock()
	if len(todo) == 0 {
		return
	}
	sp := m.tracer.Start("multicast.refresh", parent)
	sp.SetAttr("user", item.UserID)
	for _, ms := range todo {
		m.multicastRefreshes.Inc()
		if err := ms.Refresh(); err != nil {
			m.logf("multicast refresh failed", "multicast", ms.id, "err", err)
		}
	}
	sp.End()
}
