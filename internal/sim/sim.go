// Package sim assembles a complete SenSocial deployment in one process. A
// deployment is a consistent-hash ring of one or more shards on a single
// netsim fabric. The deployment owns what exists once — the clock, the
// fabric, the ring, the simulated OSNs with their plug-ins, the places
// database, the classifier registry and the device fleet (full per-user
// middleware stacks from AddUser, the struct-of-arrays pool from
// AddDevices). Each ring member is a shard.Shard, the same assembly a
// sensocial-server process runs, listening on the fabric instead of TCP; this
// package adds only the simulator's naming (ShardID, the "server" host of a
// ring of one). Options.Shards is the only difference between a single server
// and a cluster. The experiment harness, the integration
// tests, the examples, internal/chaos and cmd/sensocial-sim all build on it.
package sim

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/mobile"
	"repro/internal/device"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/shard"
	"repro/internal/vclock"
)

// ShardID names shard i the way every surface spells it: ring ids, bridge
// host names ("shard<i>-bridge"), chaos kill targets, trace dump headers.
func ShardID(i int) string { return fmt.Sprintf("shard%d", i) }

// shardHost is the fabric host shard i of n binds, on ports 1883 (broker)
// and 8080 (HTTP); the addresses are on Shard.BrokerAddr and Shard.HTTPAddr.
// A ring of one keeps the name "server" that fault schedules partition on;
// larger rings use the shard id.
func shardHost(i, n int) string {
	if n == 1 {
		return "server"
	}
	return ShardID(i)
}

// Default device<->server link shaping (the paper's "uncongested WiFi").
const (
	defaultMobileLatency = 40 * time.Millisecond
	defaultMobileJitter  = 10 * time.Millisecond
)

// Options configures a deployment.
type Options struct {
	// Clock drives everything; required.
	Clock vclock.Clock
	// Seed makes the whole simulation deterministic.
	Seed int64
	// Shards is the size of the ring (default 1). Every user is owned by
	// exactly one shard: its devices upload to that shard's broker, its OSN
	// actions are delivered to that shard's server, and the other shards
	// skip its items as foreign. With more than one shard the brokers are
	// meshed by summary-gated bridges (DESIGN.md §12).
	Shards int
	// Places is the reverse-geocoding database (default EuropeanCities).
	Places *geo.PlaceDB
	// MobileLink shapes device<->server traffic (default: 40 ms ± 10 ms,
	// an "uncongested WiFi network" as in the paper's delay measurements).
	MobileLink *netsim.Link
	// FacebookDelay models the OSN's notification latency (default:
	// osn.FacebookDelay, ~46 s). Tests can shrink it.
	FacebookDelay *osn.DelayModel
	// TwitterPollPeriod for the poll plug-in (default 15 s).
	TwitterPollPeriod time.Duration
	// ServerProcessingDelay/Jitter model the original pipeline's
	// OSN-handling latency before triggers go out (Table 3: ~8.9 s).
	ServerProcessingDelay  time.Duration
	ServerProcessingJitter time.Duration
	// PersistItems stores received items in the document store.
	PersistItems bool
	// IngestShards sizes each server's sharded ingest pipeline (zero keeps
	// the server default).
	IngestShards int
	// ActionTap, when set, observes every OSN action at the moment the
	// server receives it (the Table 3 experiment timestamps server
	// receipt with it).
	ActionTap func(osn.Action)
	// TraceCapacity enables span tracing with a per-shard ring buffer of
	// that many spans (served on GET /trace and readable via Shard.Tracer).
	// Zero leaves tracing off, which keeps the ingest fast path
	// allocation-free.
	TraceCapacity int
	// DurableDir, when non-empty, journals the document store and the
	// broker's session state (retained messages, persistent subscriptions,
	// QoS 1 in-flight deliveries) to write-ahead logs under this directory
	// (subdirectories "docstore" and "broker"). Shard.RestartBroker then
	// becomes a crash-recovery path, and a later New over the same
	// directory recovers the registry. See docs/DURABILITY.md. One-shard
	// deployments only: the directory holds one shard's journals.
	DurableDir string
	// UploadQoS is the MQTT QoS the pooled fleet behind AddDevices
	// publishes at (0 or 1). At QoS 1 a flush blocks on each PUBACK, so the
	// broker's receipt of every counted item is confirmed; publishes whose
	// acknowledgement is lost to a mid-flight fault are charged to
	// sensocial_sim_items_ack_lost_total and never resent (at-most-once —
	// resending could double-deliver: the broker acks after routing, so a
	// lost ack may follow a publish that was routed).
	UploadQoS byte
}

// Simulation is a running deployment.
type Simulation struct {
	Clock  vclock.Clock
	Fabric *netsim.Network
	// Ring decides which shard owns a user; its ids are ShardID(i).
	Ring   *cluster.Ring
	Shards []*shard.Shard

	Places   *geo.PlaceDB
	Graph    *osn.Graph
	Facebook *osn.Network
	Twitter  *osn.Network
	FBPlugin *osn.PushPlugin
	TWPlugin *osn.PollPlugin
	// Pool is the struct-of-arrays device pool; nil until AddDevices.
	Pool *DevicePool

	classifiers *classify.Registry
	seed        int64
	uploadQoS   byte

	// fleetMetrics carries the series of what the deployment owns (fabric,
	// pool, devices' energy). Those components have no process of their own
	// to scrape, so they are exported through shard 0's registry, which
	// keeps a one-shard deployment's GET /metrics complete.
	fleetMetrics *obs.Registry
	series       fleetSeries

	mu      sync.Mutex
	handles map[string]*Handle
}

// Handle bundles one user's device and mobile middleware.
type Handle struct {
	UserID  string
	Device  *device.Device
	Mobile  *mobile.Manager
	Profile *sensors.Profile
}

// New builds and starts a deployment.
func New(opts Options) (*Simulation, error) {
	if opts.Clock == nil {
		return nil, fmt.Errorf("sim: clock required")
	}
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("sim: need at least 1 shard, got %d", opts.Shards)
	}
	if opts.DurableDir != "" && opts.Shards > 1 {
		return nil, fmt.Errorf("sim: DurableDir is one-shard only: %d shards would interleave their journals in %s",
			opts.Shards, opts.DurableDir)
	}
	if opts.UploadQoS > 1 {
		return nil, fmt.Errorf("sim: UploadQoS %d, want 0 or 1", opts.UploadQoS)
	}
	if opts.Places == nil {
		opts.Places = geo.EuropeanCities()
	}
	link := netsim.Link{Latency: defaultMobileLatency, Jitter: defaultMobileJitter}
	if opts.MobileLink != nil {
		link = *opts.MobileLink
	}
	fbDelay := osn.FacebookDelay()
	if opts.FacebookDelay != nil {
		fbDelay = *opts.FacebookDelay
	}
	if opts.TwitterPollPeriod <= 0 {
		opts.TwitterPollPeriod = 15 * time.Second
	}

	ids := make([]string, opts.Shards)
	for i := range ids {
		ids[i] = ShardID(i)
	}
	ring, err := cluster.NewRing(ids, cluster.DefaultVirtualNodes)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	fabric := netsim.NewNetwork(opts.Clock, opts.Seed)
	fabric.SetDefaultLink(link)

	s := &Simulation{
		Clock:     opts.Clock,
		Fabric:    fabric,
		Ring:      ring,
		Places:    opts.Places,
		Graph:     osn.NewGraph(),
		seed:      opts.Seed,
		uploadQoS: opts.UploadQoS,
		handles:   make(map[string]*Handle),
	}
	fail := func(err error) (*Simulation, error) {
		s.Close()
		return nil, fmt.Errorf("sim: %w", err)
	}
	for i, id := range ids {
		host := shardHost(i, opts.Shards)
		sh, err := shard.New(shard.Options{
			ID:         id,
			Ring:       ring,
			Listen:     fabric.Listen,
			BrokerAddr: host + ":1883",
			HTTPAddr:   host + ":8080",
			Clock:      opts.Clock,
			// Distinct per-shard seeds keep shard-local randomness
			// (processing jitter) decorrelated while staying reproducible.
			Seed:             opts.Seed + int64(i)*1009 + 1,
			Places:           opts.Places,
			ProcessingDelay:  opts.ServerProcessingDelay,
			ProcessingJitter: opts.ServerProcessingJitter,
			PersistItems:     opts.PersistItems,
			IngestShards:     opts.IngestShards,
			TraceCapacity:    opts.TraceCapacity,
			DurableDir:       opts.DurableDir,
		})
		if err != nil {
			return fail(fmt.Errorf("%s: %w", id, err))
		}
		s.Shards = append(s.Shards, sh)
	}
	s.fleetMetrics = s.Shards[0].Metrics
	fabric.Instrument(s.fleetMetrics)
	s.series = newFleetSeries(s.fleetMetrics, opts.Shards)

	for _, sh := range s.Shards {
		var peers []cluster.Peer
		for _, peer := range s.Shards {
			if peer == sh {
				continue
			}
			host, addr := sh.ID+"-bridge", peer.BrokerAddr
			peers = append(peers, cluster.Peer{ID: peer.ID, Dial: func() (net.Conn, error) {
				return fabric.Dial(host, addr)
			}})
		}
		if err := sh.StartBridge(peers); err != nil {
			return fail(err)
		}
	}

	if s.Facebook, err = osn.NewNetwork("facebook", s.Graph); err != nil {
		return fail(err)
	}
	if s.Twitter, err = osn.NewNetwork("twitter", s.Graph); err != nil {
		return fail(err)
	}
	if s.classifiers, err = classify.DefaultRegistry(opts.Places); err != nil {
		return fail(err)
	}

	// An action goes to the server of the shard owning the acting user —
	// the shard AddUser registered that user's device with. Users of a
	// killed shard lose their OSN coupling along with everything else.
	toOwner := func(a osn.Action) {
		if sh := s.Owner(a.UserID); sh.Alive() {
			sh.Server.OnOSNAction(a)
		}
	}
	deliver := toOwner
	if tap := opts.ActionTap; tap != nil {
		deliver = func(a osn.Action) {
			tap(a)
			toOwner(a)
		}
	}
	if s.FBPlugin, err = osn.NewPushPlugin(s.Facebook, opts.Clock, fbDelay, opts.Seed+2, deliver); err != nil {
		return fail(err)
	}
	if s.TWPlugin, err = osn.NewPollPlugin(s.Twitter, opts.Clock, opts.TwitterPollPeriod, opts.Clock.Now(), deliver); err != nil {
		return fail(err)
	}
	return s, nil
}

// Owner returns the shard that owns a user under the ring.
func (s *Simulation) Owner(userID string) *shard.Shard {
	return s.Shards[s.Ring.OwnerIndex(userID)]
}

// AddDevices appends n devices to the pooled fleet (created on first use),
// each uploading to its ring owner's broker. Start the fleet with StartPool
// once the population is final. Devices that need the real middleware —
// privacy filters, OSN-coupled streams, triggers — come from AddUser.
func (s *Simulation) AddDevices(n int) error {
	if n <= 0 {
		return fmt.Errorf("sim: AddDevices(%d)", n)
	}
	s.mu.Lock()
	if s.Pool == nil {
		s.Pool = newDevicePool(s, s.uploadQoS)
	}
	pool := s.Pool
	s.mu.Unlock()
	return pool.AddDevices(n)
}

// StartPool begins pooled execution. It returns once the ring's bridge
// links are up too (see waitBridges), so the caller's first Advance cannot
// land mid-handshake.
func (s *Simulation) StartPool() error {
	if s.Pool == nil {
		return fmt.Errorf("sim: StartPool: no devices added")
	}
	if err := s.Pool.Start(); err != nil {
		return err
	}
	return s.waitBridges(30 * time.Second)
}

// Quiesce waits, in real time, until the deployment has drained what the
// fleet put in flight: the fabric holds no due-but-unread bytes, on every
// shard (dead ones included — a killed shard's pipeline drains on close, so
// its frozen counters still balance) the ingest pipeline has processed
// everything it accepted and queues nothing, and no ingest count moved across
// three consecutive polls. With a manual clock parked, delivery over
// delay-free paths is pure goroutine progress: the unread bytes cover a
// receiver that has not been scheduled yet, the stable window the hops
// between goroutines past the wire. Everything is read from the registries.
func (s *Simulation) Quiesce(timeout time.Duration) error {
	//lint:ignore wallclock quiesce polls real goroutine progress while virtual time is parked
	deadline := time.Now().Add(timeout)
	stable := 0
	var last [3]uint64
	for {
		var cur [3]uint64 // enqueued, processed, dropped
		pending := s.fleetMetrics.Sum("sensocial_netsim_unread_bytes")
		for _, sh := range s.Shards {
			cur[0] += sh.Metrics.Sum("sensocial_ingest_enqueued_total")
			cur[1] += sh.Metrics.Sum("sensocial_ingest_processed_total")
			cur[2] += sh.Metrics.Sum("sensocial_ingest_dropped_total")
			pending += sh.Metrics.Sum("sensocial_ingest_backlog")
		}
		if pending == 0 && cur[0] == cur[1] && cur == last {
			if stable++; stable >= 3 {
				return nil
			}
		} else {
			stable = 0
		}
		last = cur
		//lint:ignore wallclock see above: real-time deadline on background drain
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: not quiescent after %v (ingest enqueued=%d processed=%d dropped=%d, %d unread bytes or queued items)",
				timeout, cur[0], cur[1], cur[2], pending)
		}
		//lint:ignore wallclock see above: real-time backoff while goroutines drain
		time.Sleep(time.Millisecond)
	}
}

// waitBridges waits, in real time, until every shard's bridge has each
// peer link connected and subscribed, when every bridge path is delay-free
// (elsewhere the handshakes need the clock to move). An Advance landing
// while a link's SUBACK is still in flight in real time would fire its
// acknowledgement timeout on the virtual clock, drop the link, and leave
// the redial waiting on a backoff timer only a later advance fires.
func (s *Simulation) waitBridges(timeout time.Duration) error {
	for _, sh := range s.Shards {
		for _, peer := range s.Shards {
			if peer != sh && !s.Fabric.PathDelayFree(sh.ID+"-bridge", peer.BrokerAddr) {
				return nil
			}
		}
	}
	//lint:ignore wallclock the handshakes are real goroutine progress while virtual time is parked
	deadline := time.Now().Add(timeout)
	for _, sh := range s.Shards {
		for sh.Bridge != nil && !sh.Bridge.Linked() {
			//lint:ignore wallclock see above: real-time deadline on the handshakes
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: bridge not linked after %v", sh.ID, timeout)
			}
			//lint:ignore wallclock see above: real-time backoff while the handshakes run
			time.Sleep(50 * time.Microsecond)
		}
	}
	return nil
}

// Classifiers returns the default on-device classifier registry.
func (s *Simulation) Classifiers() *classify.Registry { return s.classifiers }

// AddUser registers a user with one device running the mobile middleware
// against the shard that owns the user. The device id is "<userID>-phone"
// and its fabric host matches. The user is registered with the OSN graph,
// the owner's server registry, and both OSN plug-ins.
func (s *Simulation) AddUser(userID string, profile *sensors.Profile) (*Handle, error) {
	return s.AddUserWithPrivacy(userID, profile, nil)
}

// AddUserWithPrivacy is AddUser with an explicit privacy descriptor.
func (s *Simulation) AddUserWithPrivacy(userID string, profile *sensors.Profile, privacy *core.PrivacyDescriptor) (*Handle, error) {
	if userID == "" {
		return nil, fmt.Errorf("sim: empty user id")
	}
	s.mu.Lock()
	if _, exists := s.handles[userID]; exists {
		s.mu.Unlock()
		return nil, fmt.Errorf("sim: user %q already exists", userID)
	}
	seed := s.seed + int64(len(s.handles))*7919
	s.mu.Unlock()

	sh := s.Owner(userID)
	deviceID := userID + "-phone"
	if err := s.Graph.AddUser(userID); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := sh.Server.RegisterDevice(userID, deviceID); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// The device reports into the registry and tracer of the shard it
	// uploads to, so one shard's /trace follows an item from device.sample
	// to delivery.
	dev, err := device.New(device.Config{
		ID:      deviceID,
		UserID:  userID,
		Clock:   s.Clock,
		Profile: profile,
		// The device's fabric host is its id, which fault patterns name.
		Dial:    func(addr string) (net.Conn, error) { return s.Fabric.Dial(deviceID, addr) },
		Seed:    seed,
		Metrics: sh.Metrics,
		Tracer:  sh.Tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	mgr, err := mobile.New(mobile.Options{
		Device:      dev,
		Classifiers: s.classifiers,
		Privacy:     privacy,
		BrokerAddr:  sh.BrokerAddr,
		HTTPAddr:    sh.HTTPAddr,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.FBPlugin.RegisterUser(userID)
	s.TWPlugin.RegisterUser(userID, s.Clock.Now())

	h := &Handle{UserID: userID, Device: dev, Mobile: mgr, Profile: profile}
	s.mu.Lock()
	s.handles[userID] = h
	s.mu.Unlock()
	s.series.devices.Add(1)
	return h, nil
}

// Handle returns a user's handle.
func (s *Simulation) Handle(userID string) (*Handle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.handles[userID]
	return h, ok
}

// HTTPClient returns an http.Client whose connections originate from the
// given fabric host.
func (s *Simulation) HTTPClient(fromHost string) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(_ context.Context, _, addr string) (net.Conn, error) {
				return s.Fabric.Dial(fromHost, addr)
			},
			// The fabric has one logical address space; avoid idle-conn
			// caching surprises across tests.
			DisableKeepAlives: true,
		},
		Timeout: 30 * time.Second,
	}
}

// KillShard permanently removes shard i, as a crashed-and-not-restarted
// process (see shard.Shard.Stop for the order). Survivors keep serving; their
// bridge redialers see refused dials and back off cleanly, and the fleet's
// devices owned by the dead shard degrade to bounded buffering.
func (s *Simulation) KillShard(i int) error {
	if i < 0 || i >= len(s.Shards) {
		return fmt.Errorf("sim: cannot kill shard %d of %d", i, len(s.Shards))
	}
	if !s.Shards[i].Alive() {
		return fmt.Errorf("sim: shard %d already dead", i)
	}
	s.Shards[i].Stop()
	for _, sh := range s.Shards {
		sh.ClusterMetrics.RingShards.Add(-1)
	}
	return nil
}

// Close tears the deployment down: the OSN plug-ins stop generating, then
// every bridge closes before any broker dies (a surviving bridge's redialer
// must never be left mid-CONNECT into a dead-but-listening peer), then each
// live shard stops exactly as KillShard stops one, and only then the fleet
// and the fabric under it — devices outlive their shard on both paths.
func (s *Simulation) Close() {
	if s.FBPlugin != nil {
		s.FBPlugin.Close()
	}
	if s.TWPlugin != nil {
		s.TWPlugin.Close()
	}
	for _, sh := range s.Shards {
		if sh.Bridge != nil {
			_ = sh.Bridge.Close()
		}
	}
	for _, sh := range s.Shards {
		sh.Stop()
	}
	s.mu.Lock()
	pool := s.Pool
	handles := make([]*Handle, 0, len(s.handles))
	for _, h := range s.handles {
		handles = append(handles, h)
	}
	s.mu.Unlock()
	if pool != nil {
		pool.Close()
	}
	for _, h := range handles {
		_ = h.Mobile.Close()
	}
	_ = s.Fabric.Close()
}
