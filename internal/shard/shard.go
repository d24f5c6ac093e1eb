// Package shard assembles one member of a SenSocial ring — what a single
// sensocial-server process holds and nothing else: the MQTT broker
// (Mosquitto's role), the server middleware attached to it, the HTTP
// endpoints (the PHP scripts' role), the bridge to its peers, the journals
// of a durable deployment, and its own metrics registry and tracer.
//
// It is the only place those pieces are wired together. The transport is
// injected: Options.Listen is the netsim fabric's Listen in the simulator
// (internal/sim builds one Shard per ring member) and net.Listen("tcp", ·)
// in cmd/sensocial-server, so the teardown order, the crash-recovery path
// and the /metrics contract the simulator's tests pin hold for the process
// people start.
package shard

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core/server"
	"repro/internal/docstore"
	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// Options configures a shard. Beyond Listen, every field is a value the
// simulator's Options or a sensocial-server flag already carried.
type Options struct {
	// ID names the shard in the ring and on the bridge; empty when
	// unsharded.
	ID string
	// Ring decides which users the shard ingests for: only those it assigns
	// to ID. Nil means every user (an unsharded server).
	Ring *cluster.Ring
	// Listen binds the broker and HTTP listeners; required.
	Listen func(addr string) (net.Listener, error)
	// BrokerAddr and HTTPAddr are the addresses handed to Listen.
	BrokerAddr, HTTPAddr string
	// Clock drives everything; required.
	Clock vclock.Clock
	// Seed makes the server's processing jitter deterministic.
	Seed int64
	// Places is the reverse-geocoding database; nil disables geocoding.
	Places *geo.PlaceDB
	// ProcessingDelay/Jitter model the original pipeline's OSN-handling
	// latency before triggers go out.
	ProcessingDelay, ProcessingJitter time.Duration
	// PersistItems stores received items in the document store.
	PersistItems bool
	// IngestShards is the number of ingest workers (zero keeps the
	// default).
	IngestShards int
	// TraceCapacity enables span tracing with a ring buffer of that many
	// spans; zero leaves it off.
	TraceCapacity int
	// DurableDir, when non-empty, journals the document store and the
	// broker's session state to write-ahead logs under it (subdirectories
	// "docstore" and "broker"); see docs/DURABILITY.md.
	DurableDir string
	// Logger receives broker and server diagnostics; nil disables them.
	Logger *slog.Logger
}

// Shard is one running ring member. Registries are per shard because a real
// shard is a process with its own /metrics, and because ingest counters are
// get-or-create by family and label: a shared registry would silently merge
// same-named series into ring-wide sums.
type Shard struct {
	ID string
	// BrokerAddr and HTTPAddr are the bound addresses (so ":0" works);
	// HTTPAddr is the configured one until StartHTTP binds it.
	BrokerAddr, HTTPAddr string
	// Broker is replaced by RestartBroker.
	Broker *mqtt.Broker
	Server *server.Manager
	// Bridge meshes Broker with every peer's; nil until StartBridge is given
	// a peer.
	Bridge  *cluster.Bridge
	Metrics *obs.Registry
	// Tracer is nil unless Options.TraceCapacity was positive.
	Tracer *obs.Tracer
	// ClusterMetrics holds the sensocial_cluster_* families. They are
	// registered for every ring size so the series documented in
	// docs/OBSERVABILITY.md appear on /metrics even unsharded; only a bridge
	// increments them.
	ClusterMetrics *cluster.Metrics

	opts Options
	dead atomic.Bool

	// Durability: store and sessions are non-nil only when
	// Options.DurableDir was set. walMetrics is registered unconditionally
	// so the sensocial_wal_* families appear on /metrics in every mode.
	walMetrics *wal.Metrics
	store      *docstore.Store

	// serveWG tracks every listener-serve goroutine (broker accept loops,
	// the HTTP server) so Stop joins them instead of leaking acceptors into
	// whatever runs next in the process.
	serveWG sync.WaitGroup

	mu       sync.Mutex
	sessions *mqtt.SessionStore
	brokerL  net.Listener
	httpSrv  *http.Server
	httpL    net.Listener
}

// New opens the journals, builds the broker and serves it on BrokerAddr, and
// builds the server middleware on top. On error whatever was opened is
// released again.
func New(opts Options) (*Shard, error) {
	if opts.Clock == nil || opts.Listen == nil {
		return nil, fmt.Errorf("shard: clock and listen function required")
	}
	metrics := obs.NewRegistry()
	sh := &Shard{
		ID:             opts.ID,
		BrokerAddr:     opts.BrokerAddr,
		HTTPAddr:       opts.HTTPAddr,
		Metrics:        metrics,
		ClusterMetrics: cluster.NewMetrics(metrics),
		opts:           opts,
		walMetrics:     wal.NewMetrics(metrics),
	}
	if err := sh.start(); err != nil {
		sh.Stop()
		return nil, err
	}
	return sh, nil
}

func (sh *Shard) start() (err error) {
	opts := sh.opts
	var owns func(userID string) bool
	ringSize := 1
	if ring := opts.Ring; ring != nil {
		// A shard missing from the ring (self is -1) owns no user.
		self := slices.Index(ring.Shards(), opts.ID)
		owns = func(userID string) bool { return ring.OwnerIndex(userID) == self }
		ringSize = len(ring.Shards())
	}
	sh.ClusterMetrics.RingShards.Set(float64(ringSize))
	if opts.TraceCapacity > 0 {
		sh.Tracer = obs.NewTracer(opts.Clock, opts.TraceCapacity)
	}
	if opts.DurableDir != "" {
		sh.store, _, err = docstore.OpenDurable(filepath.Join(opts.DurableDir, "docstore"),
			wal.Options{Clock: opts.Clock, Metrics: sh.walMetrics})
		if err != nil {
			return fmt.Errorf("durable store: %w", err)
		}
		// Compact what recovery replayed before anything writes, so the
		// next start replays only what this run journals.
		if err := sh.store.Checkpoint(); err != nil {
			return fmt.Errorf("durable store: checkpoint: %w", err)
		}
	}
	if err := sh.serveBroker(); err != nil {
		return err
	}
	sh.BrokerAddr = sh.brokerL.Addr().String()
	sh.Server, err = server.New(server.Options{
		Clock:            opts.Clock,
		Store:            sh.store,
		Broker:           sh.Broker,
		Places:           opts.Places,
		ProcessingDelay:  opts.ProcessingDelay,
		ProcessingJitter: opts.ProcessingJitter,
		PersistItems:     opts.PersistItems,
		Seed:             opts.Seed,
		Logger:           opts.Logger,
		IngestShards:     opts.IngestShards,
		Owns:             owns,
		Metrics:          sh.Metrics,
		Tracer:           sh.Tracer,
	})
	return err
}

// serveBroker opens (in a durable deployment: recovers) the session journal,
// builds a broker over it and serves it on BrokerAddr. Registering against
// the shard's registry again after a restart repoints the connection gauges
// at the fresh broker and lets its counters continue the same series — a
// restart is invisible on /metrics except for the dip.
func (sh *Shard) serveBroker() error {
	opts := sh.opts
	var sessions *mqtt.SessionStore
	if opts.DurableDir != "" {
		var err error
		sessions, err = mqtt.OpenSessionStore(filepath.Join(opts.DurableDir, "broker"),
			wal.Options{Clock: opts.Clock, Metrics: sh.walMetrics})
		if err != nil {
			return fmt.Errorf("session store: %w", err)
		}
	}
	broker := mqtt.NewBroker(mqtt.BrokerOptions{Clock: opts.Clock, Logger: opts.Logger,
		Metrics: sh.Metrics, Tracer: sh.Tracer, State: sessions})
	l, err := opts.Listen(sh.BrokerAddr)
	sh.mu.Lock()
	sh.Broker, sh.sessions = broker, sessions
	if err == nil {
		sh.brokerL = l
	}
	sh.mu.Unlock()
	if err != nil {
		return fmt.Errorf("mqtt listen: %w", err)
	}
	sh.serve(func() { _ = broker.Serve(l) })
	return nil
}

// serve runs f on a tracked goroutine; Stop waits for every tracked serve
// loop after the listeners feeding them are closed.
func (sh *Shard) serve(f func()) {
	sh.serveWG.Add(1)
	go func() {
		defer sh.serveWG.Done()
		f()
	}()
}

// Alive reports whether the shard has not been stopped.
func (sh *Shard) Alive() bool { return !sh.dead.Load() }

// StartHTTP serves the server's HTTP surface on HTTPAddr. A second call is a
// no-op; on a stopped shard it is an error.
func (sh *Shard) StartHTTP() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.Alive() {
		return fmt.Errorf("shard: start http: %s is stopped", sh.ID)
	}
	if sh.httpSrv != nil {
		return nil
	}
	l, err := sh.opts.Listen(sh.HTTPAddr)
	if err != nil {
		return fmt.Errorf("shard: http listen: %w", err)
	}
	srv := &http.Server{Handler: sh.Server.HTTPHandler()}
	sh.serve(func() { _ = srv.Serve(l) })
	sh.httpSrv, sh.httpL, sh.HTTPAddr = srv, l, l.Addr().String()
	return nil
}

// StartBridge meshes the broker with the given peers' brokers by
// summary-gated bridges (DESIGN.md §12). With no peers it does nothing: a
// bridge's catch-all hook would sit on the broker's route path for nothing.
func (sh *Shard) StartBridge(peers []cluster.Peer) (err error) {
	if len(peers) == 0 {
		return nil
	}
	sh.Bridge, err = cluster.NewBridge(cluster.BridgeOptions{
		ShardID: sh.ID,
		Broker:  sh.Broker,
		Peers:   peers,
		Clock:   sh.opts.Clock,
		Metrics: sh.ClusterMetrics,
	})
	return err
}

// RestartBroker models a broker (Mosquitto) death and restart: the current
// broker and its listener are torn down, a fresh broker binds the same
// address, and the server middleware re-attaches to it. Clients built with
// the reconnecting link recover on their own; plain clients stay dead, as
// they would in the original system. The bridge is not re-attached, so a
// member of a larger ring is lost by Stop instead. On a stopped shard it is
// an error.
//
// Without Options.DurableDir the replacement broker starts empty (retained
// messages, subscriptions and in-flight QoS 1 deliveries are lost exactly
// as with an unpersisted Mosquitto). With DurableDir set this is a full
// crash-recovery path: the session journal is killed mid-write (un-fsynced
// appends are dropped, like SIGKILL), reopened from disk, and the new
// broker recovers retained messages, persistent subscriptions and unacked
// QoS 1 deliveries per the contract in docs/DURABILITY.md.
func (sh *Shard) RestartBroker() error {
	if !sh.Alive() {
		return fmt.Errorf("shard: restart broker: %s is stopped", sh.ID)
	}
	sh.mu.Lock()
	oldL, oldB, oldSess := sh.brokerL, sh.Broker, sh.sessions
	sh.mu.Unlock()
	// Kill the journal first so late writes from the dying broker's
	// goroutines fail harmlessly instead of racing recovery.
	if oldSess != nil {
		oldSess.Crash()
	}
	_ = oldL.Close()
	_ = oldB.Close()
	if err := sh.serveBroker(); err != nil {
		return fmt.Errorf("shard: restart broker: %w", err)
	}
	if err := sh.Server.AttachBroker(sh.Broker); err != nil {
		return fmt.Errorf("shard: restart broker: %w", err)
	}
	return nil
}

// BrokerSessionStore returns the broker's durable session state, or nil
// for in-memory deployments. After RestartBroker it is the recovered
// store, not the crashed one.
func (sh *Shard) BrokerSessionStore() *mqtt.SessionStore {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions
}

// DurableStore returns the journal-backed document store, or nil for
// in-memory deployments.
func (sh *Shard) DurableStore() *docstore.Store { return sh.store }

// Stop is the one way a shard goes down, whether alone (a crashed process
// disappearing from the ring, a signalled sensocial-server) or with a whole
// simulated deployment. Its bridge closes first, so no peer is ever
// mid-handshake into a broker that will never answer. Then the listeners:
// new dials are refused, which keeps surviving shards' bridge redialers and
// the fleet's reconnects in clean backoff instead of wedged mid-handshake.
// Then the broker drops every session — only after the last session reader
// has returned does the server drain its pipeline, so no item is enqueued
// behind a worker that has already exited — the serve loops are joined and
// the journals are flushed and closed. Safe on a partially built shard and
// idempotent.
func (sh *Shard) Stop() {
	if !sh.dead.CompareAndSwap(false, true) {
		return
	}
	if sh.Bridge != nil {
		_ = sh.Bridge.Close()
	}
	sh.mu.Lock()
	httpSrv, httpL, brokerL, broker, sessions := sh.httpSrv, sh.httpL, sh.brokerL, sh.Broker, sh.sessions
	sh.mu.Unlock()
	if httpSrv != nil {
		_ = httpSrv.Close()
		_ = httpL.Close()
	}
	if brokerL != nil {
		_ = brokerL.Close()
	}
	if broker != nil {
		_ = broker.Close()
	}
	if sh.Server != nil {
		_ = sh.Server.Close()
	}
	// Every listener is shut, so each tracked serve loop's Accept has failed
	// by now; the join is what keeps repeated build-run-Stop cycles
	// (RestartBroker tests, experiment sweeps) from accumulating acceptor
	// goroutines.
	sh.serveWG.Wait()
	// Clean shutdown of the journals: flush and fsync everything, so a
	// later New over the same DurableDir replays a complete history. The
	// broker and server are already down, so no appender races the close.
	if sessions != nil {
		_ = sessions.Close()
	}
	if sh.store != nil {
		_ = sh.store.Close()
	}
}
