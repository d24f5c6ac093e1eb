package sim

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core/server"
	"repro/internal/docstore"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// ShardID names shard i the way every surface spells it: ring ids, bridge
// host names ("shard<i>-bridge"), chaos kill targets, trace dump headers.
func ShardID(i int) string { return fmt.Sprintf("shard%d", i) }

// shardHost is the fabric host shard i of n binds. A ring of one keeps the
// name "server" that fault schedules partition on and clients dial
// (BrokerAddr, HTTPAddr); larger rings use the shard id.
func shardHost(i, n int) string {
	if n == 1 {
		return "server"
	}
	return ShardID(i)
}

// Shard is one member of the ring — what a single sensocial-server process
// holds: the MQTT broker, the server middleware attached to it, the bridge
// to its peers, and its own metrics registry, tracer and journals. Registries
// are per shard because a real shard is a process with its own /metrics, and
// because ingest counters are get-or-create by family and label: a shared
// registry would silently merge same-named series into ring-wide sums.
type Shard struct {
	ID         string
	BrokerAddr string
	HTTPAddr   string
	// Broker is replaced by RestartBroker.
	Broker *mqtt.Broker
	Server *server.Manager
	// Bridge meshes Broker with every peer's; nil in a ring of one.
	Bridge  *cluster.Bridge
	Metrics *obs.Registry
	// Tracer is nil unless Options.TraceCapacity was positive.
	Tracer *obs.Tracer
	// ClusterMetrics holds the sensocial_cluster_* families. They are
	// registered for every ring size so the series documented in
	// docs/OBSERVABILITY.md appear on /metrics even for one-shard runs; only
	// a bridge increments them.
	ClusterMetrics *cluster.Metrics

	clock  vclock.Clock
	fabric *netsim.Network
	dead   atomic.Bool

	// Durability: store and sessions are non-nil only when
	// Options.DurableDir was set. walMetrics is registered unconditionally
	// so the sensocial_wal_* families appear on /metrics in every mode.
	walMetrics *wal.Metrics
	durableDir string
	store      *docstore.Store

	// serveWG tracks every listener-serve goroutine (broker accept loops,
	// the HTTP server) so stop joins them instead of leaking acceptors into
	// whatever runs next in the process.
	serveWG sync.WaitGroup

	mu       sync.Mutex
	sessions *mqtt.SessionStore
	brokerL  net.Listener
	httpSrv  *http.Server
	httpL    net.Listener
}

// newShard builds and starts shard i of the deployment. On error the
// partially built shard is still returned so the caller's Close releases
// whatever was opened.
func newShard(s *Simulation, i int, opts Options) (*Shard, error) {
	host := shardHost(i, opts.Shards)
	metrics := obs.NewRegistry()
	sh := &Shard{
		ID:             ShardID(i),
		BrokerAddr:     host + ":1883",
		HTTPAddr:       host + ":8080",
		Metrics:        metrics,
		ClusterMetrics: cluster.NewMetrics(metrics),
		clock:          opts.Clock,
		fabric:         s.Fabric,
		walMetrics:     wal.NewMetrics(metrics),
		durableDir:     opts.DurableDir,
	}
	if opts.TraceCapacity > 0 {
		sh.Tracer = obs.NewTracer(opts.Clock, opts.TraceCapacity)
	}
	if opts.DurableDir != "" {
		var err error
		sh.store, _, err = docstore.OpenDurable(filepath.Join(opts.DurableDir, "docstore"),
			docstore.DurableOptions{Clock: opts.Clock, Metrics: sh.walMetrics})
		if err != nil {
			return sh, fmt.Errorf("durable store: %w", err)
		}
		sh.sessions, err = mqtt.OpenSessionStore(filepath.Join(opts.DurableDir, "broker"),
			mqtt.SessionStoreOptions{Clock: opts.Clock, Metrics: sh.walMetrics})
		if err != nil {
			return sh, fmt.Errorf("session store: %w", err)
		}
	}

	sh.Broker = mqtt.NewBroker(mqtt.BrokerOptions{Clock: opts.Clock, Metrics: metrics, Tracer: sh.Tracer, State: sh.sessions})
	l, err := s.Fabric.Listen(sh.BrokerAddr)
	if err != nil {
		return sh, err
	}
	sh.brokerL = l
	broker := sh.Broker
	sh.serve(func() { _ = broker.Serve(l) })

	// Distinct per-shard seeds keep shard-local randomness (processing
	// jitter) decorrelated while staying reproducible.
	seed := opts.Seed + int64(i)*1009
	ring := s.Ring
	sh.Server, err = server.New(server.Options{
		Clock:            opts.Clock,
		Store:            sh.store,
		Broker:           sh.Broker,
		Places:           opts.Places,
		ProcessingDelay:  opts.ServerProcessingDelay,
		ProcessingJitter: opts.ServerProcessingJitter,
		PersistItems:     opts.PersistItems,
		Seed:             seed + 1,
		IngestShards:     opts.IngestShards,
		IngestQueueDepth: opts.IngestQueueDepth,
		Owns:             func(userID string) bool { return ring.OwnerIndex(userID) == i },
		Metrics:          metrics,
		Tracer:           sh.Tracer,
	})
	return sh, err
}

// serve runs f on a tracked goroutine; stop waits for every tracked serve
// loop after the listeners feeding them are closed.
func (sh *Shard) serve(f func()) {
	sh.serveWG.Add(1)
	go func() {
		defer sh.serveWG.Done()
		f()
	}()
}

// Alive reports whether the shard has not been killed or closed.
func (sh *Shard) Alive() bool { return !sh.dead.Load() }

// StartHTTP serves the server's HTTP surface on the fabric at HTTPAddr.
func (sh *Shard) StartHTTP() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.httpSrv != nil {
		return nil
	}
	l, err := sh.fabric.Listen(sh.HTTPAddr)
	if err != nil {
		return fmt.Errorf("sim: http listen: %w", err)
	}
	srv := &http.Server{Handler: sh.Server.HTTPHandler()}
	sh.serve(func() { _ = srv.Serve(l) })
	sh.httpSrv, sh.httpL = srv, l
	return nil
}

// RestartBroker simulates a broker (Mosquitto) death and restart: the
// current broker and its listener are torn down, a fresh broker binds the
// same address, and the server middleware re-attaches to it. Clients built
// with the reconnecting link recover on their own; plain clients stay
// dead, as they would in the original system. The bridge is not re-attached,
// so in a ring of more than one a shard is lost via KillShard instead.
//
// Without Options.DurableDir the replacement broker starts empty (retained
// messages, subscriptions and in-flight QoS 1 deliveries are lost exactly
// as with an unpersisted Mosquitto). With DurableDir set this is a full
// crash-recovery path: the session journal is killed mid-write (un-fsynced
// appends are dropped, like SIGKILL), reopened from disk, and the new
// broker recovers retained messages, persistent subscriptions and unacked
// QoS 1 deliveries per the contract in docs/DURABILITY.md.
func (sh *Shard) RestartBroker() error {
	sh.mu.Lock()
	oldL, oldB, oldSess := sh.brokerL, sh.Broker, sh.sessions
	sh.mu.Unlock()
	// Kill the journal first so late writes from the dying broker's
	// goroutines fail harmlessly instead of racing recovery.
	var sessions *mqtt.SessionStore
	if oldSess != nil {
		oldSess.Crash()
	}
	_ = oldL.Close()
	_ = oldB.Close()
	if oldSess != nil {
		var err error
		sessions, err = mqtt.OpenSessionStore(filepath.Join(sh.durableDir, "broker"),
			mqtt.SessionStoreOptions{Clock: sh.clock, Metrics: sh.walMetrics})
		if err != nil {
			return fmt.Errorf("sim: restart broker: recover sessions: %w", err)
		}
	}
	// Re-registering against the shard's registry repoints the connection
	// gauges at the fresh broker and lets its counters continue the same
	// series — a restart is invisible on /metrics except for the dip.
	broker := mqtt.NewBroker(mqtt.BrokerOptions{Clock: sh.clock, Metrics: sh.Metrics, Tracer: sh.Tracer, State: sessions})
	l, err := sh.fabric.Listen(sh.BrokerAddr)
	if err != nil {
		return fmt.Errorf("sim: restart broker: %w", err)
	}
	sh.serve(func() { _ = broker.Serve(l) })
	if err := sh.Server.AttachBroker(broker); err != nil {
		return fmt.Errorf("sim: restart broker: %w", err)
	}
	sh.mu.Lock()
	sh.Broker = broker
	sh.brokerL = l
	sh.sessions = sessions
	sh.mu.Unlock()
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

// stop is the one way a shard goes down, whether alone (KillShard: a
// crashed process disappearing from the ring) or with the deployment
// (Close). Its bridge closes first, so no peer is ever mid-handshake into a
// broker that will never answer. Then the listeners: new dials are refused,
// which keeps surviving shards' bridge redialers and the fleet's reconnects
// in clean backoff instead of wedged mid-handshake. Then the broker drops
// every session, the server drains its pipeline, the serve loops are joined
// and the journals are flushed and closed. The fabric and the fleet are the
// deployment's and are left untouched. Safe on a partially built shard and
// idempotent.
func (sh *Shard) stop() {
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
	// by now; the join is what keeps repeated build-run-Close cycles
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
