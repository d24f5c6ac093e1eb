// Command sensocial-server runs the server side of SenSocial as a
// standalone process on real TCP: the MQTT broker (Mosquitto's role), the
// middleware server component, and the HTTP endpoints (the PHP scripts'
// role). Mobile middleware instances — real or simulated — connect over the
// network.
//
// Usage:
//
//	sensocial-server [-mqtt :1883] [-http :8080] [-trace-capacity 4096] [-durable DIR]
//	sensocial-server -shard-id shard0 -shard-peers shard1=10.0.0.2:1883,shard2=10.0.0.3:1883
//
// With -shard-id and -shard-peers the process joins a consistent-hash
// sharded cluster (DESIGN.md §12): it only ingests stream items for users
// the ring assigns to it, and its broker bridges to every peer broker,
// forwarding a publish across a link only when the peer's subscription
// summary matches. Every member must be started with the same ring
// membership (its own ID plus the others as peers).
//
// With -durable DIR the registry document store and the broker's session
// state (retained messages, persistent subscriptions, QoS 1 in-flight
// deliveries) journal to write-ahead logs under DIR and are recovered on
// the next start; see docs/DURABILITY.md for the recovery contract.
//
// The HTTP surface includes GET /metrics (Prometheus text) and GET /trace
// (span dump); see docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/core/server"
	"repro/internal/docstore"
	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wal"
)

func main() {
	mqttAddr := flag.String("mqtt", ":1883", "MQTT broker listen address")
	httpAddr := flag.String("http", ":8080", "HTTP listen address")
	shards := flag.Int("ingest-shards", 0, "ingest pipeline shards (0 = default)")
	queueDepth := flag.Int("ingest-queue", 0, "per-shard ingest queue depth (0 = default)")
	fanoutQueue := flag.Int("mqtt-fanout-queue", 0, "per-session MQTT delivery queue bound (0 = default)")
	traceCap := flag.Int("trace-capacity", 0, "span ring-buffer capacity for GET /trace (0 = tracing off)")
	durableDir := flag.String("durable", "", "directory for WAL+snapshot durability of the registry and broker sessions (empty = in-memory)")
	shardID := flag.String("shard-id", "", "this process's shard ID in a sharded cluster (e.g. shard0); enables ring ownership checks and the broker bridge")
	shardPeers := flag.String("shard-peers", "", "comma-separated peer shards as id=host:port; with -shard-id, forms the consistent-hash ring and bridges the brokers")
	verbose := flag.Bool("v", false, "verbose logging")
	flag.Parse()
	if err := run(*mqttAddr, *httpAddr, *shards, *queueDepth, *fanoutQueue, *traceCap, *durableDir, *shardID, *shardPeers, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "sensocial-server:", err)
		os.Exit(1)
	}
}

// parsePeers splits a -shard-peers list ("shard1=10.0.0.2:1883,...") into
// bridge peers dialing real TCP.
func parsePeers(list string) ([]cluster.Peer, error) {
	if list == "" {
		return nil, nil
	}
	var peers []cluster.Peer
	for _, ent := range strings.Split(list, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -shard-peers entry %q (want id=host:port)", ent)
		}
		peers = append(peers, cluster.Peer{ID: id, Dial: func() (net.Conn, error) {
			return net.Dial("tcp", addr)
		}})
	}
	return peers, nil
}

func run(mqttAddr, httpAddr string, shards, queueDepth, fanoutQueue, traceCap int, durableDir, shardID, shardPeers string, verbose bool) error {
	var logger *slog.Logger
	if verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	peers, err := parsePeers(shardPeers)
	if err != nil {
		return err
	}
	if shardID == "" && len(peers) > 0 {
		return fmt.Errorf("-shard-peers needs -shard-id")
	}
	// The ring must be identical in every shard process, so membership is
	// sorted rather than taken in flag order.
	var ring *cluster.Ring
	if shardID != "" {
		ids := []string{shardID}
		for _, p := range peers {
			ids = append(ids, p.ID)
		}
		sort.Strings(ids)
		var err error
		if ring, err = cluster.NewRing(ids, 0); err != nil {
			return err
		}
	}

	// One registry (and optionally one tracer) spans the broker and the
	// middleware so GET /metrics shows the whole deployment.
	clock := vclock.NewReal()
	metrics := obs.NewRegistry()
	var tracer *obs.Tracer
	if traceCap > 0 {
		tracer = obs.NewTracer(clock, traceCap)
	}

	// With -durable, the registry store and broker session state recover
	// from their write-ahead logs before anything accepts connections; the
	// wal metric families register either way so /metrics is mode-agnostic.
	walMetrics := wal.NewMetrics(metrics)
	var store *docstore.Store
	var sessions *mqtt.SessionStore
	if durableDir != "" {
		var info *docstore.RecoveryInfo
		var err error
		store, info, err = docstore.OpenDurable(filepath.Join(durableDir, "docstore"),
			docstore.DurableOptions{Clock: clock, Metrics: walMetrics})
		if err != nil {
			return fmt.Errorf("durable store: %w", err)
		}
		defer store.Close()
		sessions, err = mqtt.OpenSessionStore(filepath.Join(durableDir, "broker"),
			mqtt.SessionStoreOptions{Clock: clock, Metrics: walMetrics})
		if err != nil {
			return fmt.Errorf("session store: %w", err)
		}
		defer sessions.Close()
		fmt.Printf("sensocial-server: recovered %s (snapshot LSN %d, %d journal records replayed)\n",
			durableDir, info.SnapshotLSN, info.Replayed)
	}

	broker := mqtt.NewBroker(mqtt.BrokerOptions{Clock: clock, Logger: logger, Metrics: metrics, Tracer: tracer, FanoutQueue: fanoutQueue, State: sessions})
	mqttL, err := net.Listen("tcp", mqttAddr)
	if err != nil {
		return fmt.Errorf("mqtt listen: %w", err)
	}
	defer mqttL.Close()
	go func() {
		if err := broker.Serve(mqttL); err != nil {
			fmt.Fprintln(os.Stderr, "sensocial-server: broker:", err)
		}
	}()

	// Cluster families register even unsharded so /metrics is mode-agnostic.
	clusterMetrics := cluster.NewMetrics(metrics)
	var bridge *cluster.Bridge
	if ring != nil {
		clusterMetrics.RingShards.Set(float64(len(ring.Shards())))
		if len(peers) > 0 {
			bridge, err = cluster.NewBridge(cluster.BridgeOptions{
				ShardID: shardID,
				Broker:  broker,
				Peers:   peers,
				Clock:   clock,
				Metrics: clusterMetrics,
			})
			if err != nil {
				return err
			}
		}
	}

	var owns func(string) bool
	if ring != nil {
		owns = func(userID string) bool { return ring.Owner(userID) == shardID }
	}
	mgr, err := server.New(server.Options{
		Clock:            clock,
		Broker:           broker,
		Store:            store,
		Places:           geo.EuropeanCities(),
		PersistItems:     true,
		Logger:           logger,
		IngestShards:     shards,
		IngestQueueDepth: queueDepth,
		Owns:             owns,
		Metrics:          metrics,
		Tracer:           tracer,
	})
	if err != nil {
		return err
	}

	httpL, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return fmt.Errorf("http listen: %w", err)
	}
	web := &http.Server{Handler: mgr.HTTPHandler()}
	go func() {
		if err := web.Serve(httpL); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "sensocial-server: http:", err)
		}
	}()

	if ring != nil {
		fmt.Printf("sensocial-server: shard %s of ring %v, bridging %d peers\n",
			shardID, ring.Shards(), len(peers))
	}
	fmt.Printf("sensocial-server: MQTT on %s, HTTP on %s (GET /metrics, /trace; Ctrl-C to stop)\n",
		mqttL.Addr(), httpL.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("sensocial-server: shutting down")
	_ = web.Close()
	// The bridge stops before the broker so no peer link is left
	// mid-handshake into a dying broker.
	if bridge != nil {
		_ = bridge.Close()
	}
	_ = mgr.Close()
	return broker.Close()
}
