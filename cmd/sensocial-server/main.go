// Command sensocial-server runs the server side of SenSocial as a
// standalone process on real TCP: the MQTT broker (Mosquitto's role), the
// middleware server component, and the HTTP endpoints (the PHP scripts'
// role). Mobile middleware instances — real or simulated — connect over the
// network. The process is one shard.Shard (internal/shard), the assembly the
// simulator builds per ring member, listening on TCP instead of the fabric.
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
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/shard"
	"repro/internal/vclock"
)

func main() {
	opts := shard.Options{
		Listen:       func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) },
		Clock:        vclock.NewReal(),
		Places:       geo.EuropeanCities(),
		PersistItems: true,
	}
	flag.StringVar(&opts.BrokerAddr, "mqtt", ":1883", "MQTT broker listen address")
	flag.StringVar(&opts.HTTPAddr, "http", ":8080", "HTTP listen address")
	flag.IntVar(&opts.IngestShards, "ingest-shards", 0, "ingest pipeline shards (0 = default)")
	flag.IntVar(&opts.TraceCapacity, "trace-capacity", 0, "span ring-buffer capacity for GET /trace (0 = tracing off)")
	flag.StringVar(&opts.DurableDir, "durable", "", "directory for WAL+snapshot durability of the registry and broker sessions (empty = in-memory)")
	flag.StringVar(&opts.ID, "shard-id", "", "this process's shard ID in a sharded cluster (e.g. shard0); enables ring ownership checks and the broker bridge")
	shardPeers := flag.String("shard-peers", "", "comma-separated peer shards as id=host:port; with -shard-id, forms the consistent-hash ring and bridges the brokers")
	verbose := flag.Bool("v", false, "verbose logging")
	flag.Parse()
	if *verbose {
		opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	if err := run(opts, *shardPeers); err != nil {
		fmt.Fprintln(os.Stderr, "sensocial-server:", err)
		os.Exit(1)
	}
}

// membership turns -shard-id and -shard-peers ("shard1=10.0.0.2:1883,...")
// into the ring and the bridge peers dialing real TCP; both are nil for an
// unsharded server. The ring must be identical in every shard process, so
// membership is sorted rather than taken in flag order.
func membership(id, list string) (*cluster.Ring, []cluster.Peer, error) {
	ids := []string{id}
	var peers []cluster.Peer
	for _, ent := range strings.FieldsFunc(list, func(r rune) bool { return r == ',' }) {
		peerID, addr, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok || peerID == "" || addr == "" {
			return nil, nil, fmt.Errorf("bad -shard-peers entry %q (want id=host:port)", ent)
		}
		ids = append(ids, peerID)
		peers = append(peers, cluster.Peer{ID: peerID, Dial: func() (net.Conn, error) {
			return net.Dial("tcp", addr)
		}})
	}
	if id == "" {
		if len(peers) > 0 {
			return nil, nil, fmt.Errorf("-shard-peers needs -shard-id")
		}
		return nil, nil, nil
	}
	sort.Strings(ids)
	ring, err := cluster.NewRing(ids, 0)
	return ring, peers, err
}

func run(opts shard.Options, shardPeers string) error {
	ring, peers, err := membership(opts.ID, shardPeers)
	if err != nil {
		return err
	}
	opts.Ring = ring
	sh, err := shard.New(opts)
	if err != nil {
		return err
	}
	defer sh.Stop()
	if opts.DurableDir != "" {
		fmt.Printf("sensocial-server: recovered %s (%d journal records replayed)\n",
			opts.DurableDir, sh.Metrics.Sum("sensocial_wal_replayed_records_total"))
	}
	if err := sh.StartHTTP(); err != nil {
		return err
	}
	if err := sh.StartBridge(peers); err != nil {
		return err
	}
	if ring != nil {
		fmt.Printf("sensocial-server: shard %s of ring %v, bridging %d peers\n", sh.ID, ring.Shards(), len(peers))
	}
	fmt.Printf("sensocial-server: MQTT on %s, HTTP on %s (GET /metrics, /trace; Ctrl-C to stop)\n",
		sh.BrokerAddr, sh.HTTPAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("sensocial-server: shutting down")
	return nil
}
