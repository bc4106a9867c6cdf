// Command chocoserver runs the untrusted CHOCO offload tier over TCP.
// The server never holds secret key material; it sees only ciphertexts
// and public evaluation keys.
//
// It runs in one of three modes (-mode):
//
//   - serve (default): a single standalone session server built on
//     internal/serve — bounded worker pool with admission control, an
//     evaluation-key cache so reconnecting clients skip the key
//     re-upload, idle and per-frame I/O deadlines. A session's layer
//     runs when its input arrives, as one plaintext product over the
//     layer's own kernel; clients that declare a tenant are subject
//     to the per-tenant session quota (-tenant-max-sessions), rejected
//     over quota with a busy ack carrying the -retry-after hint.
//   - shard: the same server plus the fabric peer listener
//     (-peer-addr), which answers key-fetch, health-probe, and stats
//     requests from the router and sibling shards. Run N of these
//     behind one router to scale the tier horizontally.
//   - router: the fabric front door. Terminates client connections,
//     consistent-hashes session IDs onto the shards listed in -shards,
//     splices frames, replicates cached evaluation keys shard-to-shard
//     when membership changes move a session, ejects unhealthy shards,
//     and serves the aggregated fleet view on -stats-addr.
//
// Every mode exposes accounting on an optional HTTP endpoint
// (-stats-addr): /stats (JSON snapshot), /healthz (readiness; 503 while
// draining), /debug/vars (expvar); the router serves /fleet with the
// fleet-wide aggregation.
//
// The demo model is the small LeNet-style network also used by the
// examples. Clients only need the architecture (nn.DemoNetwork); the
// weights stay server-side — the centralized-model deployment of §1.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"choco/internal/fabric"
	"choco/internal/nn"
	"choco/internal/par"
	"choco/internal/serve"
)

func main() {
	mode := flag.String("mode", "serve", "serve (standalone), shard (serve + fabric peer listener), or router (fabric front door)")
	addr := flag.String("addr", "127.0.0.1:7312", "listen address for client sessions")
	peerAddr := flag.String("peer-addr", "", "shard mode: listen address for the fabric peer protocol (key fetch, health, stats)")
	shardsFlag := flag.String("shards", "", "router mode: comma-separated members, each id=clientAddr/peerAddr (peerAddr optional)")
	shardID := flag.String("shard-id", "", "shard mode: this shard's name on the router's ring (default: the listen address)")
	weightSeed := flag.Int("weight-seed", 7, "deterministic weight seed (server-only; clients never see weights)")
	sessions := flag.Int("sessions", 0, "exit after this many sessions (0 = serve forever; serve/shard modes)")
	maxSessions := flag.Int("max-sessions", 8, "max concurrent sessions (worker pool size)")
	queueTimeout := flag.Duration("queue-timeout", 0, "how long a connection waits for a free worker slot before rejection (0 = reject immediately)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "max gap between a client's requests before the session is closed")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "per-frame read/write deadline during an exchange")
	keyCache := flag.Int("key-cache", 64, "evaluation-key registry capacity (cached sessions for reconnects)")
	keyCacheBytes := flag.Int64("key-cache-bytes", 1<<30, "evaluation-key registry byte budget (bundles are multi-MB each)")
	tenantMaxSessions := flag.Int("tenant-max-sessions", 0, "max concurrent sessions per declared tenant (0 = no per-tenant quota)")
	retryAfter := flag.Duration("retry-after", 250*time.Millisecond, "retry-after hint sent with the busy ack when a tenant is over quota")
	statsAddr := flag.String("stats-addr", "", "serve accounting over HTTP on this address; empty disables")
	parallelism := flag.Int("parallelism", 0, "width of the process-wide HE worker pool shared by all sessions (0 = GOMAXPROCS, 1 = serial)")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "router mode: shard health-probe period")
	flag.Parse()

	if *parallelism > 0 {
		par.SetParallelism(*parallelism)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("chocoserver: shutdown requested, draining in-flight work")
		cancel()
	}()

	switch *mode {
	case "serve", "shard":
		runServe(ctx, cancel, serveOpts{
			mode: *mode, addr: *addr, peerAddr: *peerAddr, shardID: *shardID,
			weightSeed: *weightSeed, sessions: *sessions, statsAddr: *statsAddr,
			cfg: serve.Config{
				MaxSessions:       *maxSessions,
				QueueTimeout:      *queueTimeout,
				IdleTimeout:       *idleTimeout,
				IOTimeout:         *ioTimeout,
				KeyCacheCap:       *keyCache,
				KeyCacheBytes:     *keyCacheBytes,
				TenantMaxSessions: *tenantMaxSessions,
				RetryAfter:        *retryAfter,
				Logf:              log.Printf,
			},
		})
	case "router":
		runRouter(ctx, *addr, *shardsFlag, *statsAddr, *healthEvery, *idleTimeout, *ioTimeout)
	default:
		log.Fatalf("unknown -mode %q (want serve, shard, or router)", *mode)
	}
}

type serveOpts struct {
	mode, addr, peerAddr, shardID string
	weightSeed, sessions          int
	statsAddr                     string
	cfg                           serve.Config
}

// watchSessionLimit polls the server's accounting until the configured
// number of sessions has completed with none in flight, then fires
// done. It exits when ctx is cancelled, so the watcher cannot outlive
// the server it is supposed to stop: a goroutine ranging a ticker
// channel has no such exit, and TestWatchSessionLimitExitsOnCancel and
// its goroutine-leak check fail on that shape.
func watchSessionLimit(ctx context.Context, stats func() serve.Stats, limit int, every time.Duration, done func()) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			st := stats()
			if st.SessionsTotal >= int64(limit) && st.SessionsActive == 0 {
				done()
				return
			}
		}
	}
}

func runServe(ctx context.Context, cancel context.CancelFunc, o serveOpts) {
	net0 := nn.DemoNetwork()
	var seed [32]byte
	seed[0] = byte(o.weightSeed)
	model := nn.SynthesizeWeights(net0, 4, seed)
	backend, err := nn.NewInferenceServer(model)
	if err != nil {
		log.Fatalf("compile model: %v", err)
	}

	id := o.shardID
	if id == "" {
		id = o.addr
	}
	shard := fabric.NewShard(id, backend, o.cfg)
	srv := shard.Server

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("chocoserver[%s]: serving %s (%d-layer model, %d MACs) on %s, %d worker slot(s), HE parallelism %d",
		o.mode, net0.Name, len(net0.Layers), net0.MACs(), o.addr, srv.MaxSessions(), par.Parallelism())

	if o.statsAddr != "" {
		expvar.Publish("choco_serve", expvar.Func(func() any { return srv.Stats() }))
		mux := http.NewServeMux()
		mux.Handle("/stats", srv.StatsHandler())
		mux.Handle("/healthz", srv.HealthHandler())
		mux.Handle("/debug/vars", expvar.Handler())
		go func() {
			log.Printf("chocoserver: stats on http://%s/stats, readiness on /healthz", o.statsAddr)
			if err := http.ListenAndServe(o.statsAddr, mux); err != nil {
				log.Printf("stats endpoint: %v", err)
			}
		}()
	}

	if o.sessions > 0 {
		go watchSessionLimit(ctx, srv.Stats, o.sessions, 200*time.Millisecond, func() {
			log.Printf("chocoserver: session limit (%d) reached, exiting", o.sessions)
			cancel()
		})
	}

	if o.mode == "shard" {
		if o.peerAddr == "" {
			log.Fatalf("shard mode needs -peer-addr (the fabric peer-protocol listener)")
		}
		peerLn, err := net.Listen("tcp", o.peerAddr)
		if err != nil {
			log.Fatalf("peer listen: %v", err)
		}
		log.Printf("chocoserver[shard %s]: peer protocol on %s", id, o.peerAddr)
		if err := shard.Run(ctx, ln, peerLn); err != nil {
			log.Fatalf("shard: %v", err)
		}
	} else if err := srv.Serve(ctx, ln); err != nil {
		log.Fatalf("serve: %v", err)
	}

	st := srv.Stats()
	log.Printf("chocoserver: done: %d session(s) (%d rejected), %d inference(s), %.1f MB up / %.1f MB down, key cache %d hit(s) / %d miss(es) / %d replication(s)",
		st.SessionsTotal, st.SessionsRejected, st.Inferences,
		float64(st.BytesUp)/(1<<20), float64(st.BytesDown)/(1<<20),
		st.KeyCacheHits, st.KeyCacheMisses, st.KeyReplications)
	log.Printf("chocoserver: inference latency p50 %v p99 %v max %v over %d request(s)",
		st.InferenceLatency.P50, st.InferenceLatency.P99, st.InferenceLatency.Max, st.InferenceLatency.Count)
	log.Printf("chocoserver: %d layer call(s)", st.Batching.Items)
	for _, ts := range st.Tenants {
		log.Printf("chocoserver: tenant %q: %d session(s) (%d rejected), %d inference(s), %.1f MB up / %.1f MB down",
			ts.Tenant, ts.SessionsTotal, ts.SessionsRejected, ts.Inferences,
			float64(ts.BytesUp)/(1<<20), float64(ts.BytesDown)/(1<<20))
	}
}

// parseMembers parses the -shards flag: comma-separated
// id=clientAddr/peerAddr entries (the peer address optional but needed
// for key replication, health probes, and fleet stats).
func parseMembers(s string) ([]fabric.Member, error) {
	var out []fabric.Member
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addrs, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("member %q: want id=clientAddr/peerAddr", entry)
		}
		client, peer, _ := strings.Cut(addrs, "/")
		if id == "" || client == "" {
			return nil, fmt.Errorf("member %q: empty id or client address", entry)
		}
		out = append(out, fabric.Member{ID: id, Addr: client, PeerAddr: peer})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("router mode needs at least one -shards member")
	}
	return out, nil
}

func runRouter(ctx context.Context, addr, shardsFlag, statsAddr string, healthEvery, idleTimeout, ioTimeout time.Duration) {
	members, err := parseMembers(shardsFlag)
	if err != nil {
		log.Fatalf("-shards: %v", err)
	}
	router := fabric.NewRouter(fabric.RouterConfig{
		Members:        members,
		HealthInterval: healthEvery,
		IdleTimeout:    idleTimeout,
		IOTimeout:      ioTimeout,
		Logf:           log.Printf,
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("chocoserver[router]: fronting %d shard(s) on %s", len(members), addr)

	if statsAddr != "" {
		expvar.Publish("choco_fabric", expvar.Func(func() any { return router.Stats() }))
		mux := http.NewServeMux()
		mux.Handle("/fleet", router.FleetStatsHandler())
		mux.Handle("/healthz", router.FleetStatsHandler())
		mux.Handle("/debug/vars", expvar.Handler())
		go func() {
			log.Printf("chocoserver[router]: fleet stats on http://%s/fleet, readiness on /healthz", statsAddr)
			if err := http.ListenAndServe(statsAddr, mux); err != nil {
				log.Printf("stats endpoint: %v", err)
			}
		}()
	}

	if err := router.Serve(ctx, ln); err != nil {
		log.Fatalf("router: %v", err)
	}
	rs := router.Stats()
	log.Printf("chocoserver[router]: done: %d connection(s), %d session(s) routed, %d replication hint(s), %d route failure(s), %d ejection(s), %.1f MB up / %.1f MB down",
		rs.Connections, rs.RoutedSessions, rs.ReplicationHints, rs.RouteFailures, rs.Ejections,
		float64(rs.BytesUp)/(1<<20), float64(rs.BytesDown)/(1<<20))
}
