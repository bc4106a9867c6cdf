// Command chococlient is the trusted client of the TCP demo: it
// generates keys, opens a session with a running chocoserver, then
// performs client-aided encrypted inference on synthetic images —
// printing the logits and the full client cost accounting (the
// quantities CHOCO optimizes).
//
// Sessions open under a client-chosen session ID, so a reconnecting
// client whose evaluation keys are still cached server-side skips the
// key upload, 73 764 B for the demo network (-reconnect demonstrates
// this and reports the bytes saved). Sessions may also declare a tenant (-tenant): a
// server enforcing per-tenant quotas answers over-quota opens with a
// busy ack carrying a retry-after hint, which workers honor for up to
// -busy-retries attempts before failing.
//
// With -concurrency > 1 (or -requests set) it becomes a load
// generator: N independent clients — separate keys, separate sessions
// — each stream R inferences at the server, and the run exits with
// aggregate throughput and p50/p99 latency.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"choco/internal/fabric"
	"choco/internal/nn"
	"choco/internal/protocol"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7312", "server address")
	imageSeed := flag.Int("image-seed", 1, "synthetic image seed")
	keySeed := flag.Int("key-seed", 42, "client key seed (worker i uses key-seed+i)")
	count := flag.Int("count", 1, "inferences to run (alias of -requests)")
	concurrency := flag.Int("concurrency", 1, "parallel client sessions")
	requests := flag.Int("requests", 0, "inferences per session (0 = use -count)")
	sessionBase := flag.String("session-id", "", "session ID prefix (default derived from key seed)")
	reconnect := flag.Bool("reconnect", false, "disconnect halfway and reconnect under the same session ID to exercise the server's evaluation-key cache")
	tenant := flag.String("tenant", "", "tenant ID declared in the session hello; over-quota rejections are retried after the server's retry-after hint")
	busyRetries := flag.Int("busy-retries", 3, "how many times a worker retries a session rejected over tenant quota before giving up")
	fleetStats := flag.String("fleet-stats", "", "after the run, fetch and summarize the fabric router's fleet view from this URL (e.g. http://127.0.0.1:7400/fleet)")
	flag.Parse()

	perWorker := *requests
	if perWorker <= 0 {
		perWorker = *count
	}
	base := *sessionBase
	if base == "" {
		base = fmt.Sprintf("chococlient-k%d", *keySeed)
	}
	loadgen := *concurrency > 1 || *requests > 0

	network := nn.DemoNetwork()
	start := time.Now()
	var (
		mu             sync.Mutex
		latencies      []time.Duration
		agg            workerReport
		failures       int
		droppedSamples int
		droppedUp      int64
		droppedDown    int64
	)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rep, err := runWorker(workerConfig{
				addr: *addr, network: network,
				keySeed: *keySeed + w, imageSeed: *imageSeed + w*1000,
				sessionID: fmt.Sprintf("%s-w%d", base, w),
				requests:  perWorker, reconnect: *reconnect,
				tenant: *tenant, busyRetries: *busyRetries,
				verbose: !loadgen,
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				// A failed worker's partial samples and traffic would
				// silently skew p50/p99 and the MB totals; keep them out
				// of the aggregate and account for them separately.
				failures++
				droppedSamples += len(rep.latencies)
				droppedUp += rep.upBytes
				droppedDown += rep.downBytes
				log.Printf("worker %d: %v", w, err)
				return
			}
			latencies = append(latencies, rep.latencies...)
			agg.merge(rep)
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	if failures == *concurrency {
		log.Fatalf("all %d worker(s) failed", *concurrency)
	}
	if !loadgen && !*reconnect {
		return // single-session mode already printed per-inference detail
	}

	fmt.Printf("\n=== aggregate: %d session(s), %d inference(s), %d worker failure(s) ===\n",
		*concurrency, len(latencies), failures)
	if failures > 0 {
		fmt.Printf("excluded from aggregate: %d partial sample(s) and %.1f MB up / %.1f MB down from %d failed worker(s)\n",
			droppedSamples, float64(droppedUp)/(1<<20), float64(droppedDown)/(1<<20), failures)
	}
	fmt.Printf("wall time %v | throughput %.2f inf/s\n",
		wall.Round(time.Millisecond), float64(len(latencies))/wall.Seconds())
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		fmt.Printf("latency p50 %v | p99 %v | min %v | max %v\n",
			pct(latencies, 0.50).Round(time.Millisecond), pct(latencies, 0.99).Round(time.Millisecond),
			latencies[0].Round(time.Millisecond), latencies[len(latencies)-1].Round(time.Millisecond))
	}
	fmt.Printf("traffic up %.1f MB | down %.1f MB | enc %d | dec %d\n",
		float64(agg.upBytes)/(1<<20), float64(agg.downBytes)/(1<<20), agg.encryptions, agg.decryptions)
	fmt.Printf("key setup: first connect %.1f MB up", float64(agg.setupBytes)/(1<<20))
	if *reconnect {
		fmt.Printf(" | reconnect %.1f KB up (%d/%d cached — evaluation keys not re-uploaded)",
			float64(agg.resetupBytes)/(1<<10), agg.cachedReconnects, *concurrency)
	}
	fmt.Println()

	if *fleetStats != "" {
		if err := printFleetStats(*fleetStats); err != nil {
			log.Printf("fleet stats: %v", err)
		}
	}
}

// printFleetStats fetches the fabric router's aggregated fleet view and
// prints the signals a load-gen run cares about: how the sessions
// spread over the shards and how many key uploads each shard's
// registry spared.
func printFleetStats(url string) error {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var fs fabric.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return fmt.Errorf("decoding fleet stats: %w", err)
	}
	fmt.Printf("\n=== fleet (%d/%d shard(s) reachable) ===\n", fs.Fleet.ShardsReachable, fs.Fleet.ShardsTotal)
	fmt.Printf("sessions %d (%d active, %d rejected) | inferences %d | worst shard p99 %v\n",
		fs.Fleet.SessionsTotal, fs.Fleet.SessionsActive, fs.Fleet.SessionsRejected,
		fs.Fleet.Inferences, fs.Fleet.InferenceP99Max)
	fmt.Printf("key cache: %d entr(ies), %.1f MB | %d hit(s) (uploads skipped) / %d miss(es)\n",
		fs.Fleet.KeyCacheEntries, float64(fs.Fleet.KeyCacheBytes)/(1<<20),
		fs.Fleet.KeyCacheHits, fs.Fleet.KeyCacheMisses)
	fmt.Printf("router: %d session(s) routed, %d route failure(s), %d ejection(s)\n",
		fs.Router.RoutedSessions, fs.Router.RouteFailures, fs.Router.Ejections)
	for _, m := range fs.Router.Members {
		snap := fs.Shards[m.ID]
		state := "alive"
		if !m.Alive {
			state = "ejected"
		} else if m.Draining {
			state = "draining"
		}
		if snap.Reachable {
			fmt.Printf("  %-12s %-8s %d session(s), %d inference(s), %d cached key bundle(s)\n",
				m.ID, state, snap.Stats.SessionsTotal, snap.Stats.Inferences, snap.Stats.KeyCacheEntries)
		} else {
			fmt.Printf("  %-12s %-8s unreachable: %s\n", m.ID, state, snap.Error)
		}
	}
	return nil
}

type workerConfig struct {
	addr        string
	network     *nn.Network
	keySeed     int
	imageSeed   int
	sessionID   string
	requests    int
	reconnect   bool
	tenant      string
	busyRetries int
	verbose     bool
}

type workerReport struct {
	latencies          []time.Duration
	upBytes, downBytes int64
	encryptions        int
	decryptions        int
	setupBytes         int64 // transport bytes up at first session open
	resetupBytes       int64 // transport bytes up at reconnect session open
	cachedReconnects   int
}

func (a *workerReport) merge(b workerReport) {
	a.latencies = append(a.latencies, b.latencies...)
	a.upBytes += b.upBytes
	a.downBytes += b.downBytes
	a.encryptions += b.encryptions
	a.decryptions += b.decryptions
	a.setupBytes += b.setupBytes
	a.resetupBytes += b.resetupBytes
	a.cachedReconnects += b.cachedReconnects
}

// runWorker drives one client session (optionally split across a
// reconnect) through its share of inferences.
func runWorker(cfg workerConfig) (workerReport, error) {
	var rep workerReport
	var kseed [32]byte
	kseed[0], kseed[1] = byte(cfg.keySeed), byte(cfg.keySeed>>8)
	client, err := nn.NewInferenceClient(cfg.network, kseed)
	if err != nil {
		return rep, fmt.Errorf("client setup: %w", err)
	}

	// dial opens (or re-opens) the session. An over-quota rejection
	// carries the server's retry-after hint; the worker honors it for a
	// bounded number of attempts before giving up, so a busy tenant
	// backs off at the pace the shard asked for instead of hammering it.
	dial := func() (*protocol.Conn, bool, time.Duration, error) {
		for attempt := 0; ; attempt++ {
			conn, err := net.Dial("tcp", cfg.addr)
			if err != nil {
				return nil, false, 0, fmt.Errorf("dial: %w", err)
			}
			tr := protocol.NewConn(conn)
			t0 := time.Now()
			cached, err := client.SetupSessionTenant(tr, cfg.sessionID, cfg.tenant)
			if err == nil {
				return tr, cached, time.Since(t0), nil
			}
			_ = tr.Close() // the session-open failure is the error that matters
			var busy *nn.BusyError
			if !errors.As(err, &busy) || busy.RetryAfter <= 0 || attempt >= cfg.busyRetries {
				return nil, false, 0, fmt.Errorf("session open: %w", err)
			}
			if cfg.verbose {
				fmt.Printf("session %q: tenant over quota, retrying in %v (%d/%d)\n",
					cfg.sessionID, busy.RetryAfter, attempt+1, cfg.busyRetries)
			}
			time.Sleep(busy.RetryAfter)
		}
	}

	tr, cached, setupTime, err := dial()
	if err != nil {
		return rep, err
	}
	rep.setupBytes = tr.SentBytes()
	if cfg.verbose {
		if cached {
			fmt.Printf("session %q: evaluation keys cached server-side, upload skipped (%d B in %v)\n",
				cfg.sessionID, tr.SentBytes(), setupTime.Round(time.Millisecond))
		} else {
			fmt.Printf("session %q: evaluation keys shipped in %v (%d bytes)\n",
				cfg.sessionID, setupTime.Round(time.Millisecond), tr.SentBytes())
		}
	}

	firstLeg := cfg.requests
	if cfg.reconnect && cfg.requests > 1 {
		firstLeg = (cfg.requests + 1) / 2
	}
	infer := func(i int) error {
		var iseed [32]byte
		iseed[0], iseed[1] = byte(cfg.imageSeed+i), byte((cfg.imageSeed+i)>>8)
		img := nn.SynthesizeImage(cfg.network, 4, iseed)
		t0 := time.Now()
		logits, stats, err := client.Infer(img, tr)
		if err != nil {
			return fmt.Errorf("inference %d: %w", i, err)
		}
		elapsed := time.Since(t0)
		rep.latencies = append(rep.latencies, elapsed)
		rep.upBytes += stats.UpBytes
		rep.downBytes += stats.DownBytes
		rep.encryptions += stats.Encryptions
		rep.decryptions += stats.Decryptions
		if cfg.verbose {
			best, bestV := 0, logits[0]
			for j, v := range logits {
				if v > bestV {
					best, bestV = j, v
				}
			}
			fmt.Printf("inference %d: class %d, logits %v\n", i, best, logits)
			fmt.Printf("  wall time %v | enc %d dec %d | up %.1f KB down %.1f KB\n",
				elapsed.Round(time.Millisecond), stats.Encryptions, stats.Decryptions,
				float64(stats.UpBytes)/1024, float64(stats.DownBytes)/1024)
		}
		return nil
	}

	for i := 0; i < firstLeg; i++ {
		if err := infer(i); err != nil {
			_ = tr.Close() // the inference failure is the error that matters
			return rep, err
		}
	}
	if firstLeg == cfg.requests {
		return rep, tr.Close()
	}

	// Reconnect under the same session ID: with the server's key
	// registry warm, SetupSession should come back cached and the
	// transport's sent bytes stay tiny (hello frame only).
	if err := tr.Close(); err != nil {
		return rep, fmt.Errorf("closing before reconnect: %w", err)
	}
	tr, cached, setupTime, err = dial()
	if err != nil {
		return rep, fmt.Errorf("reconnect: %w", err)
	}
	rep.resetupBytes = tr.SentBytes()
	if cached {
		rep.cachedReconnects++
	}
	if cfg.verbose {
		fmt.Printf("reconnected session %q in %v: cached=%v, %d B up (vs %d B first connect)\n",
			cfg.sessionID, setupTime.Round(time.Millisecond), cached, tr.SentBytes(), rep.setupBytes)
	}
	for i := firstLeg; i < cfg.requests; i++ {
		if err := infer(i); err != nil {
			_ = tr.Close() // the inference failure is the error that matters
			return rep, err
		}
	}
	return rep, tr.Close()
}

// pct indexes a sorted latency slice at quantile q.
func pct(sorted []time.Duration, q float64) time.Duration {
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
