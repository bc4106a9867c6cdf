package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"choco/internal/core"
	"choco/internal/par"
	"choco/internal/protocol"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

func (c runConfig) geometry() geometry {
	if c.smoke {
		return smokeGeometry
	}
	return fullGeometry
}

// sample is what one completed request cost its caller.
type sample struct {
	wall        time.Duration
	inTransport time.Duration // time blocked inside Transport.Send/Recv
	wireBytes   int64         // up + down, from the Transport counters
	traced      bool
}

// caller is one closed-loop client: do issues request i, waits for the
// reply and checks it against the plaintext oracle. A mismatch is an
// error, the same as a transport failure.
type caller interface {
	do(i int, traced bool) (sample, error)
}

// instance is a workload set up to "ready for first request".
type instance interface {
	callers() []caller
	// close stops every goroutine the instance started and waits for it.
	close() error
}

// workload is one named traffic mix. All inputs derive from the seed;
// the program under test sees only generated inputs.
type workload struct {
	name string
	why  string
	// warmup and tracedRequests are per caller; the traced run issues
	// 2×tracedRequests, alternating untraced and traced.
	warmup, tracedRequests int
	// setups is how many times an untraced run sets the workload up from
	// scratch; setup_s is their median. The count is fixed, so every run
	// does the same work and leaves the same garbage behind (peak_rss_mb).
	setups int
	// newEnv generates inputs and oracles from the seed.
	newEnv func(cfg runConfig) (any, error)
	// setup builds a fresh instance; nth distinguishes repeated setups
	// (session IDs must not collide with a cached earlier one).
	setup func(env any, nth int, rp runParams) (instance, error)
	// layers fills the workload's own per-layer metrics after the traced
	// requests and the kernel sheet; afterClose runs once the instance
	// has drained.
	layers     func(env any, inst instance, rp runParams, m *metricSet) error
	afterClose func(inst instance, m *metricSet)
	// verifyRun is a whole-run cross-check made after close (for example
	// byte counters on both transport ends).
	verifyRun func(inst instance) error
}

// geometry sizes the parts of a run that are counted, not timed.
type geometry struct {
	replayWarmups, replayCalls int // per replayed kernel
	allCoresRequests           int // lenetsm-pipe requests with every core back
	soloRequests               int // lenetsm-serve-tcp2 requests with one client left
	fabricRequests             int // requests through router → shard
	collapseQueries            int // CollapsedPointMajor distance queries
	knnPoints                  int
}

var (
	fullGeometry = geometry{
		replayWarmups: 3, replayCalls: 20,
		allCoresRequests: 10, soloRequests: 20, fabricRequests: 20, collapseQueries: 5,
		knnPoints: 64,
	}
	// smokeGeometry is -smoke: every code path, a handful of operations.
	smokeGeometry = geometry{
		replayWarmups: 1, replayCalls: 2,
		allCoresRequests: 2, soloRequests: 2, fabricRequests: 2, collapseQueries: 1,
		knnPoints: 8,
	}
)

// smoke runs one warm-up and two requests per caller (and two traced).
const (
	smokeWarmup   = 1
	smokeRequests = 2
)

// runParams is what an instance needs to know about the run it serves.
type runParams struct {
	tr     *tracer // nil on an untraced run
	warmup int     // requests per caller before measurement starts
	traceN int     // traced requests per caller, alternating with as many untraced
	geo    geometry
}

// traced says whether request i of a caller is traced: in a traced run,
// every second one of the 2×traceN requests after the warm-up. Both
// ends of a pipe evaluate it, so it depends on nothing but i.
func (rp runParams) traced(i int) bool {
	k := i - rp.warmup
	return rp.tr != nil && k >= 0 && k < 2*rp.traceN && k%2 == 1
}

// next is the first request index after the warm-up and traced window.
func (rp runParams) next() int { return rp.warmup + 2*rp.traceN }

// seedBytes derives an independent 32-byte seed for one labelled use
// from the run's integer seed. It deliberately uses the standard
// library, not the hash under test.
func seedBytes(seed int64, label string) [32]byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	return sha256.Sum256(append(b[:], label...))
}

// seededRand is the input generator for values the repository has no
// synthesizer for (points, queries, plaintext vectors).
func seededRand(seed int64, label string) *rand.Rand {
	s := seedBytes(seed, label)
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(s[:8]))))
}

// result is what one run reports: the contract's result line plus the
// detail the human-readable report prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	detail []string
}

// loopResult is the merged outcome of the callers' closed loops.
type loopResult struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

// runLoop drives every caller in its own goroutine. With a deadline the
// callers run until it passes; with count > 0 each issues exactly that
// many requests starting at index from. A transport or protocol error
// ends that caller's loop (the two ends of a session would be out of
// step); an oracle mismatch counts as failed and the loop goes on.
func runLoop(cs []caller, from, count int, window time.Duration, rp runParams) loopResult {
	var (
		mu  sync.Mutex
		out loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for _, c := range cs {
		wg.Add(1)
		go func(c caller) {
			defer wg.Done()
			var local []sample
			attempted, failed := 0, 0
			var firstErr error
			for i := from; ; i++ {
				if count > 0 && i >= from+count {
					break
				}
				if count == 0 && !time.Now().Before(deadline) {
					break
				}
				attempted++
				s, err := c.do(i, rp.traced(i))
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					var mm *mismatchError
					if !errors.As(err, &mm) {
						break
					}
					continue
				}
				local = append(local, s)
			}
			mu.Lock()
			out.samples = append(out.samples, local...)
			out.attempted += attempted
			out.failed += failed
			if out.firstErr == nil {
				out.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// mismatchError is a reply that disagrees with the plaintext oracle or
// with the byte accounting — a failed request, but one that leaves the
// session usable.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return e.msg }

func mismatchf(format string, args ...any) error {
	return &mismatchError{msg: fmt.Sprintf(format, args...)}
}

// endOfSession maps the error a server loop ends with to nil when it is
// only the client having closed the pipe.
func endOfSession(err error) error {
	if errors.Is(err, io.EOF) {
		return nil
	}
	return err
}

// checkBytes cross-checks the client's own byte accounting (core.Stats)
// against what its transport counted. slack is the known fixed offset
// between the two (distance.Client.Query omits the request frame's
// length prefix).
func checkBytes(stats core.Stats, wire int64, slack int64) error {
	if stats.TotalBytes()+slack != wire {
		return mismatchf("core.Stats counts %d B (+%d), transport counted %d B", stats.TotalBytes(), slack, wire)
	}
	return nil
}

// gatedQuantile is the percentile of a run's request times that the
// end-to-end timing metrics report. Every request of a workload does the
// same work (HE is data-oblivious, and the run asserts the operation
// counts), so the spread of request times inside a run is the machine's
// doing, and it is one-sided: a neighbour on the shared host only ever
// adds time. Between identical runs at two cores the median moved by
// 30-50 % and the 5th percentile by a third of that; at one core the
// ten-seed sets (README, "Bounds") have them at up to 18 % and 7 %. The
// median is still printed, and is a per-layer metric.
const gatedQuantile = 0.05

// pinnedCores is the GOMAXPROCS and par width every workload runs at.
// The box has two virtual cores, but its host grants it anything between
// one and two cores' worth of time from one minute to the next, and says
// nothing about it in /proc/stat. A run that needs both therefore
// measures the grant: alternating runs of lenetsm-pipe had the 5th
// percentile spread by 15 % at two cores and 6 % at one, the median by
// 19 % and 9 % (README, "One core"). What the second core buys is kept
// as a per-layer metric, par.allcores_request_ms.
const pinnedCores = 1

// runWorkload executes one workload once, untraced (end-to-end metrics)
// or traced (per-layer metrics).
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pinnedCores))
	defer par.SetParallelism(par.Parallelism())
	par.SetParallelism(pinnedCores)
	env, err := w.newEnv(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	rp := runParams{warmup: w.warmup, traceN: w.tracedRequests, geo: cfg.geometry()}
	if cfg.smoke {
		rp.warmup, rp.traceN = smokeWarmup, smokeRequests
	}
	if cfg.trace {
		rp.tr = newTracer()
		return runTraced(w, cfg, env, rp)
	}
	return runUntraced(w, cfg, env, rp)
}

func runUntraced(w *workload, cfg runConfig, env any, rp runParams) (*result, error) {
	timedSetup := func(nth int) (instance, float64, error) {
		t0 := time.Now()
		inst, err := w.setup(env, nth, rp)
		if err != nil {
			return nil, 0, fmt.Errorf("setup %d: %w", nth, err)
		}
		return inst, time.Since(t0).Seconds(), nil
	}
	inst, took, err := timedSetup(0)
	if err != nil {
		return nil, err
	}
	setups := []float64{took}

	warm := runLoop(inst.callers(), 0, rp.warmup, 0, rp)
	if warm.firstErr != nil {
		_ = inst.close() // the warm-up failure is the error that matters
		return nil, fmt.Errorf("warm-up: %w", warm.firstErr)
	}

	// Start the window from a collected heap: what setup and warm-up left
	// uncollected would otherwise decide when the collector first runs in
	// the window and how high the heap climbs (peak_rss_mb).
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var loop loopResult
	if cfg.smoke {
		loop = runLoop(inst.callers(), rp.warmup, smokeRequests, 0, rp)
	} else {
		loop = runLoop(inst.callers(), rp.warmup, 0, time.Duration(cfg.seconds*float64(time.Second)), rp)
	}
	runtime.ReadMemStats(&after)
	// One setup and the requests it served: what a process that does this
	// work has to be given. The repeat setups below would pile onto it.
	peakRSS := peakRSSMiB()

	runErr := inst.close()
	if runErr == nil && w.verifyRun != nil {
		runErr = w.verifyRun(inst)
	}

	// The other setups for setup_s come after the window, so that the
	// window runs on the heap one setup leaves and not on the remains of
	// several.
	for n := 1; n < w.setups && !cfg.smoke; n++ {
		runtime.GC()
		extra, took, err := timedSetup(n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if err := extra.close(); err != nil {
			return nil, fmt.Errorf("close setup %d: %w", n, err)
		}
	}

	res := &result{Attempted: loop.attempted, Failed: loop.failed}
	m := newMetricSet(endToEnd)
	ok := len(loop.samples)
	if ok > 0 {
		wall, client := make([]float64, ok), make([]float64, ok)
		var wire int64
		for i, s := range loop.samples {
			wall[i] = ms(s.wall)
			client[i] = ms(s.wall - s.inTransport)
			wire += s.wireBytes
		}
		sorted := sortedCopy(wall)
		m.set("request_ms_p05", percentile(sorted, gatedQuantile))
		m.set("client_ms_p05", percentile(sortedCopy(client), gatedQuantile))
		m.set("wire_bytes_per_request", float64(wire)/float64(ok))
		m.set("alloc_kb_per_request", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(ok))
		top := highestSupportedPercentile(ok)
		res.detail = append(res.detail, fmt.Sprintf("n=%d verified requests in %.2f s; highest percentile with 10 samples beyond it: p%g",
			ok, loop.elapsed.Seconds(), 100*top))
		res.detail = append(res.detail,
			fmt.Sprintf("requests_per_s = %.4f 1/s (watched, not gated)", float64(ok)/loop.elapsed.Seconds()),
			fmt.Sprintf("client_ms_p50 = %.4f ms (watched, not gated)", median(client)))
		for _, q := range []float64{0.50, 0.90, 0.99} {
			if top >= q {
				res.detail = append(res.detail, fmt.Sprintf("request_ms_p%g = %.4f ms (watched, not gated)", 100*q, percentile(sorted, q)))
			}
		}
	}
	m.set("peak_rss_mb", peakRSS)
	m.set("setup_s", median(setups))
	res.Metrics = m.export()
	res.detail = append(res.detail,
		fmt.Sprintf("failed_share = %.6f (attempted %d, succeeded %d, failed %d)",
			float64(loop.failed)/float64(max(loop.attempted, 1)), loop.attempted, ok, loop.failed),
		"setup_s samples: "+joinFloats(setups))
	res.Correct = loop.failed == 0 && ok > 0 && runErr == nil
	res.note("first failure", loop.firstErr)
	res.note("run check failed", runErr)
	return res, nil
}

func (r *result) note(what string, err error) {
	if err != nil {
		r.detail = append(r.detail, what+": "+err.Error())
	}
}

func runTraced(w *workload, cfg runConfig, env any, rp runParams) (*result, error) {
	inst, err := w.setup(env, 0, rp)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	warm := runLoop(inst.callers(), 0, rp.warmup, 0, rp)
	if warm.firstErr != nil {
		_ = inst.close() // the warm-up failure is the error that matters
		return nil, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	// The alternating window: request i is traced iff rp.traced(i), on
	// both ends.
	loop := runLoop(inst.callers(), rp.warmup, 2*rp.traceN, 0, rp)

	m := newMetricSet(perLayer)
	res := &result{Attempted: loop.attempted, Failed: loop.failed}
	var plain, traced, all, client []float64
	for _, s := range loop.samples {
		all = append(all, ms(s.wall))
		client = append(client, ms(s.wall-s.inTransport))
		if s.traced {
			traced = append(traced, ms(s.wall))
		} else {
			plain = append(plain, ms(s.wall))
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		m.set("trace.overhead_share", (median(traced)-median(plain))/median(plain))
	}
	if len(all) > 0 {
		m.set("requests_per_s", float64(len(all))/loop.elapsed.Seconds())
		m.set("client_ms_p50", median(client))
	}
	sorted, top := sortedCopy(all), highestSupportedPercentile(len(all))
	for name, q := range map[string]float64{"request_ms_p50": 0.50, "request_ms_p90": 0.90, "request_ms_p99": 0.99} {
		if top >= q {
			m.set(name, percentile(sorted, q))
		}
	}

	var layerErr error
	if loop.firstErr == nil {
		layerErr = kernelSheet(cfg.seed, rp.geo, m)
	}
	if loop.firstErr == nil && layerErr == nil && w.layers != nil {
		layerErr = w.layers(env, inst, rp, m)
	}
	runErr := inst.close()
	if runErr == nil && w.verifyRun != nil {
		runErr = w.verifyRun(inst)
	}
	if runErr == nil && w.afterClose != nil {
		w.afterClose(inst, m)
	}

	spans := rp.tr.linked()
	if err := writeTrace(cfg.outDir, w.name, spans); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res.Metrics = m.export()
	res.Correct = loop.failed == 0 && len(loop.samples) > 0 && runErr == nil && layerErr == nil
	res.detail = append(res.detail, fmt.Sprintf("n=%d traced + %d untraced requests after the warm-up, %d spans",
		len(traced), len(plain), len(spans)))
	res.note("first failure", loop.firstErr)
	res.note("layer metrics failed", layerErr)
	res.note("run check failed", runErr)
	return res, nil
}

// checkEnds verifies that the two ends of one connection agree on the
// traffic that crossed it.
func checkEnds(client, server protocol.Transport) error {
	if client.SentBytes() != server.ReceivedBytes() || client.ReceivedBytes() != server.SentBytes() {
		return fmt.Errorf("transport ends disagree: client sent %d / received %d, server received %d / sent %d",
			client.SentBytes(), client.ReceivedBytes(), server.ReceivedBytes(), server.SentBytes())
	}
	return nil
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func joinFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
