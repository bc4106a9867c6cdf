// Command benchmark prices a whole offloaded request. It runs four
// named workloads through real HE over the real protocol, checks every
// reply against its plaintext oracle, and prints every metric by name
// with its unit: end-to-end numbers from an untraced run, per-layer
// numbers from a second, traced run of the same workload. See README.md
// in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                          the suite: every workload, untraced then traced
//	go run ./benchmark -workload lenetsm-pipe   one workload, untraced
//	go run ./benchmark -workload lenetsm-pipe -trace 1
//	go run ./benchmark -repeat 2                the suite twice, compared against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"choco/internal/ring"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measurement window
// of every workload.
const defaultSeconds = 20

var workloads = []*workload{
	{
		name:   "lenetsm-pipe",
		why:    "the paper's headline request: LeNet-Sm at bfv-B over a pipe, no serving tier; core/bfv/ring do ~97% of the work",
		warmup: 5, tracedRequests: 30, setups: 7,
		newEnv: newLenetEnv, setup: setupLenetPipe, layers: lenetPipeLayers, verifyRun: verifyPipeBytes,
	},
	{
		name:   "lenetsm-serve-tcp2",
		why:    "the same network through serve.Server over TCP with two keyed clients: ApplyBatch, cached plaintexts, contention, real framing",
		warmup: 5, tracedRequests: 15, setups: 5,
		newEnv: newLenetEnv, setup: setupLenetServe, layers: lenetServeLayers, afterClose: lenetServeCounters, verifyRun: verifyServeBytes,
	},
	{
		name:   "knn-ckks-pipe",
		why:    "the CKKS user of ring and key-switching: a 64x16 distance query; core, bfv and serve do nothing here",
		warmup: 20, tracedRequests: 200, setups: 5,
		newEnv: newKNNEnv, setup: setupKNN, layers: knnLayers, verifyRun: verifyKNNBytes,
	},
	{
		name:   "client-cycle",
		why:    "the client kernel alone: encrypt, marshal, unmarshal, decrypt at bfv-B, bfv-A and ckks-C; no server code runs",
		warmup: 50, tracedRequests: 500, setups: 9,
		newEnv: newCycleEnv, setup: setupCycle,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: the suite, one child process per run)")
		seed    = flag.Int64("seed", 1, "every input (weights, images, points, queries, key seeds) derives from it")
		seconds = flag.Float64("seconds", defaultSeconds, "measurement window of an untraced run")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny geometry: two requests per workload, 8-point KNN")
		repeat  = flag.Int("repeat", 1, "run the suite this many times (seed, seed+1, ...) and compare the sets against the bounds")
		outDir  = flag.String("out", "benchmark/out", "directory for trace-<workload>.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: *outDir}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		os.Exit(runOne(w, cfg, os.Stdout))
	}
	os.Exit(runSuite(cfg, *repeat))
}

// header is the first line of every output: what ran, where.
func header(cfg runConfig) string {
	vec := 0
	if ring.VectorKernelsEnabled() {
		vec = 1
	}
	return fmt.Sprintf("# choco benchmark commit=%s go=%s nproc=%d GOMAXPROCS=%d par.width=%d (every workload is pinned there) ring.vector_kernels=%d seed=%d seconds=%g smoke=%v",
		commit(), runtime.Version(), runtime.NumCPU(), pinnedCores, pinnedCores, vec, cfg.seed, cfg.seconds, cfg.smoke)
}

// commit is the VCS revision the binary was built from when the
// toolchain stamped one (go build does, go run does not), else what git
// says about the working directory, else "unknown" (an exported tree).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short=7", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// runOne runs one workload in this process, prints the report, and ends
// with the one-line JSON result. The exit code is 0 whenever a result
// was produced; correctness is in the result.
func runOne(w *workload, cfg runConfig, out io.Writer) int {
	fmt.Fprintln(out, header(cfg))
	fmt.Fprintf(out, "workload %s trace=%d warmup=%d traced_requests=%d\n", w.name, b2i(cfg.trace), w.warmup, w.tracedRequests)
	res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	printMetrics(out, defs, res.Metrics)
	for _, d := range res.detail {
		fmt.Fprintln(out, "  "+d)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printMetrics(out io.Writer, defs []metricDef, values map[string]metricValue) {
	for _, d := range defs {
		note := d.Better + " is better"
		if d.Bound > 0 {
			note += fmt.Sprintf(", bound %.3g%%", 100*d.Bound)
		}
		fmt.Fprintf(out, "  %-38s %14.4f %-6s (%s)\n", d.Name, values[d.Name].Value, d.Unit, note)
	}
}

// suiteSet is one pass over every workload: its untraced and traced
// results by workload name.
type suiteSet struct {
	e2e, layers map[string]*result
}

// runSuite runs every workload, each run in a fresh child process so no
// workload inherits another's heap, caches or pool width.
func runSuite(cfg runConfig, repeat int) int {
	fmt.Println(header(cfg))
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	status := 0
	var sets []suiteSet
	for r := 0; r < repeat; r++ {
		set := suiteSet{e2e: map[string]*result{}, layers: map[string]*result{}}
		c := cfg
		c.seed = cfg.seed + int64(r)
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				c.trace = traced
				res, err := runChild(exe, w, c)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
					return 1
				}
				if !res.Correct {
					status = 1
				}
				if traced {
					set.layers[w.name] = res
				} else {
					set.e2e[w.name] = res
				}
			}
		}
		sets = append(sets, set)
	}
	if repeat > 1 && !agree(sets) {
		status = 1
	}
	if status != 0 {
		fmt.Println("FAIL: see above")
	}
	return status
}

// runChild re-executes this binary for one run, echoes its report and
// parses the result line.
func runChild(exe string, w *workload, cfg runConfig) (*result, error) {
	args := []string{
		"-workload", w.name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(b2i(cfg.trace)),
		"-out", cfg.outDir,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child run failed: %w", err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("child printed %d line(s), want a report and a result", len(lines))
	}
	// The child's first line repeats the header; the last is the result.
	for _, l := range lines[1 : len(lines)-1] {
		fmt.Println(l)
	}
	var res result
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("child result line: %w", err)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	return &res, nil
}

// exactAcrossSeeds are the numbers that must not depend on the inputs at
// all: HE work and ciphertext sizes are data-oblivious.
var exactAcrossSeeds = []string{"core.rotations_per_request", "core.plainmults_per_request", "core.adds_per_request"}

// agree prints the sets side by side with each end-to-end metric's
// bound and reports whether every later set is within the bound of the
// first, in either direction; the data-oblivious counts must be
// identical.
func agree(sets []suiteSet) bool {
	ok := true
	fmt.Println("agreement between sets (difference as a share of set 1; bound):")
	for _, w := range workloads {
		for _, d := range endToEnd {
			base := sets[0].e2e[w.name].Metrics[d.Name].Value
			row := fmt.Sprintf("  %-20s %-24s %14.4f", w.name, d.Name, base)
			verdict := "ok"
			for _, s := range sets[1:] {
				cur := s.e2e[w.name].Metrics[d.Name].Value
				by := worseBy(d, base, cur)
				row += fmt.Sprintf(" %14.4f (%+.2f%%)", cur, 100*by)
				exact := d.Name == "wire_bytes_per_request"
				if math.Abs(by) > d.Bound || (exact && cur != base) {
					verdict = "EXCEEDS"
					ok = false
				}
			}
			fmt.Printf("%s  bound %.3g%%  %s\n", row, 100*d.Bound, verdict)
		}
		for _, name := range exactAcrossSeeds {
			base := sets[0].layers[w.name].Metrics[name].Value
			for _, s := range sets[1:] {
				if cur := s.layers[w.name].Metrics[name].Value; cur != base {
					fmt.Printf("  %-20s %-24s %v != %v across seeds  EXCEEDS\n", w.name, name, base, cur)
					ok = false
				}
			}
		}
	}
	return ok
}
