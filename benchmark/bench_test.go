package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"choco/internal/protocol"
)

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestSupportedPercentile(c.n); got != c.want {
			t.Errorf("n=%d: highest percentile with 10 samples beyond it = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100} {
		if got := percentile(v, q); got != want {
			t.Errorf("p%g of 1..100 = %g, want %g", 100*q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestSelfTimeClipsAndMergesChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// at converts a synthetic tick to a time on the tracer's clock.
func at(tr *tracer, tick int64) time.Time { return tr.epoch.Add(time.Duration(tick)) }

// pingPong records one synthetic closed-loop request: the client
// computes for 100 ticks, uploads in no time, waits, and computes for
// 100 more; the server is busy for all of the wait but gap ticks.
func pingPong(tr *tracer, req int, gap int64) {
	root := tr.add(0, req, spanRequest, at(tr, 0), at(tr, 1000))
	tr.add(root, req, spanClientSend, at(tr, 100), at(tr, 100))
	tr.add(root, req, spanClientRecv, at(tr, 100), at(tr, 900))
	tr.addSeq(unlinked, req, "server.compute", at(tr, 100+gap), at(tr, 900), 0)
}

func TestPartitionOfSyntheticPingPong(t *testing.T) {
	tr := newTracer()
	pingPong(tr, 1, 0)
	pingPong(tr, 2, 50)
	accts := accounts(tr.linked())
	if len(accts) != 2 {
		t.Fatalf("%d accounts, want 2", len(accts))
	}
	if got := accts[0].accountedShare(); got != 1 {
		t.Errorf("server busy for the whole wait: accounted share = %v, want exactly 1", got)
	}
	if got := accts[1].accountedShare(); got != 0.95 {
		t.Errorf("50 of 1000 ticks unexplained: accounted share = %v, want 0.95", got)
	}
	for i, a := range accts {
		if a.clientSelf != 200 {
			t.Errorf("request %d: client self = %d, want 200", i+1, a.clientSelf)
		}
		if sum := a.clientSelf + a.wire + a.server["server.compute"]; sum != a.total {
			t.Errorf("request %d: client %d + wire %d + server %d = %d, want the request's %d",
				i+1, a.clientSelf, a.wire, a.server["server.compute"], sum, a.total)
		}
	}
}

// TestTimingTransportsOverPipe drives the two transport wrappers over a
// real pipe against a server that sleeps, and checks that the server's
// busy period lands under the client Recv that waited for it.
func TestTimingTransportsOverPipe(t *testing.T) {
	const requests, work = 3, 5 * time.Millisecond
	tr := newTracer()
	a, b := protocol.NewPipe()
	client := &clientEnd{Transport: a, tr: tr}
	server := &serverEnd{Transport: b, tr: tr}
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			server.begin(i, true)
			msg, err := server.Recv()
			if err != nil {
				done <- endOfSession(err)
				return
			}
			time.Sleep(work)
			if err := server.Send(msg); err != nil {
				done <- err
				return
			}
			server.flush()
		}
	}()
	for i := 0; i < requests; i++ {
		client.begin(i, true)
		if err := client.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Recv(); err != nil {
			t.Fatal(err)
		}
		client.end()
	}
	a.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := checkEnds(client, server); err != nil {
		t.Error(err)
	}

	// The last request's server span is flushed before the loop's next
	// Recv observes the close, so all three are complete here.
	spans := tr.linked()
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	accts := accounts(spans)
	if len(accts) != requests {
		t.Fatalf("%d accounts, want %d", len(accts), requests)
	}
	for _, s := range spans {
		if s.Name == "server.compute" && byID[s.Parent].Name != spanClientRecv {
			t.Errorf("request %d: server.compute hangs off %q, want the waiting %s", s.Req, byID[s.Parent].Name, spanClientRecv)
		}
	}
	for i, a := range accts {
		if busy := time.Duration(a.server["server.compute"]); busy < work {
			t.Errorf("request %d: server busy %v, slept %v", i, busy, work)
		}
		if a.clientSelf < 0 || a.wire < 0 || a.clientSelf+a.wire > a.total {
			t.Errorf("request %d: client %d + wire %d exceed the request's %d", i, a.clientSelf, a.wire, a.total)
		}
	}
}

func TestWorseBy(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worseBy(lower, 100, 107); got != 0.07 {
		t.Errorf("lower-is-better 100 → 107: worse by %v, want 0.07", got)
	}
	if got := worseBy(higher, 100, 95); got != 0.05 {
		t.Errorf("higher-is-better 100 → 95: worse by %v, want 0.05", got)
	}
	if got := worseBy(lower, 100, 90); got >= 0 {
		t.Errorf("an improvement reads as worse by %v", got)
	}
}

// TestSmoke runs every workload at the -smoke geometry, untraced and
// traced, and holds each to the contract of the result line.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 1, trace: traced, smoke: true, outDir: out}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < smokeRequests {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.detail)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q, want %q", w.name, traced, d.Name, v.Unit, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, v.Value)
				}
			}
			if !traced {
				continue
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
				t.Errorf("%s: no trace written: %v", w.name, err)
			}
			if w.name == "lenetsm-pipe" {
				if share := res.Metrics["nn.accounted_share"].Value; share < minAccountedShare {
					t.Errorf("nn.accounted_share = %v, want ≥ %v", share, minAccountedShare)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match the program's %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd, true)
	check("per-layer", doc.PerLayer, perLayer, false)
}
