package bench

import (
	"fmt"
	"strings"
	"testing"
)

const pairsDecl = `{"end_to_end": [
	{"name": "request_ms_p05", "unit": "ms", "better": "lower", "bound": 0.25},
	{"name": "wire_bytes_per_request", "unit": "B", "better": "lower", "bound": 0.001}]}`

// pairsRun is one run as the benchmark prints it, cut down to the lines
// the reader uses.
func pairsRun(pair int, side, workload string, p05, perS float64, failed int) string {
	return fmt.Sprintf(`# pair %d %s
# choco benchmark commit=unknown go=go1.24.0 seed=7 seconds=20 smoke=false
workload %s trace=0 warmup=10 traced_requests=40
  request_ms_p05                                %.4f ms     (lower is better, bound 25%%)
  requests_per_s = %.4f 1/s (watched, not gated)
{"correct":true,"attempted":100,"failed":%d,"metrics":{"request_ms_p05":{"value":%g,"unit":"ms"},"wire_bytes_per_request":{"value":258340,"unit":"B"}}}
`, pair, side, workload, p05, perS, failed, p05)
}

func TestPairsReport(t *testing.T) {
	// Five pairs; the change wins four. Python's statistics.quantiles on
	// the parent's [60, 58, 59, 62, 57] gives Q1 57.5 and Q3 61: 3.5.
	parent := []float64{60, 58, 59, 62, 57}
	change := []float64{43, 44, 42.5, 41, 57.5}
	var log strings.Builder
	for i := range parent {
		first, second := pairsRun(i+1, "parent", "lenetsm-serve-tcp2", parent[i], 28, 0), pairsRun(i+1, "change", "lenetsm-serve-tcp2", change[i], 32, 0)
		if i%2 == 1 {
			first, second = second, first
		}
		log.WriteString(first + second)
	}
	// One run alone had the samples for a p99: the row is left out.
	withP99 := strings.Replace(log.String(), "(watched, not gated)\n", "(watched, not gated)\n  request_ms_p99 = 70.0000 ms (watched, not gated)\n", 1)
	out, err := PairsReport(strings.NewReader(withP99), strings.NewReader(pairsDecl))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "request_ms_p99") {
		t.Errorf("a watched row only one run printed was reported:\n%s", out)
	}
	for _, want := range []string{
		"`lenetsm-serve-tcp2`, 5 pairs:",
		"| `request_ms_p05` (ms) | 59 | 43 | -27.12 % | 3.500 | 4 / 1 | 25 % |",
		"| `wire_bytes_per_request` (B) | 258340 | 258340 | 0 | 0 | identical ×5 | 0.1 % |",
		"| `requests_per_s` (1/s) | 28 | 32 | +14.29 % | 0 | 0 lower / 5 higher | watched |",
		"| 5 | 57 / 57.500 | 258340 / 258340 | 28 / 32 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("the report lacks %q:\n%s", want, out)
		}
	}

	for name, bad := range map[string]string{
		"a failed request":   log.String() + pairsRun(6, "parent", "lenetsm-serve-tcp2", 60, 28, 0) + pairsRun(6, "change", "lenetsm-serve-tcp2", 43, 32, 1),
		"a side missing":     log.String() + pairsRun(6, "parent", "lenetsm-serve-tcp2", 60, 28, 0),
		"one side twice":     log.String() + pairsRun(5, "change", "lenetsm-serve-tcp2", 43, 32, 0),
		"a traced run":       strings.Replace(log.String(), "trace=0", "trace=1", 1),
		"no pair marker":     "hello\n",
		"a misspelt marker":  "# pair one parent\n",
		"an unfinished pair": log.String() + "# pair 6 parent\nworkload lenetsm-serve-tcp2 trace=0\n",
	} {
		if out, err := PairsReport(strings.NewReader(bad), strings.NewReader(pairsDecl)); err == nil {
			t.Errorf("a log with %s was reported:\n%s", name, out)
		}
	}
	if _, err := PairsReport(strings.NewReader(log.String()), strings.NewReader(`{"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}`)); err == nil {
		t.Error("runs without a gated metric were reported")
	}
}

// TestQuartileDistance holds the exclusive method to the values Python's
// statistics.quantiles(v, n=4) gives — the earlier records' tool.
func TestQuartileDistance(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 8.25 - 2.75},
		{[]float64{57.17, 57.34, 58.18, 59.53, 57.54, 60.22, 60.15, 58.87, 59.49, 58.17}, 59.685 - 57.49}, // PR 19's tcp2 parent: 2.19
		{[]float64{3, 1}, 3.5 - 0.5},
		{[]float64{4}, 0},
	} {
		if got := quartileDistance(tc.v); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quartileDistance(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}
