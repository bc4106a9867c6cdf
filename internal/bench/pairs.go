package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The pair protocol (EXPERIMENTS.md, "End-to-end request cost") as a
// reader: `make pairs` runs the parent's and the change's benchmark
// binaries alternately, a fresh process per run, and writes every run's
// output behind a `# pair <n> <parent|change>` line. PairsReport turns
// that log into the two tables a PR records — per metric the two
// medians, the parent's quartile distance, who won how many pairs and the
// bound BENCHMARK.json fixes; then every run. It measures nothing and
// decides nothing: the rule (≥ 9 of 10 pairs, medians further apart than
// the parent's quartile distance) is applied by whoever reads the table.

// pairRun is one process's result by metric name: the gated metrics of
// its closing JSON line and the watched rows printed above it. A run
// that never reached the JSON line is not finished.
type pairRun struct {
	values   map[string]float64
	finished bool
}

type pairWorkload struct {
	name    string
	pairs   []int               // in first-seen order
	runs    map[int][2]*pairRun // pair → {parent, change}
	watched []string            // in first-seen order
	units   map[string]string   // of every metric seen
}

type benchmarkDecl struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// PairsReport reads a `make pairs` log and BENCHMARK.json and returns
// the summary and every-run tables in Markdown, one pair of tables per
// workload in the log. A run that was not clean (correct false, or a
// failed request), a pair with a side missing and a run without a metric
// BENCHMARK.json gates are refused. Watched rows carry no direction, so
// theirs is a count of pairs where the change read lower and higher.
func PairsReport(log, benchmarkJSON io.Reader) (string, error) {
	var decl benchmarkDecl
	if err := json.NewDecoder(benchmarkJSON).Decode(&decl); err != nil {
		return "", fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(decl.EndToEnd) == 0 {
		return "", fmt.Errorf("BENCHMARK.json declares no end_to_end metrics")
	}
	workloads, err := parsePairsLog(log)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, w := range workloads {
		if err := w.write(&b, decl); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

func parsePairsLog(r io.Reader) ([]*pairWorkload, error) {
	var order []*pairWorkload
	byName := map[string]*pairWorkload{}
	pair, side := 0, -1
	var cur *pairWorkload
	var run *pairRun
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case len(f) == 4 && f[0] == "#" && f[1] == "pair":
			n, err := strconv.Atoi(f[2])
			if err != nil || (f[3] != "parent" && f[3] != "change") {
				return nil, fmt.Errorf("pair marker %q: want `# pair <n> <parent|change>`", line)
			}
			pair, side, cur, run = n, 0, nil, nil
			if f[3] == "change" {
				side = 1
			}
		case f[0] == "workload" && len(f) >= 3 && side >= 0:
			if f[2] != "trace=0" {
				return nil, fmt.Errorf("pair %d: a traced run of %s (end-to-end metrics come from untraced runs)", pair, f[1])
			}
			if cur = byName[f[1]]; cur == nil {
				cur = &pairWorkload{name: f[1], runs: map[int][2]*pairRun{}, units: map[string]string{}}
				byName[f[1]] = cur
				order = append(order, cur)
			}
			sides, seen := cur.runs[pair]
			if !seen {
				cur.pairs = append(cur.pairs, pair)
			}
			if sides[side] != nil {
				return nil, fmt.Errorf("%s: pair %d has two runs of one side", cur.name, pair)
			}
			run = &pairRun{values: map[string]float64{}}
			sides[side] = run
			cur.runs[pair] = sides
		case run != nil && len(f) >= 6 && f[1] == "=" && strings.HasSuffix(line, "(watched, not gated)"):
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("watched row %q: %w", strings.TrimSpace(line), err)
			}
			if _, seen := cur.units[f[0]]; !seen {
				cur.watched = append(cur.watched, f[0])
			}
			run.values[f[0]], cur.units[f[0]] = v, f[3]
		case run != nil && line[0] == '{':
			var res struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("%s pair %d: result line: %w", cur.name, pair, err)
			}
			if !res.Correct || res.Failed != 0 {
				return nil, fmt.Errorf("%s pair %d: the run was not clean: correct=%v failed=%d", cur.name, pair, res.Correct, res.Failed)
			}
			for name, m := range res.Metrics {
				run.values[name], cur.units[name] = m.Value, m.Unit
			}
			run.finished = true
			run, side = nil, -1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("not a pairs log: no `# pair <n> <side>` run in it")
	}
	for _, w := range order {
		for _, p := range w.pairs {
			for s, r := range w.runs[p] {
				if r == nil || !r.finished {
					return nil, fmt.Errorf("%s: pair %d has no finished %s run", w.name, p, [2]string{"parent", "change"}[s])
				}
			}
		}
	}
	return order, nil
}

func (w *pairWorkload) write(b *strings.Builder, decl benchmarkDecl) error {
	n := len(w.pairs)
	column := func(metric string) (parent, change []float64, err error) {
		for _, p := range w.pairs {
			for s, r := range w.runs[p] {
				v, ok := r.values[metric]
				if !ok {
					return nil, nil, fmt.Errorf("%s: pair %d has no %s", w.name, p, metric)
				}
				if s == 0 {
					parent = append(parent, v)
				} else {
					change = append(change, v)
				}
			}
		}
		return parent, change, nil
	}

	fmt.Fprintf(b, "`%s`, %d pairs:\n\n", w.name, n)
	fmt.Fprintf(b, "| metric | parent median | change median | change − parent | parent quartile distance | change better / worse of %d | bound |\n", n)
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|\n")
	row := func(metric, better, bound string, parent, change []float64) {
		pm, cm := median(parent), median(change)
		delta := "0"
		if cm != pm {
			delta = fmt.Sprintf("%+.2f %%", 100*(cm-pm)/pm)
		}
		lower, higher := 0, 0
		for i := range parent {
			switch {
			case change[i] < parent[i]:
				lower++
			case change[i] > parent[i]:
				higher++
			}
		}
		score := fmt.Sprintf("%d lower / %d higher", lower, higher)
		switch {
		case lower+higher == 0:
			score = fmt.Sprintf("identical ×%d", n)
		case better == "lower":
			score = fmt.Sprintf("%d / %d", lower, higher)
		case better == "higher":
			score = fmt.Sprintf("%d / %d", higher, lower)
		}
		fmt.Fprintf(b, "| `%s` (%s) | %s | %s | %s | %s | %s | %s |\n", metric, w.units[metric],
			fmtMetric(pm), fmtMetric(cm), delta, fmtMetric(quartileDistance(parent)), score, bound)
	}
	for _, m := range decl.EndToEnd {
		parent, change, err := column(m.Name)
		if err != nil {
			return err
		}
		row(m.Name, m.Better, fmt.Sprintf("%g %%", 100*m.Bound), parent, change)
	}
	var names []string
	for _, m := range decl.EndToEnd {
		names = append(names, m.Name)
	}
	for _, name := range w.watched {
		// A percentile is printed only by runs with enough samples
		// beyond it; a row some runs lack is left out.
		if parent, change, err := column(name); err == nil {
			row(name, "", "watched", parent, change)
			names = append(names, name)
		}
	}
	fmt.Fprintf(b, "\n`%s`, every run (odd pairs ran the parent first), parent / change:\n\n| pair |", w.name)
	for _, name := range names {
		fmt.Fprintf(b, " `%s` |", name)
	}
	b.WriteString("\n|---:|" + strings.Repeat("---:|", len(names)) + "\n")
	for _, p := range w.pairs {
		sides := w.runs[p]
		fmt.Fprintf(b, "| %d |", p)
		for _, name := range names {
			fmt.Fprintf(b, " %s / %s |", fmtMetric(sides[0].values[name]), fmtMetric(sides[1].values[name]))
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	return nil
}

// fmtMetric prints whole numbers (byte counts) whole and everything else
// to four or five significant digits.
func fmtMetric(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v):
		return strconv.FormatFloat(v, 'f', 0, 64)
	case a >= 100:
		return strconv.FormatFloat(v, 'f', 2, 64)
	case a >= 1:
		return strconv.FormatFloat(v, 'f', 3, 64)
	default:
		return strconv.FormatFloat(v, 'f', 4, 64)
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileDistance is Q3 − Q1 by the exclusive method (Python's
// statistics.quantiles default, which the earlier records used): the
// quartiles sit at positions (n+1)/4 and 3(n+1)/4 of the sorted runs,
// interpolated. Fewer than two runs have no spread.
func quartileDistance(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return quartile(3) - quartile(1)
}
