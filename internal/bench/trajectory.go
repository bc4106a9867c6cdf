package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The perf history is what `go run ./benchmark` measured, commit by
// commit, in the shape github-action-benchmark keeps in its data.js
// (minus the `window.BENCHMARK_DATA =` prefix), so its chart page reads
// BENCH_trajectory.json as it is. Nothing here measures and nothing
// gates: BENCHMARK.json's bounds over alternating parent/change runs are
// the gate, and one run on a shared box cannot resolve them.

// trajectoryBench is one end-to-end metric of one workload, named
// "<workload>/<metric>".
type trajectoryBench struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// trajectoryEntry is one commit's report.
type trajectoryEntry struct {
	Commit struct {
		ID string `json:"id"`
	} `json:"commit"`
	Date    int64             `json:"date"` // Unix milliseconds
	Tool    string            `json:"tool"`
	Benches []trajectoryBench `json:"benches"`
}

// trajectorySuite is the one key under "entries".
const trajectorySuite = "choco benchmark"

type trajectoryFile struct {
	LastUpdate int64                        `json:"lastUpdate"`
	Entries    map[string][]trajectoryEntry `json:"entries"`
}

// parseReport reads the text `go run ./benchmark` prints — the
// suite, a single -workload run, or several such reports one after the
// other, all of one commit — and returns the commit from its header and
// the gated end-to-end metrics (the rows that carry a bound) of every
// untraced run in it. A report with a failed or incorrect run is
// refused: `correct=false` or a non-zero `failed=` after a suite's run,
// the same two in a single run's closing JSON line, or a FAIL line; so
// is a header naming a second commit.
func parseReport(r io.Reader) (trajectoryEntry, error) {
	entry := trajectoryEntry{Tool: "customSmallerIsBetter"}
	workload := "" // of the untraced run being read, else empty
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case strings.HasPrefix(line, "# choco benchmark "):
			for _, kv := range f {
				id, ok := strings.CutPrefix(kv, "commit=")
				if !ok {
					continue
				}
				if entry.Commit.ID != "" && entry.Commit.ID != id {
					return entry, fmt.Errorf("the reports are of two commits, %s and %s", entry.Commit.ID, id)
				}
				entry.Commit.ID = id
			}
		case f[0] == "workload" && len(f) >= 3:
			workload = ""
			if f[2] == "trace=0" {
				workload = f[1]
			}
		case strings.HasPrefix(line, "FAIL"):
			return entry, fmt.Errorf("the report says %q", line)
		case strings.HasPrefix(f[0], "correct="):
			if f[0] != "correct=true" || len(f) < 3 || f[2] != "failed=0" {
				return entry, fmt.Errorf("the report has a failed or incorrect run: %q", strings.TrimSpace(line))
			}
		case line[0] == '{':
			var res struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return entry, fmt.Errorf("result line: %w", err)
			}
			if !res.Correct || res.Failed != 0 {
				return entry, fmt.Errorf("the report's run was not clean: correct=%v failed=%d", res.Correct, res.Failed)
			}
		case workload != "" && len(f) >= 4 && strings.Contains(line, ", bound "):
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return entry, fmt.Errorf("metric row %q: %w", strings.TrimSpace(line), err)
			}
			entry.Benches = append(entry.Benches, trajectoryBench{Name: workload + "/" + f[0], Value: v, Unit: f[2]})
		}
	}
	if err := sc.Err(); err != nil {
		return entry, err
	}
	if entry.Commit.ID == "" || len(entry.Benches) == 0 {
		return entry, fmt.Errorf("not a benchmark report: commit %q, %d end-to-end metrics", entry.Commit.ID, len(entry.Benches))
	}
	return entry, nil
}

// AppendTrajectory parses the report and records it in the history file
// at path (created when missing) as its commit's entry, replacing an
// earlier entry for the same commit. A refused report leaves the file
// untouched. With an empty path it only parses. It returns a line saying
// what it did.
func AppendTrajectory(path string, report io.Reader, unixMilli int64) (string, error) {
	entry, err := parseReport(report)
	if err != nil {
		return "", err
	}
	entry.Date = unixMilli
	if path == "" {
		return fmt.Sprintf("commit %s: %d end-to-end metrics (no -trajectory file named, nothing written)\n", entry.Commit.ID, len(entry.Benches)), nil
	}
	hist := trajectoryFile{Entries: map[string][]trajectoryEntry{}}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &hist); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return "", err
	}
	var kept []trajectoryEntry
	for _, e := range hist.Entries[trajectorySuite] {
		if e.Commit.ID != entry.Commit.ID {
			kept = append(kept, e)
		}
	}
	hist.Entries[trajectorySuite] = append(kept, entry)
	hist.LastUpdate = unixMilli
	out, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return "", err
	}
	return fmt.Sprintf("commit %s: %d end-to-end metrics recorded in %s (%d commits)\n",
		entry.Commit.ID, len(entry.Benches), path, len(kept)+1), nil
}
