package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixtures are what the benchmark printed, verbatim: the suite under
// -smoke and single `-workload lenetsm-pipe` and `-workload knn-ckks-pipe`
// runs.
func fixture(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

var endToEndUnits = map[string]string{
	"request_ms_p05": "ms", "client_ms_p05": "ms", "wire_bytes_per_request": "B",
	"alloc_kb_per_request": "KiB", "peak_rss_mb": "MiB", "setup_s": "s",
}

func TestTrajectoryReadsBothReportForms(t *testing.T) {
	for _, tc := range []struct {
		file      string
		workloads []string
	}{
		{"report_suite_smoke.txt", []string{"lenetsm-pipe", "lenetsm-serve-tcp2", "knn-ckks-pipe", "client-cycle"}},
		{"report_single_lenetsm_pipe.txt", []string{"lenetsm-pipe"}},
	} {
		entry, err := parseReport(strings.NewReader(fixture(t, tc.file)))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if entry.Commit.ID != "016a3fa" {
			t.Errorf("%s: commit %q, the header says 016a3fa", tc.file, entry.Commit.ID)
		}
		if len(entry.Benches) != 6*len(tc.workloads) {
			t.Fatalf("%s: %d benches, want six per workload of %v", tc.file, len(entry.Benches), tc.workloads)
		}
		got := map[string]trajectoryBench{}
		for _, b := range entry.Benches {
			got[b.Name] = b
		}
		for _, w := range tc.workloads {
			for metric, unit := range endToEndUnits {
				b, ok := got[w+"/"+metric]
				if !ok || b.Unit != unit || b.Value <= 0 {
					t.Errorf("%s: %s/%s = %+v (present %v), want a positive value in %s", tc.file, w, metric, b, ok, unit)
				}
			}
		}
		if b := got["lenetsm-pipe/wire_bytes_per_request"]; b.Value != 258340 {
			t.Errorf("%s: lenetsm-pipe/wire_bytes_per_request = %v, the report says 258340", tc.file, b.Value)
		}
	}
}

// TestTrajectoryReadsTwoReportsAsOneEntry: two single-workload reports of
// one commit, read in one call, make one entry of twelve benches; two of
// different commits are refused.
func TestTrajectoryReadsTwoReportsAsOneEntry(t *testing.T) {
	lenet, knn := fixture(t, "report_single_lenetsm_pipe.txt"), fixture(t, "report_single_knn_ckks_pipe.txt")
	sameCommit := strings.Replace(knn, "commit=d22fa78", "commit=016a3fa", 1)
	if sameCommit == knn {
		t.Fatal("the knn-ckks-pipe fixture's header does not name commit d22fa78")
	}
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	if _, err := AppendTrajectory(path, strings.NewReader(lenet+sameCommit), 1); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hist trajectoryFile
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatal(err)
	}
	entries := hist.Entries[trajectorySuite]
	if len(entries) != 1 || entries[0].Commit.ID != "016a3fa" || len(entries[0].Benches) != 12 {
		t.Fatalf("history holds %+v, want one 016a3fa entry of 12 benches", entries)
	}
	got := map[string]float64{}
	for _, b := range entries[0].Benches {
		got[b.Name] = b.Value
	}
	for _, w := range []string{"lenetsm-pipe", "knn-ckks-pipe"} {
		for metric := range endToEndUnits {
			if got[w+"/"+metric] <= 0 {
				t.Errorf("%s/%s = %v, want a positive value", w, metric, got[w+"/"+metric])
			}
		}
	}
	if got["knn-ckks-pipe/wire_bytes_per_request"] != 317536 {
		t.Errorf("knn-ckks-pipe/wire_bytes_per_request = %v, the report says 317536", got["knn-ckks-pipe/wire_bytes_per_request"])
	}
	if _, err := AppendTrajectory("", strings.NewReader(lenet+knn), 2); err == nil || !strings.Contains(err.Error(), "two commits") {
		t.Errorf("reports of 016a3fa and d22fa78 read as one: error %v", err)
	}
}

func TestTrajectoryReplacesACommitsEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	single := fixture(t, "report_single_lenetsm_pipe.txt")
	other := strings.Replace(single, "commit=016a3fa", "commit=0000000", 1)
	for i, report := range []string{single, other, strings.Replace(single, "258340.0000 B", "258341.0000 B", 1)} {
		if _, err := AppendTrajectory(path, strings.NewReader(report), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hist trajectoryFile
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatal(err)
	}
	entries := hist.Entries[trajectorySuite]
	if len(entries) != 2 || entries[0].Commit.ID != "0000000" || entries[1].Commit.ID != "016a3fa" {
		t.Fatalf("history holds %d entries %+v, want 0000000 then the re-recorded 016a3fa", len(entries), entries)
	}
	newest := entries[1]
	if hist.LastUpdate != 1002 || newest.Date != 1002 || len(newest.Benches) != 6 {
		t.Errorf("lastUpdate %d, newest entry dated %d with %d benches; want 1002, 1002, 6", hist.LastUpdate, newest.Date, len(newest.Benches))
	}
	for _, b := range newest.Benches {
		if b.Name == "lenetsm-pipe/wire_bytes_per_request" && b.Value != 258341 {
			t.Errorf("the second report for 016a3fa did not replace the first: %+v", b)
		}
	}
}

func TestTrajectoryRefusesUncleanReports(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	suite, single := fixture(t, "report_suite_smoke.txt"), fixture(t, "report_single_lenetsm_pipe.txt")
	if _, err := AppendTrajectory(path, strings.NewReader(suite), 1); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, report := range map[string]string{
		"suite run incorrect":  strings.Replace(suite, "correct=true attempted=4 failed=0", "correct=false attempted=4 failed=0", 1),
		"suite run failed":     strings.Replace(suite, "correct=true attempted=4 failed=0", "correct=true attempted=4 failed=1", 1),
		"FAIL line":            suite + "FAIL: see above\n",
		"single run incorrect": strings.Replace(single, `{"correct":true,`, `{"correct":false,`, 1),
		"single run failed":    strings.Replace(single, `"failed":0`, `"failed":3`, 1),
		"no header":            strings.SplitN(single, "\n", 2)[1],
		"not a report":         "hello\n",
	} {
		if report == suite || report == single {
			t.Fatalf("%s: the fixture has nothing to corrupt", name)
		}
		if _, err := AppendTrajectory(path, strings.NewReader(report), 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
			t.Fatalf("%s: the refused report changed the history file", name)
		}
	}
}
