// Command chocobench regenerates the paper's evaluation tables and
// figures from this implementation and prints them as text reports.
//
// Usage:
//
//	chocobench                 # run everything
//	chocobench table4 fig12    # run selected experiments
//	chocobench -list           # list experiment names
//
// The trajectory entry measures nothing: it reads a `go run ./benchmark`
// report on stdin — or several of one commit, concatenated — and records
// the six end-to-end metrics of every workload in it, under the commit
// the report's header names, in the file -trajectory names
// (github-action-benchmark's data.js shape). It refuses a report with a
// failed or incorrect run, gates nothing, and runs only when named:
//
//	go run ./benchmark | chocobench -trajectory BENCH_trajectory.json trajectory
//	cat lenetsm-pipe.txt knn-ckks-pipe.txt | chocobench -trajectory BENCH_trajectory.json trajectory
//
// The pairs entry is a reader too: `make pairs` runs the parent's and the
// change's benchmark alternately and pipes the log in; out come the
// tables EXPERIMENTS.md records for a PR (medians, the parent's quartile
// distance, better/worse of N, the bound -benchmark's file fixes).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"choco/internal/bench"
)

type experiment struct {
	name string
	desc string
	run  func() (string, error)
}

func experiments(trajectoryPath, benchmarkPath string) []experiment {
	return []experiment{
		{"table1", "HE operation complexity (measured)", bench.Table1},
		{"table3", "parameter presets and ciphertext sizes", bench.Table3},
		{"table4", "noise budgets: rotate vs masked permute", func() (string, error) {
			out, _, err := bench.Table4()
			return out, err
		}},
		{"table5", "evaluation networks", bench.Table5},
		{"fig2", "client compute breakdown (software / partial HW)", bench.Fig2},
		{"fig7", "accelerator design-space exploration", bench.Fig7},
		{"fig8", "encryption scaling: hardware vs software", func() (string, error) {
			out, _, err := bench.Fig8()
			return out, err
		}},
		{"fig10", "communication vs prior protocols", bench.Fig10},
		{"fig11", "distance-kernel packing tradeoffs", func() (string, error) {
			out, _, err := bench.Fig11()
			return out, err
		}},
		{"fig11-live", "measured distance-kernel variants (live CKKS)", bench.Fig11Live},
		{"fig12", "client compute with CHOCO-TACO", func() (string, error) {
			out, _, err := bench.Fig12()
			return out, err
		}},
		{"fig13", "PageRank communication vs iterations", bench.Fig13},
		{"fig14", "end-to-end time & energy vs local inference", func() (string, error) {
			out, _, err := bench.Fig14()
			return out, err
		}},
		{"fig15", "MACs vs communication per conv layer", func() (string, error) {
			out, _, err := bench.Fig15()
			return out, err
		}},
		{"headline", "CHOCO-TACO headline speedups", func() (string, error) {
			return bench.EncDecSpeedups(), nil
		}},
		{"ablation-rotred", "rotational redundancy vs masked permutation", bench.AblationRotRed},
		{"ablation-bsgs", "BSGS vs naive diagonal matrix-vector", bench.AblationBSGS},
		{"ablation-params", "parameter minimization vs SEAL defaults", bench.AblationParamMinimization},
		{"ablation-batch", "packed (latency) vs batched (throughput) packing", bench.AblationPackedVsBatched},
		{"setup-costs", "one-time evaluation-key shipment per network", bench.SetupCosts},
		{"cost-sheet", "LeNet-Sm layer plans priced from unit costs vs measured warm Apply", func() (string, error) {
			out, _, err := bench.CostSheet()
			return out, err
		}},
		{"trajectory", "record a `go run ./benchmark` report from stdin in the -trajectory history", func() (string, error) {
			return bench.AppendTrajectory(trajectoryPath, os.Stdin, time.Now().UnixMilli())
		}},
		{"pairs", "turn a `make pairs` log from stdin into the parent/change tables of EXPERIMENTS.md", func() (string, error) {
			decl, err := os.Open(benchmarkPath)
			if err != nil {
				return "", err
			}
			defer decl.Close()
			return bench.PairsReport(os.Stdin, decl)
		}},
	}
}

func main() {
	list := flag.Bool("list", false, "list experiment names and exit")
	trajectoryPath := flag.String("trajectory", "", "history file the trajectory entry records its report in (BENCH_trajectory.json)")
	benchmarkPath := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration the pairs entry reads its bounds from")
	flag.Parse()

	exps := experiments(*trajectoryPath, *benchmarkPath)
	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}

	selected := map[string]bool{}
	for _, a := range flag.Args() {
		selected[a] = true
	}
	ranAny := false
	for _, e := range exps {
		if !selected[e.name] && (len(selected) > 0 || e.name == "trajectory" || e.name == "pairs") {
			continue // the two readers of stdin run only when named
		}
		ranAny = true
		start := time.Now()
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s (%s) [%v]\n%s\n", e.name, e.desc, time.Since(start).Round(time.Millisecond), out)
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "no matching experiments; use -list\n")
		os.Exit(1)
	}
}
