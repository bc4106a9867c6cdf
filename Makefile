# Developer workflow for the CHOCO reproduction.
#
#   make check   — what CI runs: vet + chocolint + race/shuffled tests
#                  (default, chocodebug-tagged, and purego-tagged builds)
#   make test    — tier-1 verify (build + tests, as in ROADMAP.md)
#   make lint    — chocolint static analyzers only (see internal/lint)
#   make race    — race-enabled, shuffled tests; reruns the parallel
#                  execution-layer packages (including the rlwe key-switch
#                  core and the bfv/ckks hoisted-rotation fan-outs), the
#                  serving tier with its shared weight-plaintext
#                  cache, and the fabric routing tier with
#                  GOMAXPROCS=4 so the par fan-out
#                  paths, sessions running their layers side by side
#                  over the one plaintext cache,
#                  and the router's splice/health/membership
#                  concurrency are exercised even on 1-core CI; then
#                  the serving and fabric suites 50 times over (their
#                  counters must already hold every inference a client
#                  has seen the reply to — the TestFabricFleet race)
#                  and the concurrent first use of a decomposition's
#                  hoisted lift of c0 10 times
#   make debug   — tests with the chocodebug assertion layer compiled in
#                  (ring, the shared rlwe core with its QP accumulator
#                  invariants, both schemes' entry-point checks, the
#                  core operators that drive them: the FC and the conv
#                  giant fold, and nn, whose reply path runs the
#                  ModSwitchDown entry check on real layer outputs); then
#                  the two schemes and rlwe once more without -race,
#                  because the allocation-count tests skip themselves
#                  under the race detector and the assertion layer must
#                  not cost the hot paths an object
#   make purego  — tests with the vector kernels compiled out (the
#                  scalar-only build every non-amd64 target gets)
#   make bench   — the repository's benchmark (see bench-e2e), its
#                  report recorded under the commit in
#                  BENCH_trajectory.json, then the Go benchmarks
#   make fuzz    — 30-second smoke run of the packed-row codec's fuzz
#                  target (internal/ring), of the CKKS encoder against
#                  its big-integer oracle (internal/ckks: any float64
#                  bits as slot and scale, same bytes or both refuse),
#                  and of each internal/protocol
#                  one (frame parser, hello-frame round-trip, the shard
#                  hello, key-fetch, peer-ping and stats-fetch frames of
#                  the fleet's inner boundary, and the BFV and CKKS
#                  ciphertext decoders and the key-bundle decoder, whose
#                  40 KB–0.6 MB inputs run with minimization off: the
#                  engine otherwise spends the whole window shrinking
#                  one input)
#   make bench-e2e — the repository's benchmark (benchmark/README.md):
#                  four workloads end to end through real HE over the
#                  real protocol, untraced then traced, ~4 min
#   make pairs PARENT=<rev> WORKLOAD=<name> [N=10] [SEED=1]
#                — the protocol a claimed gain is measured by: the
#                  parent's tree (git archive of PARENT, unpacked under
#                  PAIRS_DIR, outside this one) and this tree each
#                  build ./benchmark once; N pairs of 20 s runs of the
#                  one workload, a fresh process per run, odd pairs
#                  parent first; then `chocobench pairs` prints the
#                  tables EXPERIMENTS.md records (medians, the parent's
#                  quartile distance, better/worse of N, the bounds of
#                  BENCHMARK.json). ~45 s a pair a workload; run nothing
#                  else meanwhile. The log stays in PAIRS_DIR.
#   make loc     — Go lines (wc -l) per directory outside benchmark/,
#                  non-test and _test.go apart, and their totals: the
#                  count simplicity PRs and re-anchors quote (analyzer
#                  fixtures count as non-test lines, one row per
#                  testdata tree)

GO ?= go
N ?= 10
SEED ?= 1
PAIRS_DIR ?= /tmp/choco-pairs

.PHONY: check build test lint race debug purego vet bench bench-e2e fuzz pairs loc

check: vet lint race debug purego

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

lint:
	$(GO) run ./cmd/chocolint ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -shuffle=on ./...
	GOMAXPROCS=4 $(GO) test -race -shuffle=on ./internal/par ./internal/ring ./internal/rlwe ./internal/bfv ./internal/ckks ./internal/core ./internal/apps/distance ./internal/serve ./internal/fabric
	$(GO) test -race -count=50 -timeout 60m ./internal/serve ./internal/fabric
	$(GO) test -race -count=10 -run 'TestRotateRowsLazyNTTMatchesMaterialized' ./internal/bfv

debug:
	$(GO) test -race -shuffle=on -tags chocodebug ./internal/ring ./internal/rlwe ./internal/bfv ./internal/ckks ./internal/core ./internal/nn
	$(GO) test -shuffle=on -tags chocodebug ./internal/bfv ./internal/ckks ./internal/rlwe

purego:
	$(GO) build -tags purego ./...
	$(GO) test -shuffle=on -tags purego ./...

fuzz:
	$(GO) test ./internal/ring -run '^$$' -fuzz '^FuzzPackedRow$$' -fuzztime 30s
	$(GO) test ./internal/ckks -run '^$$' -fuzz '^FuzzEncodeCKKS$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzHelloFrame$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzShardHello$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzKeyFetch$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzPeerPing$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzStatsFetch$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzUnmarshalBFV$$' -fuzztime 30s -fuzzminimizetime 0
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzUnmarshalCKKS$$' -fuzztime 30s -fuzzminimizetime 0
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzUnmarshalKeyBundle$$' -fuzztime 30s -fuzzminimizetime 0

bench-e2e:
	$(GO) run ./benchmark

bench:
	mkdir -p benchmark/out
	$(GO) run ./benchmark | tee benchmark/out/suite.txt
	$(GO) run ./cmd/chocobench -trajectory BENCH_trajectory.json trajectory < benchmark/out/suite.txt
	$(GO) test -bench=. -benchmem ./...

pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make pairs PARENT=<rev> WORKLOAD=<name> [N=10] [SEED=1] [PAIRS_DIR=/tmp/choco-pairs]"; exit 2; }
	rm -rf $(PAIRS_DIR)/parent
	mkdir -p $(PAIRS_DIR)/parent $(PAIRS_DIR)/out
	git archive $(PARENT) | tar -x -C $(PAIRS_DIR)/parent
	cd $(PAIRS_DIR)/parent && $(GO) build -o $(PAIRS_DIR)/bench_parent ./benchmark
	$(GO) build -o $(PAIRS_DIR)/bench_change ./benchmark
	: > $(PAIRS_DIR)/$(WORKLOAD).log
	for i in $$(seq 1 $(N)); do \
		order="parent change"; [ $$((i % 2)) -eq 1 ] || order="change parent"; \
		for side in $$order; do \
			echo "# pair $$i $$side" >> $(PAIRS_DIR)/$(WORKLOAD).log; \
			$(PAIRS_DIR)/bench_$$side -workload $(WORKLOAD) -seed $(SEED) -out $(PAIRS_DIR)/out >> $(PAIRS_DIR)/$(WORKLOAD).log || exit 1; \
		done; \
	done
	$(GO) run ./cmd/chocobench pairs < $(PAIRS_DIR)/$(WORKLOAD).log

loc:
	@find . -name '*.go' -not -path './benchmark/*' -print0 | xargs -0 wc -l | awk '\
		$$2 == "total" { next } \
		{ dir = $$2; sub(/^\.\//, "", dir); if (!sub(/\/[^\/]*$$/, "", dir)) dir = "."; sub(/\/testdata\/.*/, "/testdata", dir); seen[dir] = 1; \
		  if ($$2 ~ /_test\.go$$/) { test[dir] += $$1; tests += $$1 } else { code[dir] += $$1; codes += $$1 } } \
		END { printf "%-28s %9s %9s\n", "directory", "non-test", "test"; \
		  for (d in seen) printf "%-28s %9d %9d\n", d, code[d], test[d] | "sort"; close("sort"); \
		  printf "%-28s %9d %9d\n", "total", codes, tests }'
