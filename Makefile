# Developer workflow for the CHOCO reproduction.
#
#   make check   — what CI runs: vet, race, debug, purego, kernels (CI
#                  adds fuzz): go vet and gofmt, the race/shuffled
#                  tests (default, chocodebug-tagged and purego-tagged
#                  builds) and the kernel-tier log (see kernels)
#   make test    — tier-1 verify (build + tests, as in ROADMAP.md)
#   make vet     — go vet, and gofmt -l, which must list no file
#   make race    — race-enabled, shuffled tests; reruns the parallel
#                  execution-layer packages (including the rlwe key-switch
#                  core, the bfv/ckks hoisted-rotation fan-outs and the
#                  CKKS users of the linear-transform executor), the
#                  transports of internal/protocol, the
#                  serving tier, the fabric routing tier and
#                  chocoserver's session-limit watcher with
#                  GOMAXPROCS=4 so the par fan-out
#                  paths, sessions running their layers side by side
#                  over one model's shared kernels,
#                  and the router's splice/health/membership
#                  concurrency are exercised even on 1-core CI; the
#                  stall tests ride along there: a peer that stops
#                  answering must hold up no one else for more than 2 s
#                  (protocol's TestPipeStalledSendHoldsNoLock,
#                  TestPipeParkedRecvHoldsNoLock and
#                  TestInterruptUnblocksSend, serve's
#                  TestStalledSessionBlocksNoOne, fabric's
#                  TestFleetStatsSilentPeerBlocksNoRouting and
#                  TestStalledReaderBlocksNoRouting), and so does the
#                  goroutine-leak check that every serve, fabric and
#                  chocoserver test starting a server, router, shard or
#                  watcher installs (internal/testkit: whatever the test
#                  started must exit within 2 s of its Close or drain);
#                  then the serving and fabric suites 50 times over
#                  (their counters must already hold every inference a
#                  client has seen the reply to — the TestFabricFleet
#                  race — every stall test must meet its bound each
#                  time, and so must the leak check, the transcript
#                  tests, which search every frame and log line of a
#                  client's session for its seed and secret key, and
#                  the write-failure tests, which fail a server's frame
#                  write on a connection that still delivers),
#                  the concurrent first use of a decomposition's
#                  hoisted lift of c0 10 times, the distance server's
#                  kept point plaintexts 10 times at GOMAXPROCS=4 (the
#                  point-major fan-out fills and reads its (2p, p²)
#                  pairs from par workers), and the layer executor's
#                  byte-identity tests 3 times at GOMAXPROCS=4 (its one
#                  pass merges per-worker giant-fold accumulators, and
#                  which worker folds which inner sum varies run to run)
#   make debug   — tests with the chocodebug assertion layer compiled in
#                  (ring, the shared rlwe core with its QP accumulator
#                  invariants, both schemes' entry-point checks, the
#                  core operators that drive them: the FC giant fold,
#                  nn, whose reply path runs the
#                  ModSwitchDown entry check on real layer outputs, and
#                  apps/distance, whose two-level collapse plan runs the
#                  executor's CKKS path, giants included, under the rlwe
#                  and ckks checks); then
#                  the two schemes and rlwe once more without -race,
#                  because the allocation-count tests skip themselves
#                  under the race detector and the assertion layer must
#                  not cost the hot paths an object
#   make purego  — tests with the vector kernels compiled out (the
#                  scalar-only build every non-amd64 target gets: no
#                  AVX2 NTT stages or MulCoeffs product, no IFMA NTT
#                  stages, inner product or multiply-accumulate); the
#                  first run without -race of ring's MulScalar timing
#                  gate and of core's allocation tests
#   make kernels — the vector-against-scalar equivalence and dispatch
#                  tests with -v, covering every vector kernel the
#                  build has: the AVX-512 IFMA kernels (the forward and
#                  inverse transform stages, per residue row whose
#                  prime is below 2^51; the gathered key-switch inner
#                  product AutomorphismNTTMulShoupAdd2, relinearization's
#                  g = 1 included, the 128-bit multiply-accumulate
#                  MulCoeffsAddWide and the Shoup product
#                  MulCoeffsShoup, at every level of every preset, on
#                  rings whose primes are all below 2^51), the AVX2 ones
#                  (the NTT stages of wider primes and MulCoeffs's
#                  dyadic product, the one AVX2 dyadic kernel), and the
#                  client's randomness: the BLAKE3 XOF squeeze at each
#                  width the host has (16-wide AVX-512 where the IFMA
#                  tier is, 8-wide AVX2), across the counter's 2^32
#                  carry, and the 4-lane AVX2 CDT Gaussian on every edge
#                  word of each σ table at lengths 0–300; and that
#                  ring.SetVectorKernels(false) turns them all off. The
#                  log names the tier the tests ran at, the squeeze
#                  widths and the NTT tiers compared per ring, or the
#                  CPU feature whose absence skipped the IFMA tests
#   make bench   — the repository's benchmark (see bench-e2e), its
#                  report recorded under the commit in
#                  BENCH_trajectory.json, then the Go benchmarks
#   make fuzz    — 30-second smoke run of the packed-row codec's fuzz
#                  target (internal/ring), of the vector NTT against the
#                  scalar one (internal/ring: rows at 55-, 51- and
#                  36-bit primes on every tier the host has), of the two
#                  IFMA dyadic kernels against their scalar loops
#                  (internal/ring: the multiply-accumulate and the
#                  gathered inner product; skipped on a host without
#                  IFMA), of the vector XOF squeeze against the scalar
#                  stream (internal/blake3: any seed, length and
#                  head) and of the vector CDT Gaussian against
#                  cdtSample (internal/sampling: any words), of the CKKS encoder against
#                  its big-integer oracle (internal/ckks: any float64
#                  bits as slot and scale, same bytes or both refuse),
#                  of the BFV decryption's RNS scaler against its
#                  big-integer oracle (internal/bfv: any seed's phase
#                  polynomial at any drop level),
#                  and of each internal/protocol
#                  one (frame parser, hello-frame round-trip, the
#                  peer-ping and stats-fetch frames of the fleet's
#                  inner boundary, the BFV and CKKS
#                  ciphertext decoders, the rounded read-reply decoder
#                  a client runs on product-packed replies and the
#                  rounded-upload decoder a server runs on product
#                  layers' uploads, the model-frame decoder it runs on the one
#                  model frame it fetches, and the key-bundle decoder;
#                  these run with minimization off (the bundles' inputs
#                  are 40 KB–0.3 MB, the others' a few KB): the engine
#                  otherwise spends the whole window shrinking one
#                  input)
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
#                  count simplicity PRs and re-anchors quote (testdata
#                  Go files count as non-test lines, one row per
#                  testdata tree)

GO ?= go
N ?= 10
SEED ?= 1
PAIRS_DIR ?= /tmp/choco-pairs

.PHONY: check build test race debug purego kernels vet bench bench-e2e fuzz pairs loc

check: vet race debug purego kernels

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

race:
	$(GO) test -race -shuffle=on ./...
	GOMAXPROCS=4 $(GO) test -race -shuffle=on ./internal/par ./internal/ring ./internal/rlwe ./internal/bfv ./internal/ckks ./internal/core ./internal/apps/distance ./internal/apps/pagerank ./internal/protocol ./internal/serve ./internal/fabric ./cmd/chocoserver
	$(GO) test -race -count=50 -timeout 60m ./internal/serve ./internal/fabric
	$(GO) test -race -count=10 -run 'TestRotateRowsLazyNTTMatchesMaterialized' ./internal/bfv
	GOMAXPROCS=4 $(GO) test -race -count=10 -run 'TestServerKeepsPointPlaintexts|TestAllVariantsMatchPlainDistances' ./internal/apps/distance
	GOMAXPROCS=4 $(GO) test -race -count=3 -run 'TestFCApplyLevelsByteIdentical|TestParallelPipelineDeterminism|TestRequestPathGolden' ./internal/core

debug:
	$(GO) test -race -shuffle=on -tags chocodebug ./internal/ring ./internal/rlwe ./internal/bfv ./internal/ckks ./internal/core ./internal/nn ./internal/apps/distance
	$(GO) test -shuffle=on -tags chocodebug ./internal/bfv ./internal/ckks ./internal/rlwe

purego:
	$(GO) build -tags purego ./...
	$(GO) test -shuffle=on -tags purego ./...

kernels:
	$(GO) test -v -count=1 -run 'TestIFMAKernelsMatchScalar|TestIFMADispatch|TestIFMAMatchesCPUInfo|TestNTTVectorScalarIdentical|TestDyadicVectorScalarIdentical|TestMulCoeffsShoupPresetsMatchScalar' ./internal/cpu ./internal/ring
	$(GO) test -v -count=1 -run 'TestSqueezeWidthsMatchScalar|TestSqueezeCounterCarry|TestCDTVectorMatchesScalar|TestCDTEdgeMagnitudes|TestSetVectorKernelsDropsClientKernels' ./internal/blake3 ./internal/sampling

fuzz:
	$(GO) test ./internal/ring -run '^$$' -fuzz '^FuzzPackedRow$$' -fuzztime 30s
	$(GO) test ./internal/ring -run '^$$' -fuzz '^FuzzNTTRowVector$$' -fuzztime 30s
	$(GO) test ./internal/ring -run '^$$' -fuzz '^FuzzMulCoeffsAddWide$$' -fuzztime 30s
	$(GO) test ./internal/ring -run '^$$' -fuzz '^FuzzAutomorphismNTTMulShoupAdd2$$' -fuzztime 30s
	$(GO) test ./internal/blake3 -run '^$$' -fuzz '^FuzzXOFFillVector$$' -fuzztime 30s
	$(GO) test ./internal/sampling -run '^$$' -fuzz '^FuzzCDTVector$$' -fuzztime 30s
	$(GO) test ./internal/ckks -run '^$$' -fuzz '^FuzzEncodeCKKS$$' -fuzztime 30s
	$(GO) test ./internal/bfv -run '^$$' -fuzz '^FuzzRNSScaleMatchesOracle$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzHelloFrame$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzPeerPing$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzStatsFetch$$' -fuzztime 30s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzUnmarshalBFV$$' -fuzztime 30s -fuzzminimizetime 0
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzUnmarshalCKKS$$' -fuzztime 30s -fuzzminimizetime 0
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzUnmarshalBFVRead$$' -fuzztime 30s -fuzzminimizetime 0
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzUnmarshalRoundedUpload$$' -fuzztime 30s -fuzzminimizetime 0
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzUnmarshalModel$$' -fuzztime 30s -fuzzminimizetime 0
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
