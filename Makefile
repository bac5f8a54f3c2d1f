# Targets mirror .github/workflows/ci.yml step for step, so a green local
# `make ci` means a green CI run and the two can't drift. (Exceptions: lint
# soft-skips when staticcheck isn't installed, and bench-gate compares
# against BENCH_core.json, whose ns/op baselines are machine-dependent —
# refresh with `make bench-baseline` on the machine you gate on.)

GO ?= go
BENCHTIME ?= 500x
TOLERANCE ?= 0.15
FUZZTIME ?= 10s
# Ratcheted coverage floor: 86.2% measured over . ./internal/... at merge
# time (see `make cover`); raise it when coverage rises, never lower it to
# make a PR pass. (The floor sits a few tenths under the measurement: the
# daemon's concurrency tests cover a few timing-dependent branches.)
COVER_MIN ?= 86.0

.PHONY: all build vet fmt lint contracts test race race-concurrent cover fuzz bench bench-smoke bench-core bench-gate bench-baseline bench-stages determinism-matrix determinism-remote scenario-conformance load-test examples docs docs-verify loc ab ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (like CI) if any file needs reformatting, and prints the list.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs staticcheck exactly as the CI build job does. Locally it
# soft-skips when the binary is missing so `make ci` stays runnable on
# fresh machines; CI always installs and runs it.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
		echo "      (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# race-concurrent runs the module's concurrent paths un-shortened under
# the race detector: concurrent sessions over adversary schedules, the
# event bus/sinks/collector written from several goroutines, the
# profiling read side (live /metrics scrapes and histogram reads against
# a running profiled session), the daemon's full-service traffic mix
# (create/step/evict/revive/follow/delete under concurrent scrapes), and
# every follow test (followers tailing a record that is still growing),
# the scenario grids, whose cells run concurrently on either transport
# (against a daemon, evicting and reviving each other), and the epochs
# staged on a helper beside the round before them (internal/mtm's
# TestConcurrentStage*, the Stepper's and the mobility schedule's
# TestConcurrentStage*).
race-concurrent:
	$(GO) test -race -count=1 -run 'Concurrent|Backends|Bus|Sink|Collector|Follow|Grid' \
		. ./internal/mtm ./internal/adversary ./internal/leader ./internal/events ./internal/profile \
		./internal/daemon ./internal/scenario ./internal/mobility ./internal/dyngraph

# cover enforces the ratcheted coverage floor (COVER_MIN, measured at merge
# time) over the library surface — the root package and internal/... (cmd/
# mains and examples/ are exercised end-to-end by the examples and
# checkpoint-determinism jobs instead; counting their 0% unit coverage here
# would punish adding scenarios).
cover:
	$(GO) test -count=1 -coverprofile=cover.out . ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	ok=$$(awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN{print (t+0 >= m+0) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "cover: total $$total% fell below the ratcheted minimum $(COVER_MIN)%"; exit 1; \
	fi

# fuzz smokes every native fuzz target for FUZZTIME each, seeded by the
# committed corpora under testdata/fuzz (go test -fuzz takes one target per
# package invocation, hence the loop spelled out).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReaderRaw -fuzztime=$(FUZZTIME) ./internal/ckpt
	$(GO) test -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/ckpt
	$(GO) test -run='^$$' -fuzz=FuzzResume -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzParseNames -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzCreateRequest -fuzztime=$(FUZZTIME) ./internal/daemon
	$(GO) test -run='^$$' -fuzz=FuzzScenarioSpec -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzEventsQuery -fuzztime=$(FUZZTIME) ./internal/daemon
	$(GO) test -run='^$$' -fuzz=FuzzResumeQuery -fuzztime=$(FUZZTIME) ./internal/daemon
	$(GO) test -run='^$$' -fuzz=FuzzRunRequest -fuzztime=$(FUZZTIME) ./internal/daemon
	$(GO) test -run='^$$' -fuzz=FuzzRebindRequest -fuzztime=$(FUZZTIME) ./internal/daemon
	$(GO) test -run='^$$' -fuzz=FuzzIntnMember -fuzztime=$(FUZZTIME) ./internal/prand
	$(GO) test -run='^$$' -fuzz=FuzzScanMatchesAllPairs -fuzztime=$(FUZZTIME) ./internal/mobility
	$(GO) test -run='^$$' -fuzz=FuzzConnectAndDiff -fuzztime=$(FUZZTIME) ./internal/graph

# bench is the CI smoke configuration: compile and run every benchmark
# exactly once so regressions in the hot gossip loops surface per-PR
# without benchmark-grade runtimes.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-smoke runs the benchmark harness's own tests (bench/ is its own
# module, so `go test ./...` from the root does not reach it): TestSmoke
# drives all five BENCHMARK.json workloads at smoke scale — gossipsim run
# against bench/golden/*.table.txt, and the client/gossipd round trip —
# in a few seconds.
bench-smoke:
	cd bench && $(GO) test ./...

# bench-core runs the fixed-round suites the regression gate consumes
# (fixed BENCHTIME so baseline and fresh runs execute the same round
# distribution): the EngineRound simulation core plus the DynamicRound and
# AdversaryRound delta-vs-rebuild suites at n=10k (the n=100k rows exist
# for manual runs — `go test -bench=BenchmarkDynamicRound` — but are too
# slow to gate per-PR), and RandomRegular at the two shapes the τ ≥ 1
# regular schedules redraw every epoch.
BENCH_PATTERN := 'BenchmarkEngineRound|Benchmark(Dynamic|Adversary)Round/.*_n10000_|BenchmarkRandomRegular'
bench-core:
	$(GO) test -bench=$(BENCH_PATTERN) -benchmem -benchtime=$(BENCHTIME) -run='^$$' . | tee bench-core.txt

# bench-gate compares a fresh bench-core run against the committed
# BENCH_core.json baseline (±15% ns/op and allocs/op; a 0-alloc baseline
# admits no allocations) and records the fresh numbers for inspection.
# The -ratio pin holds the profiled session row to ≤1.25× the unprofiled
# one within the same fresh run — a machine-independent bound on the
# profiling-overhead contract (DESIGN.md §13: measured overhead is within
# noise of zero). The pin is deliberately looser than the measured ≤5%:
# per-row noise on shared CI runners is ±20%, so a tight pin would flake;
# 1.25× still fails on any structural regression (an allocation or
# per-agent work sneaking into the profiled path).
bench-gate: bench-core
	$(GO) run ./cmd/benchgate -input bench-core.txt -baseline BENCH_core.json \
		-out BENCH_core.fresh.json -benchtime $(BENCHTIME) -tolerance $(TOLERANCE) \
		-ratio 'EngineRound/sess_prof_n2048_k1024,EngineRound/sess_n2048_k1024,1.25'

# bench-baseline rewrites BENCH_core.json from a fresh run; commit the
# result after intentional performance changes.
bench-baseline: bench-core
	$(GO) run ./cmd/benchgate -input bench-core.txt -out BENCH_core.json -benchtime $(BENCHTIME)

# bench-stages prints the numbers behind DESIGN.md §8 "Where an epoch's
# time goes" and §10/§14's rebind cost in one command: both packages'
# BenchmarkChurnStages (per-stage ms of a motion epoch and of an adversary
# epoch stacked on it) and BenchmarkRebindJump (ms for a fresh schedule's
# first query at round 31 and 1,001), all at the mobile-churn shape
# (n = 50,000), five runs each, reduced to per-stage medians. The raw output
# goes to bench-stages.txt first, so a benchmark that fails to build or
# panics fails the target instead of yielding medians over part of a run.
# The suffix of each row's name is the GOMAXPROCS it ran at; quote it, and
# nproc, beside any number taken from here.
bench-stages:
	$(GO) test -run='^$$' -bench='^BenchmarkChurnStages$$' -benchtime=30x -count=5 ./internal/mobility ./internal/adversary > bench-stages.txt
	$(GO) test -run='^$$' -bench='^BenchmarkRebindJump$$' -benchtime=3x -count=5 ./internal/adversary >> bench-stages.txt
	@awk -f scripts/quantile.awk -f scripts/medians.awk bench-stages.txt

# determinism-matrix checks the engine's bit-reproducibility invariant
# across GOMAXPROCS ∈ {1,2,4,8}. At every setting:
#   - the E1 (core sweeps), E22 (mobility schedules — motion, delta
#     patching and churn measurement) and E25 (adversarial schedules,
#     adaptive state reads included) tables must be byte-identical to the
#     first setting's tables (all three are internal/runner grids
#     whose pool size varies with GOMAXPROCS, so pool scheduling is
#     exercised; every quick-size table is also pinned by
#     internal/harness/testdata/quick.csv, re-recorded only with
#     `go test ./internal/harness -run TestAllExperimentsRunQuick -update`);
#   - a session checkpointed mid-run and resumed under a different
#     GOMAXPROCS (8/g) must reproduce the uninterrupted run byte-for-byte;
#   - the same run with -profile attached must print a byte-identical
#     result table (the "profile:" timing lines — the only output that
#     legitimately varies — are stripped): profiling never affects
#     simulation output (DESIGN.md §13);
#   - a static n = 4096 run whose rounds form more connections than the
#     engine's fan-out minimum (TestDeterminismMatrixCellFansOut in
#     internal/mtm asserts that they do), so its exchanges run on
#     GOMAXPROCS goroutines, must write byte-identical tables and event
#     streams and resume its round-20 checkpoint byte-identically under
#     the swapped GOMAXPROCS;
#   - a CrowdedBin run checkpointed mid-bin (round 75, while spelled tags
#     wait in the stash for the bin's end) must write byte-identical
#     checkpoint files and resume byte-identically under the swapped
#     GOMAXPROCS: a checkpoint is a function of the state, not of map
#     iteration order;
#   - the same CrowdedBin run checkpointed at round 1,293, a quiet round
#     (mtm.Protocol's Quiet: the engine skips its tag and decide passes)
#     right after round 1,292 ran in full to consume the deferred merges
#     of instance 1's first bin, must write byte-identical checkpoint files
#     and resume byte-identically under the swapped GOMAXPROCS: the resumed
#     run's quiet rounds are decided by the counters RestoreFrom recounts;
#   - a regenerated-topology run (regular, d = 6, τ = 2, n = 512) whose
#     every epoch spends all 50 pairing attempts and falls back to the
#     circulant, checkpointed mid-epoch (round 35), must write
#     byte-identical tables and checkpoint files and resume
#     byte-identically under the swapped GOMAXPROCS;
#   - a waypoint run under a bipartition adversary at n = 8192, whose
#     rounds start the engine's helpers (TestDeterminismMatrixCellStages
#     in internal/mtm asserts that its epochs stage), so from GOMAXPROCS 2 on
#     every epoch is produced on a helper beside the round before it, must
#     write byte-identical tables, event streams and round-20 checkpoints
#     (taken with the next epoch staged) to the inline GOMAXPROCS 1 run's
#     and resume byte-identically under the swapped GOMAXPROCS.
determinism-matrix:
	$(GO) build -o dmx_benchtable ./cmd/benchtable
	$(GO) build -o dmx_gossipsim ./cmd/gossipsim
	@set -e; ref=""; \
	for gmp in 1 2 4 8; do \
		echo "== GOMAXPROCS=$$gmp"; \
		GOMAXPROCS=$$gmp ./dmx_benchtable -exp e1,e22,e25 -csv > dmx_cell.csv; \
		GOMAXPROCS=$$gmp ./dmx_gossipsim -alg sharedbit -graph waypoint -n 2000 -k 8 -tau 1 -seed 5 \
			-checkpoint dmx.ckpt -checkpointat 40 \
			| grep -v 'wall time\|checkpoint written' > dmx_full.txt; \
		GOMAXPROCS=$$((8/$$gmp)) ./dmx_gossipsim -resume dmx.ckpt \
			| grep -v 'wall time\|resumed from' > dmx_resumed.txt; \
		cmp dmx_full.txt dmx_resumed.txt; \
		GOMAXPROCS=$$gmp ./dmx_gossipsim -alg sharedbit -graph waypoint -n 2000 -k 8 -tau 1 -seed 5 \
			-profile \
			| grep -v 'wall time\|^profile' > dmx_prof.txt; \
		cmp dmx_full.txt dmx_prof.txt; \
		GOMAXPROCS=$$gmp ./dmx_gossipsim -alg sharedbit -graph regular -n 4096 -k 64 -seed 5 -maxrounds 40 \
			-events dmx_fan.jsonl -checkpoint dmx_fan.ckpt -checkpointat 20 \
			| grep -v 'wall time\|checkpoint written' > dmx_fan.txt; \
		GOMAXPROCS=$$((8/$$gmp)) ./dmx_gossipsim -resume dmx_fan.ckpt \
			| grep -v 'wall time\|resumed from' > dmx_fan_resumed.txt; \
		cmp dmx_fan.txt dmx_fan_resumed.txt; \
		GOMAXPROCS=$$gmp ./dmx_gossipsim -alg crowdedbin -graph regular -n 64 -k 16 \
			-checkpoint dmx_cb.ckpt -checkpointat 75 \
			| grep -v 'wall time\|checkpoint written' > dmx_cb.txt; \
		GOMAXPROCS=$$((8/$$gmp)) ./dmx_gossipsim -resume dmx_cb.ckpt \
			| grep -v 'wall time\|resumed from' > dmx_cb_resumed.txt; \
		cmp dmx_cb.txt dmx_cb_resumed.txt; \
		GOMAXPROCS=$$gmp ./dmx_gossipsim -alg crowdedbin -graph regular -n 64 -k 16 \
			-checkpoint dmx_cbq.ckpt -checkpointat 1293 \
			| grep -v 'wall time\|checkpoint written' > dmx_cbq.txt; \
		GOMAXPROCS=$$((8/$$gmp)) ./dmx_gossipsim -resume dmx_cbq.ckpt \
			| grep -v 'wall time\|resumed from' > dmx_cbq_resumed.txt; \
		cmp dmx_cbq.txt dmx_cbq_resumed.txt; \
		GOMAXPROCS=$$gmp ./dmx_gossipsim -alg sharedbit -graph regular -degree 6 -tau 2 -n 512 -k 16 -seed 5 \
			-checkpoint dmx_rr.ckpt -checkpointat 35 \
			| grep -v 'wall time\|checkpoint written' > dmx_rr.txt; \
		GOMAXPROCS=$$((8/$$gmp)) ./dmx_gossipsim -resume dmx_rr.ckpt \
			| grep -v 'wall time\|resumed from' > dmx_rr_resumed.txt; \
		cmp dmx_rr.txt dmx_rr_resumed.txt; \
		GOMAXPROCS=$$gmp ./dmx_gossipsim -alg sharedbit -graph waypoint -adversary bipartition -advbudget 2000 \
			-n 8192 -k 8 -tau 1 -seed 5 -maxrounds 40 \
			-events dmx_stg.jsonl -checkpoint dmx_stg.ckpt -checkpointat 20 \
			| grep -v 'wall time\|checkpoint written' > dmx_stg.txt; \
		GOMAXPROCS=$$((8/$$gmp)) ./dmx_gossipsim -resume dmx_stg.ckpt \
			| grep -v 'wall time\|resumed from' > dmx_stg_resumed.txt; \
		cmp dmx_stg.txt dmx_stg_resumed.txt; \
		if [ -z "$$ref" ]; then \
			ref="gmp$$gmp"; cp dmx_cell.csv dmx_ref.csv; cp dmx_full.txt dmx_ref_full.txt; \
			cp dmx_fan.txt dmx_ref_fan.txt; cp dmx_fan.jsonl dmx_ref_fan.jsonl; \
			cp dmx_cb.txt dmx_ref_cb.txt; cp dmx_cb.ckpt dmx_ref_cb.ckpt; \
			cp dmx_cbq.txt dmx_ref_cbq.txt; cp dmx_cbq.ckpt dmx_ref_cbq.ckpt; \
			cp dmx_rr.txt dmx_ref_rr.txt; cp dmx_rr.ckpt dmx_ref_rr.ckpt; \
			cp dmx_stg.txt dmx_ref_stg.txt; cp dmx_stg.jsonl dmx_ref_stg.jsonl; cp dmx_stg.ckpt dmx_ref_stg.ckpt; \
		else \
			cmp dmx_ref.csv dmx_cell.csv; cmp dmx_ref_full.txt dmx_full.txt; \
			cmp dmx_ref_fan.txt dmx_fan.txt; cmp dmx_ref_fan.jsonl dmx_fan.jsonl; \
			cmp dmx_ref_cb.txt dmx_cb.txt; cmp dmx_ref_cb.ckpt dmx_cb.ckpt; \
			cmp dmx_ref_cbq.txt dmx_cbq.txt; cmp dmx_ref_cbq.ckpt dmx_cbq.ckpt; \
			cmp dmx_ref_rr.txt dmx_rr.txt; cmp dmx_ref_rr.ckpt dmx_rr.ckpt; \
			cmp dmx_ref_stg.txt dmx_stg.txt; cmp dmx_ref_stg.jsonl dmx_stg.jsonl; cmp dmx_ref_stg.ckpt dmx_stg.ckpt; \
		fi; \
	done; \
	rm -f dmx_benchtable dmx_gossipsim dmx.ckpt dmx_cell.csv dmx_ref.csv dmx_full.txt dmx_resumed.txt dmx_ref_full.txt dmx_prof.txt \
		dmx_fan.jsonl dmx_fan.ckpt dmx_fan.txt dmx_fan_resumed.txt dmx_ref_fan.txt dmx_ref_fan.jsonl \
		dmx_cb.ckpt dmx_cb.txt dmx_cb_resumed.txt dmx_ref_cb.txt dmx_ref_cb.ckpt \
		dmx_cbq.ckpt dmx_cbq.txt dmx_cbq_resumed.txt dmx_ref_cbq.txt dmx_ref_cbq.ckpt \
		dmx_rr.ckpt dmx_rr.txt dmx_rr_resumed.txt dmx_ref_rr.txt dmx_ref_rr.ckpt \
		dmx_stg.jsonl dmx_stg.ckpt dmx_stg.txt dmx_stg_resumed.txt dmx_ref_stg.txt dmx_ref_stg.jsonl dmx_ref_stg.ckpt; \
	echo "determinism-matrix: E1/E22/E25 tables, mid-run checkpoints, profiled runs, a fanned-out exchange, a mid-bin and a quiet-round CrowdedBin checkpoint, a regenerated-topology checkpoint and a staged-epoch run byte-identical across GOMAXPROCS 1, 2, 4, 8"

# determinism-remote is the matrix's service-boundary cell: the same
# simulation driven locally and through a live gossipd (gossipsim
# -remote) must print byte-identical result tables, write byte-identical
# event streams and mid-run checkpoints, and resume identically from an
# uploaded checkpoint — all while the daemon's idle timeout (300ms,
# against a 600ms -remotepause stall) forcibly evicts and revives the
# session mid-run, so the checkpoint round trip is exercised for real
# (the metrics grep fails the target if no eviction happened). A last
# cell resumes a checkpoint taken when its run finished: nothing is left
# to step, and both sides must still write the same stream (its
# session_end). Only wall-clock lines ("wall time", checkpoint/resume
# paths) are filtered. Last, /metrics must count exactly the
# session_start, checkpoint_resumed, checkpoint_written and session_end
# lines of the three recorded streams: evictions and revivals show in
# gossipd_* only.
determinism-remote:
	$(GO) build -o drm_gossipd ./cmd/gossipd
	$(GO) build -o drm_gossipsim ./cmd/gossipsim
	@set -e; rm -rf drm_state drm_addr drm_daemon.log; \
	./drm_gossipd -addr 127.0.0.1:0 -statedir drm_state -idletimeout 300ms -addrfile drm_addr 2> drm_daemon.log & \
	dpid=$$!; trap 'kill $$dpid 2>/dev/null' EXIT; \
	i=0; while [ ! -s drm_addr ]; do \
		i=$$((i+1)); \
		if [ $$i -gt 100 ]; then echo "gossipd never wrote drm_addr"; cat drm_daemon.log; exit 1; fi; \
		sleep 0.1; \
	done; \
	addr=$$(cat drm_addr); echo "== gossipd at $$addr"; \
	./drm_gossipsim -alg sharedbit -graph waypoint -n 500 -k 8 -tau 1 -seed 7 \
		-events drm_local.jsonl -checkpoint drm_local.ckpt -checkpointat 5 \
		| grep -v 'wall time\|checkpoint written' > drm_local.txt; \
	./drm_gossipsim -remote $$addr -remotepause 600ms \
		-alg sharedbit -graph waypoint -n 500 -k 8 -tau 1 -seed 7 \
		-events drm_remote.jsonl -checkpoint drm_remote.ckpt -checkpointat 5 \
		| grep -v 'wall time\|checkpoint written' > drm_remote.txt; \
	cmp drm_local.txt drm_remote.txt; \
	cmp drm_local.jsonl drm_remote.jsonl; \
	cmp drm_local.ckpt drm_remote.ckpt; \
	./drm_gossipsim -resume drm_local.ckpt -events drm_lr.jsonl \
		| grep -v 'wall time\|resumed from' > drm_lr.txt; \
	./drm_gossipsim -remote $$addr -remotepause 600ms -resume drm_remote.ckpt -events drm_rr.jsonl \
		| grep -v 'wall time\|resumed from' > drm_rr.txt; \
	cmp drm_lr.txt drm_rr.txt; \
	cmp drm_lr.jsonl drm_rr.jsonl; \
	./drm_gossipsim -alg sharedbit -graph regular -n 64 -k 8 -seed 3 -maxrounds 6 \
		-checkpoint drm_fin.ckpt -checkpointat 0 > /dev/null 2>&1; \
	./drm_gossipsim -resume drm_fin.ckpt -events drm_fl.jsonl \
		| grep -v 'wall time\|resumed from' > drm_fl.txt; \
	./drm_gossipsim -remote $$addr -resume drm_fin.ckpt -events drm_fr.jsonl \
		| grep -v 'wall time\|resumed from' > drm_fr.txt; \
	cmp drm_fl.txt drm_fr.txt; \
	cmp drm_fl.jsonl drm_fr.jsonl; \
	curl -sf "http://$$addr/metrics" > drm_metrics.txt; \
	grep -q '^gossipd_evictions_total [1-9]' drm_metrics.txt \
		|| { echo "determinism-remote: daemon never evicted — the revival path went untested"; exit 1; }; \
	for pair in session_start:sessions_started checkpoint_resumed:sessions_resumed \
			checkpoint_written:checkpoints_written session_end:sessions_ended; do \
		ev=$${pair%%:*}; counter=mobilegossip_$${pair#*:}_total; \
		lines=$$(cat drm_remote.jsonl drm_rr.jsonl drm_fr.jsonl | grep -c "\"type\":\"$$ev\"" || true); \
		count=$$(sed -n "s/^$$counter //p" drm_metrics.txt); \
		[ "$$count" = "$$lines" ] || { echo "determinism-remote: $$counter reads $$count, the recorded streams hold $$lines $$ev lines"; exit 1; }; \
	done; \
	rm -rf drm_gossipd drm_gossipsim drm_state drm_addr drm_daemon.log drm_metrics.txt \
		drm_local.txt drm_remote.txt drm_local.jsonl drm_remote.jsonl drm_local.ckpt drm_remote.ckpt \
		drm_lr.txt drm_rr.txt drm_lr.jsonl drm_rr.jsonl \
		drm_fin.ckpt drm_fl.txt drm_fr.txt drm_fl.jsonl drm_fr.jsonl; \
	echo "determinism-remote: result tables, event streams and checkpoints byte-identical local vs -remote, across a forced mid-run evict/revive and from a finished run's checkpoint; /metrics counts the recorded streams' starts, resumes, checkpoints and ends"

# scenario-conformance runs the golden-trace suite over the committed
# scenarios/ library: every scenario's tables, event streams and phase
# checkpoints are byte-compared against scenarios/golden/ locally and
# against a live gossipd, plus a mid-phase checkpoint/resume
# cell and a forced daemon evict/revive cell (TestConformanceEvictRevive
# fails if the eviction never happened). Regenerate after an intentional
# output change with `go test -run TestGoldenConformance ./internal/scenario
# -update` and commit the new goldens.
scenario-conformance:
	$(GO) test -count=1 -timeout 10m -v \
		-run '^(TestGoldenConformance|TestConformanceEvictRevive)$$' \
		./internal/scenario

# load-test launches a real gossipd and drives a few hundred concurrent
# sessions through the client bindings (create → partial run → evict
# under a 40ms idle timeout and a 32-session cap → revive → finish),
# asserting zero lost or corrupted sessions and a throughput floor; see
# TestDaemonLoad for the full contract.
load-test:
	$(GO) build -o lt_gossipd ./cmd/gossipd
	MOBILEGOSSIP_LOADTEST=1 GOSSIPD_BIN=$(CURDIR)/lt_gossipd \
		$(GO) test -count=1 -run '^TestDaemonLoad$$' -v -timeout 10m ./internal/daemon
	rm -f lt_gossipd

# docs regenerates docs/cli.md from the CLIs' live -h output; docs-verify
# (run by the CI build job) fails when the committed reference has drifted
# from the flag definitions — add a flag, run `make docs`, commit both.
docs:
	$(GO) run ./cmd/clidoc -out docs/cli.md

docs-verify:
	$(GO) run ./cmd/clidoc -check docs/cli.md

# contracts runs TestRepoContracts (internal/contracts, DESIGN.md "Contracts
# the repo checks"): every function has a product caller, no map order or
# stray wall-clock read in a simulation package, the public API equals
# api/*.txt, every knob is exercised. It skips under -short, so this target
# and the full test job run it; after an intended API change,
# `go test ./internal/contracts -run TestRepoContracts -update` rewrites api/*.txt.
contracts:
	$(GO) test -count=1 -run '^TestRepoContracts$$' ./internal/contracts

# loc prints the figure the simplicity PRs cite: non-test Go lines outside
# bench/ (which is the frozen benchmark harness, its own module) and
# .bench_build/ (where `make ab` exports whole trees of other commits). A
# "net negative" claim is this number before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# ab measures a performance claim the only way ROADMAP's standing
# constraints accept: BASE (a commit, exported with git archive into
# .bench_build/ab/<sha>) against the working tree, PAIRS alternating pairs
# of `bash bench/run.sh --workload W --seconds 10 --trace 0`, swapping
# which side goes first. Runs accumulate in .bench_build/ab/runs-W.tsv;
# the summary prints each side's median and quartiles, the pairs the
# change won, and whether that amounts to a claimable gain
# (choosing-metrics §8). SELF=1 runs the working tree on both sides
# instead — the box's noise floor; it must end in "self: no difference".
PAIRS ?= 10
BASE ?= HEAD
ab:
	@test -n "$(W)" || { echo "usage: make ab W=<workload> [PAIRS=10] [BASE=HEAD] [SELF=1]"; exit 2; }
	bash scripts/ab.sh $(if $(SELF),--self) $(W) $(PAIRS) $(BASE)

# examples runs every examples/ program in -short mode, exactly as the CI
# build job does, so example drift breaks the build instead of rotting.
examples:
	@set -e; for ex in examples/*/; do \
		echo "== $$ex"; \
		$(GO) run "./$$ex" -short > /dev/null; \
	done
	@echo "examples: all scenarios ran clean in -short mode"

ci: build vet fmt lint docs-verify contracts examples race race-concurrent test cover bench bench-smoke determinism-matrix determinism-remote scenario-conformance load-test bench-gate
	$(MAKE) fuzz FUZZTIME=5s
