# Development targets for the lasmq reproduction.

GO ?= go

.PHONY: all check lint layering build vet test test-race race race-stress bench bench-smoke probe-gate alloc-gate crosscheck reproduce replicate examples clean

all: build vet test

# Full pre-merge gate: map-range lint, import-layering gate, build, vet,
# tests, race detector, twenty race-enabled passes over the telemetry sinks
# and the live cluster (race-stress), one race-enabled iteration of the engine benchmarks
# (bench-smoke, so the benchmark tier itself cannot rot or race silently),
# the telemetry zero-overhead assertion (probe-gate), the streamed paths'
# marginal-allocation assertion (alloc-gate), and the analytic M/M/1
# cross-check (crosscheck).
check: lint layering build vet test test-race race-stress bench-smoke probe-gate alloc-gate crosscheck

# The four substrates that drive a policy through internal/substrate.
SUBSTRATES = internal/engine internal/fluid internal/yarn internal/geo

# Policy/kernel packages whose float-bearing maps the lint watches.
LINT_PKGS = internal/sched internal/core internal/mlq internal/substrate internal/engine internal/fluid internal/trace internal/yarn

# Guard against the nondeterminism class PR 2 had to fix by hand: iterating
# an unordered map (allocations, demands, rate bounds, attained-service
# tables) while accumulating floats or mutating policy state makes results
# depend on map iteration order. Any `range` over those maps in non-test
# code must carry a same-line `// range-ok: <why order cannot matter>`
# annotation (e.g. keys are sorted before use, or the body does independent
# per-key writes).
lint:
	@bad=$$(grep -rnE 'range +[A-Za-z_.]*(alloc|demand|rates|attained|counts|sums)\b' \
		--include='*.go' $(LINT_PKGS) | grep -v '_test\.go' | grep -v 'range-ok:'; true); \
	if [ -n "$$bad" ]; then \
		echo "lint: unordered map range over float-bearing maps" \
			"(annotate '// range-ok: <reason>' if order cannot matter):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint: ok"

# Layering gate: the canonical streaming Source/JobSpec live in
# internal/substrate, and internal/trace aliases them from there. The trace
# substrate must never import a simulator — that inversion (trace -> fluid)
# is exactly what the substrate hoist removed, so keep it out for good. The
# other greps keep deleted second paths deleted: the simulators' materialised
# arrival cursor and the engine's materialised job layout (arena.build, its
# attempt-room split), the engine's heap→ladder event-queue hybrid, and the map side of
# the round contract — no substrate indexes an `alloc[` map, nothing outside
# the policies (internal/sched, internal/core) and benchmark/ names a
# sched.Assignment, calls a map-form Assign/AssignInto or quantizes from maps
# (api.go's public alias excepted), substrate.Driver names no map-form
# interface (it drives every policy through sched.DenseForms), and no policy
# ported onto the dense contract keeps a map (SRPT, Gittins, Blend, Adaptive,
# LAS_MQ: their map forms are sched.MapForms, and LAS_MQ's oracle is
# schedtest.LiteralLASMQ). The next grep fences the adapters that
# survive only because benchmark/replay.go times them (ViewSet's demand map,
# Quantizer.QuantizeInto), as eventq.Ladder is fenced. The next four keep a
# fluid round paying for what it serves: LAS_MQ has one sweep, in dense.go,
# driven by the change log, and lasmq.go defines none; the fluid simulator never
# re-registers its views (no ViewSet.Begin, one AddSlot, at admission: it
# edits one registration, cutting completed jobs out); it finds the jobs a
# round serves in the sparse answer's served list, never by ranging over the
# share column; and LAS_MQ's HorizonDense walks that list, not the views.
# The next fence keeps FIFO's slotted round a walk of its queue from the head:
# fifo.go builds, sorts and fills no per-view entries, and calls orderFill
# once, in the slotless branch (`if slots == nil`) the map forms take.
# The last keeps the telemetry sinks on one vocabulary: every sink records
# packed obs.Events through one Record switch, so outside tests only obs.go
# (the emitter that packs Probe calls, and Nop) defines Probe methods in
# internal/obs and internal/core — no sink re-implements the Probe method
# set, and no policy wrapper exists to watch probe events.
layering:
	@bad=$$(grep -rn '"lasmq/internal/fluid"' internal/trace --include='*.go'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: internal/trace must not import internal/fluid" \
			"(alias streaming types from internal/substrate instead):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'SliceCursor' internal/fluid internal/engine internal/substrate; \
		grep -rnE 'materializedAttemptRoom|func \(a \*arena\) build\(' --include='*.go' internal/engine \
		| grep -v '_test\.go:'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: each simulator has one arrival path, the StreamCursor, and the engine" \
			"one job layout, built at admission (fluid.Run and engine.Run are collectors):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'eventq\.Ladder' --include='*.go' . | grep -v '_test\.go:' \
		| grep -v -e '^\./internal/eventq/' -e '^\./benchmark/'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: the simulators queue events on eventq.Queue only;" \
			"eventq.Ladder is kept for benchmark/replay.go alone:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'alloc\[' --include='*.go' $(SUBSTRATES) | grep -v '_test\.go:'; \
		grep -rnE 'sched\.Assignment|\.Assign(Into)?\(|Quantize(Into)?\(' --include='*.go' . \
		| grep -v '_test\.go:' | grep -v -e '^\./internal/sched/' -e '^\./internal/core/' \
		-e '^\./benchmark/' -e '^\./api\.go:.*= sched\.Assignment$$'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: only the policies and benchmark/ touch the map side of the round" \
			"contract (use Driver.Shares, ViewSet.AddSlot/AddRate, Quantizer.QuantizeRows):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE 'sched\.(Assignment|BufferedAssigner|Hinter|Observer|ObserveHinter)\b' \
		internal/substrate/substrate.go; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: substrate.Driver drives policies through sched.DenseForms and" \
			"names no map-form interface:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -n 'map\[int\]' internal/sched/srpt.go internal/sched/gittins.go \
		internal/sched/blend.go internal/core/adaptive.go \
		internal/core/lasmq.go internal/core/dense.go; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: the policies ported onto the dense contract keep per-job state by" \
			"slot, never in a map keyed by job ID (their map forms are sched.MapForms):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '\.SetDemand\(|\.Demand\(\)|QuantizeInto\(' --include='*.go' . | grep -v '_test\.go:' \
		| grep -v -e '^\./internal/substrate/' -e '^\./internal/sched/' -e '^\./benchmark/'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: ViewSet's demand map and Quantizer.QuantizeInto are kept for" \
			"benchmark/replay.go alone; build sched.QuantRow rows instead:"; \
		echo "$$bad"; exit 1; \
	fi
	@n=$$(grep -c 'func (s \*LASMQ) sweep' internal/core/dense.go); \
	m=$$(grep -c 'sweep(' internal/core/lasmq.go); \
	if [ "$$n" != 1 ] || [ "$$m" != 0 ]; then \
		echo "layering: LAS_MQ has one sweep, in internal/core/dense.go, driven by the" \
			"change log; found $$n there and $$m sweep( in lasmq.go"; exit 1; \
	fi
	@n=$$(grep -c '\.Begin(' internal/fluid/fluid.go); \
	adds=$$(grep -c 'AddSlot(' internal/fluid/fluid.go); \
	if [ "$$n" != 0 ] || [ "$$adds" != 1 ]; then \
		echo "layering: the fluid simulator edits one registration — AddSlot at admission," \
			"ViewSet.Cut at completion — and never rebuilds it (found $$n Begin calls," \
			"$$adds AddSlot calls; want 0 and 1)"; exit 1; \
	fi
	@bad=$$(grep -nE 'range +shares\b' internal/fluid/fluid.go; \
		awk '/^func \(s \*LASMQ\) HorizonDense\(/,/^}/' internal/core/dense.go | grep -n 'range jobs'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: a fluid round reads the sparse answer's served list: fluid.go ranges" \
			"over no share column, and LAS_MQ's HorizonDense walks no view list:"; \
		echo "$$bad"; exit 1; \
	fi
	@n=$$(grep -c 'orderFill(' internal/sched/fifo.go); \
	guarded=$$(grep -B1 'orderFill(' internal/sched/fifo.go | grep -c 'if slots == nil {'); \
	bad=$$(grep -nE '(buildEntries|carriedEntries|sortEntries|firstEntries|fillInOrder)\(|viewEntry\{' \
		internal/sched/fifo.go; true); \
	if [ "$$n" != 1 ] || [ "$$guarded" != 1 ] || [ -n "$$bad" ]; then \
		echo "layering: FIFO's slotted round walks its queue and builds no per-view entries:" \
			"one orderFill call, in the slotless branch (found $$n, $$guarded of them under" \
			"'if slots == nil {')"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE '^func \([^)]*\) (JobSubmitted|JobAdmitted|JobStarted|StageDone|JobDone|TaskStart|TaskDone|TaskFail|QueueEnter|QueueDemote|QueueExit|ThresholdRefit|RoundExecuted|RoundSkipped|ArenaReuse|SlabStats)\(' \
		internal/obs/*.go internal/core/*.go | grep -v -e '_test\.go:' -e '^internal/obs/obs\.go:'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: sinks record obs.Events through one Record switch; only" \
			"internal/obs/obs.go (emitter, Nop) defines Probe methods:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "layering: ok"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# `go vet` gates the default test flow so vet regressions fail fast.
test: vet
	$(GO) test ./...

# Race-detector CI gate: the mini-YARN cluster (internal/yarn) and the
# replication engine's worker pool (internal/runner) are the concurrency
# hot spots — run this before merging anything that touches either. It also
# runs the incremental-vs-full differential tests (TestIncrementalMatchesFull
# and the registry-level counterpart) under the race detector, covering the
# engine's scratch-buffer reuse.
test-race:
	$(GO) test -race ./...

race: test-race

# Twenty race-enabled passes over the telemetry sinks (the flight-recorder
# ring's seqlock under a concurrent drain, the mutex-guarded aggregates) and
# the live mini-YARN cluster, whose resource manager emits probe events while
# other goroutines read them: a data race that one pass misses by timing
# shows up in twenty.
race-stress:
	$(GO) test -race -count=20 ./internal/obs ./internal/yarn

# One bench iteration per figure/table; see EXPERIMENTS.md for paper-scale runs.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# One race-enabled iteration of every benchmark in the repo, with the scale
# tiers shrunk via LASMQ_SCALE_JOBS / LASMQ_SCALE_SHARDS so the race
# detector's ~10x slowdown stays tolerable. Part of `make check`: it
# smoke-tests the benchmark code paths themselves (the concurrent heap
# sampler and the K=4 sharded work-stealing pools of the fluid and engine
# tiers — LASMQ_SCALE_WORKERS=4 forces a real worker pool even on a
# single-core runner, where the GOMAXPROCS default would silently serialize
# and give the race detector nothing to watch) so they cannot rot
# unnoticed. Whether a change made anything faster or slower is answered
# by benchmark/ (see benchmark/README.md), never by these benches.
bench-smoke:
	LASMQ_SCALE_JOBS=6000 LASMQ_SCALE_SHARDS=4 LASMQ_SCALE_WORKERS=4 \
		$(GO) test -race -run '^$$' -bench . -benchtime=1x ./...

# Telemetry must be free when off, and cheap when on: a scheduling round
# with a nil probe may not allocate (testing.AllocsPerRun == 0), and neither
# may recording one flight-recorder ring event or one histogram observation.
# The same holds for the dense round contract: a steady LAS_MQ round over
# 1,000 slotted views, a LAS_MQ and a FIFO round driven over 1,000 views
# registered and logged as the fluid simulator does, and an engine round and
# observation round driven through the dense forms, allocate nothing
# (TestDenseRoundZeroAlloc).
# Run -count=1 so a cached pass cannot mask a regression introduced by an
# unrelated package.
probe-gate:
	$(GO) test -run '^(TestScheduleRoundNilProbeZeroAlloc|TestDenseRoundZeroAlloc)$$' -count=1 ./internal/engine
	$(GO) test -run '^TestDenseRoundZeroAlloc$$' -count=1 ./internal/core
	$(GO) test -run '^TestZeroAlloc' -count=1 ./internal/obs

# Streamed runs allocate per run, never per job: fluid.RunStream,
# engine.RunStream and engine.RunSharded (K = 4, chaos on) over the Facebook
# source at N and 2N jobs may differ by at most 0.02 (fluid) / 0.25 (engine)
# heap objects per extra job. And the engine's task state is bounded by
# admission, not the backlog: N jobs queued behind a cap of k hold at most k
# records in engine.Run and engine.RunStream, at N = 50 and 500
# (TestRecordsBoundedByAdmission). -count=1 for the same reason as probe-gate.
alloc-gate:
	$(GO) test -run '^(TestStreamMarginalAllocs|TestRecordsBoundedByAdmission)$$' -count=1 ./internal/fluid ./internal/engine

# Analytic M/M/1 cross-check: drive the fluid and engine substrates with
# M/M/1 workloads at rho in {0.5, 0.7, 0.9} and assert FIFO/PS/SRPT/LAS
# means converge to the closed forms in internal/analytic (-count=1 so a
# cached pass cannot mask drift introduced by a substrate change). Scale up
# with LASMQ_CROSSCHECK_JOBS / LASMQ_CROSSCHECK_SEEDS for a sharper run.
crosscheck:
	$(GO) test -run '^TestCrossCheck' -count=1 ./internal/analytic

# Regenerate every table and figure at paper scale (writes full_results.txt).
reproduce:
	$(GO) run ./cmd/lasmq-bench -repeats 3 -seed 1 | tee full_results.txt

# Parallel multi-seed reproduction with 95% CIs; resumable via the cache dir.
replicate:
	$(GO) run ./cmd/lasmq-bench -seeds 8 -workers 8 -cache .lasmq-cache

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/adhoc
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/tuning
	$(GO) run ./examples/miniyarn
	$(GO) run ./examples/sparkdag
	$(GO) run ./examples/geo

clean:
	rm -f full_results.txt test_output.txt bench_output.txt
