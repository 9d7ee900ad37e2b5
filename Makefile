# Development targets for the lasmq reproduction.

GO ?= go

.PHONY: all check lint layering build vet test test-race race race-stress bench-smoke probe-gate alloc-gate crosscheck reproduce replicate examples clean

all: build vet test

# Full pre-merge gate: map-range lint, import-layering gate, build, vet,
# tests, race detector, twenty race-enabled passes over the telemetry sinks
# and the live cluster (race-stress), one race-enabled iteration of the engine benchmarks
# (bench-smoke, so the benchmark tier itself cannot rot or race silently),
# the telemetry zero-overhead assertion (probe-gate), the streamed paths'
# marginal-allocation assertion (alloc-gate), the analytic M/M/1 and M/G/1
# cross-check (crosscheck), and every program under examples/ (examples: the
# runnable surface beside cmd/lasmq, which no test runs).
check: lint layering build vet test test-race race-stress bench-smoke probe-gate alloc-gate crosscheck examples

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
# sched.Assignment, calls a map-form Assign/AssignInto or quantizes from maps,
# substrate.Driver names no map-form interface (it drives every policy
# through sched.DenseForms), and no policy
# ported onto the dense contract keeps a map (SRPT, Gittins, Blend, Adaptive,
# LAS_MQ: their map forms are sched.MapForms, and LAS_MQ's oracle is
# schedtest.LiteralLASMQ). The next grep fences the adapters that
# survive only because benchmark/replay.go times them (ViewSet's demand map,
# Quantizer.QuantizeInto), as eventq.Ladder is fenced. The one after keeps
# the observation horizon's stubs inert until benchmark/ stops naming them: no
# call of ObserveHorizon (LAS_MQ's returns now) and no ViewSet.Begin with true
# for its ignored second argument, outside benchmark/ and tests. The next four keep a
# fluid round paying for what it serves: LAS_MQ has one sweep, in dense.go,
# driven by the change log, and lasmq.go defines none; the fluid simulator never
# re-registers its views (no ViewSet.Begin, one AddSlot, at admission: it
# edits one registration, cutting completed jobs out); it finds the jobs a
# round serves in the sparse answer's served list, never by ranging over the
# share column; and LAS_MQ's HorizonDense walks that list, not the views.
# The next two keep LAS's HorizonDense a search of the order its round's
# AssignDense sorted (no range over the views, no sort), and the fluid
# round's clamps on the builtin min and max, which inline (no math.Min or
# math.Max in fluid.go or core/dense.go).
# The next fence keeps FIFO's round a walk of its queue from the head:
# fifo.go builds, sorts and fills no per-view entries and calls no orderFill.
# The next keeps slots on every dense call: no non-test file of internal/sched
# or internal/core tests `slots == nil`, as the map forms issue every policy
# slots (sched.MapForms), so no policy keeps a slotless second path; and the
# window lists have one kernel, sched.Grow, Room and Cut, with no second
# growth rule or private list code beside it (roomFor, shareFloor,
# minQueueList, buildEntries, LAS_MQ's push) and no slices.Grow or cap( in
# LAS_MQ's files, whose queues grow through sched.Room and shrink through a
# one-index sched.Cut.
# The next keeps a departure costing what it moves: fluid.go moves no
# elements itself (no copy, no slices.Delete), so its active list and
# registration lose completed jobs only through the two-sided sched.Cut
# and ViewSet.Cut, and grow only through sched.Room, which slides a
# window cut at the front back before it allocates; and LAS_MQ's dense form
# and FIFO each keep exactly one loop over the whole slot column, the full
# re-stamp that runs only when sched.FindView misses.
# The next keeps run arenas on one free list: internal/engine and
# internal/fluid recycle them through substrate.Arenas, which keeps an arena
# across collections and Ps, never through a sync.Pool, which drops them.
# The next keeps the telemetry sinks on one vocabulary: every sink records
# packed obs.Events through one Record switch, so outside tests only obs.go
# (the emitter that packs Probe calls, and Nop) defines Probe methods in
# internal/obs and internal/core — no sink re-implements the Probe method
# set, and no policy wrapper exists to watch probe events.
# The next keeps telemetry out of results: outside internal/obs, non-test code
# resolves a sink with obs.Find only for *obs.Histograms (the slowdown and
# round-latency side channels), so no sink's state folds back into a
# simulated result; a caller that attached a Counters reads it itself.
# The next keeps one command: cmd/ holds cmd/lasmq and nothing else (no second
# main package, no wrapper binary), and no non-test package outside cmd/lasmq
# and benchmark/ imports flag, so every option is parsed in one place; the
# test helpers of internal/sched/schedtest, linked into test binaries only,
# define go test's one -update-pinned flag.
# The next keeps one public surface, cmd/lasmq plus examples/: the root
# package is its package comment alone (no non-test .go file but doc.go at the
# root), and no package imports "lasmq", so no façade of aliases over
# internal/ grows back.
# The next keeps one windowed view of a run, the obs.Series sink: no non-test
# Go names the engine's sampled timeline (Config.SampleInterval,
# Result.Timeline) or obs.QueueTimeline, so no second sampler grows back.
# The last keeps one conformance suite: the policy oracles AnswerError,
# FIFOError, LiteralLASMQ, MapOnly and DemoteOnly are called only by
# schedtest.Conform, by the policy packages' own tests (internal/sched,
# internal/core), and by the engine tests that drive runs Conform does not
# (dense_test.go's sharded and blend-over-FIFO differentials,
# incremental_test.go's full-reschedule one, bench_probe_test.go's synthetic
# rounds), so no substrate wires an oracle in by hand again.
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
		-e '^\./benchmark/'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: only the policies and benchmark/ touch the map side of the round" \
			"contract (use Driver.Shares, ViewSet.AddSlot, Quantizer.QuantizeRows):"; \
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
	@bad=$$(grep -rnE '\.ObserveHorizon\(|Begin\([^,()]*, *true\)' --include='*.go' . \
		| grep -v '_test\.go:' | grep -v '^\./benchmark/'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: a skipped round always observes; ObserveHorizon and Begin's second" \
			"argument are inert stubs kept for benchmark/ alone:"; \
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
	@bad=$$(awk '/^func \(l \*LAS\) HorizonDense\(/,/^}/' internal/sched/las.go \
		| grep -nE 'range +jobs\b|sort\.(Float64s|Slice|Sort)|slices\.Sort|sortEntries\('; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: LAS's HorizonDense searches the order its round's AssignDense left" \
			"in l.entries; it walks no view list and sorts nothing:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE 'math\.(Min|Max)\(' internal/fluid/fluid.go internal/core/dense.go \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: the fluid round and LAS_MQ's dense form clamp with the builtin" \
			"min and max, which inline; math.Min and math.Max are calls:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE '(orderFill|buildEntries|carriedEntries|sortEntries|firstEntries|fillInOrder)\(|viewEntry\{' \
		internal/sched/fifo.go; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: FIFO's round walks its queue and builds no per-view entries:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE 'slots == nil|roomFor|shareFloor|minQueueList|buildEntries|\) push\(' \
		internal/sched/*.go internal/core/*.go | grep -v '_test\.go:'; \
		grep -nE 'slices\.Grow\(|cap\(' internal/core/lasmq.go internal/core/dense.go; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: every dense call carries slots, and sched.Grow, Room and Cut are the" \
			"one window-list kernel (no slotless path, no second list code):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE 'copy\(|slices\.Delete|sched\.Grow\(s\.active' internal/fluid/fluid.go; true); \
	mq=$$(grep -c 'range slots' internal/core/dense.go); \
	fifo=$$(grep -c 'range slots' internal/sched/fifo.go); \
	if [ -n "$$bad" ] || [ "$$mq" != 1 ] || [ "$$fifo" != 1 ]; then \
		echo "layering: fluid.go cuts only through sched.Cut and ViewSet.Cut and grows its" \
			"active list through sched.Room; core/dense.go and sched/fifo.go each keep one" \
			"full re-stamp loop, the fallback of sched.FindView (found $$mq and $$fifo range slots):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'sync\.Pool' --include='*.go' internal/engine internal/fluid | grep -v '_test\.go:'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: run arenas are recycled through substrate.Arenas, never a sync.Pool:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE '^func \([^)]*\) (JobSubmitted|JobAdmitted|JobStarted|StageDone|JobDone|TaskStart|TaskDone|TaskFail|QueueEnter|QueueDemote|QueueExit|ThresholdRefit|RoundExecuted|RoundSkipped|ArenaReuse|SlabStats)\(' \
		internal/obs/*.go internal/core/*.go | grep -v -e '_test\.go:' -e '^internal/obs/obs\.go:'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: sinks record obs.Events through one Record switch; only" \
			"internal/obs/obs.go (emitter, Nop) defines Probe methods:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'obs\.Find\[' --include='*.go' . | grep -v -e '_test\.go:' -e '^\./internal/obs/' \
		| grep -v 'obs\.Find\[\*obs\.Histograms\]'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: outside internal/obs, obs.Find resolves only *obs.Histograms for its" \
			"side channels; no sink's state folds into a simulated result:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(find cmd -mindepth 1 ! -path cmd/lasmq ! -regex 'cmd/lasmq/[^/]*\.go'; \
		grep -rlE --include='*.go' '^[[:space:]]*(import +)?"flag"$$' . | grep -v '_test\.go$$' \
		| grep -v -e '^\./cmd/lasmq/' -e '^\./benchmark/' -e '^\./internal/sched/schedtest/'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: one command parses flags: cmd/ holds only cmd/lasmq, and no non-test" \
			"package outside cmd/lasmq, benchmark/ and schedtest (-update-pinned) imports flag:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(ls *.go | grep -v -e '_test\.go$$' -e '^doc\.go$$'; \
		grep -rlE --include='*.go' '^[[:space:]]*(import +)?(\w+ +)?"lasmq"$$' .; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: the public surface is cmd/lasmq and examples/: the root holds no" \
			"non-test .go file but doc.go, and no package imports \"lasmq\":"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE --include='*.go' 'SampleInterval|QueueTimeline|\.Timeline\b' . \
		| grep -v '_test\.go:'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: obs.Series is the one windowed view of a run; no non-test Go names" \
			"SampleInterval, QueueTimeline or .Timeline:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE --include='*.go' 'schedtest\.((AnswerError|FIFOError|MapOnly)\(|(LiteralLASMQ|DemoteOnly)\{)' . \
		| grep -v -e '^\./internal/sched/' -e '^\./internal/core/' -e '^\./internal/engine/dense_test\.go:' \
		-e '^\./internal/engine/incremental_test\.go:' -e '^\./internal/engine/bench_probe_test\.go:'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: a substrate holds its policies to the oracles through schedtest.Conform," \
			"calling none of AnswerError, FIFOError, LiteralLASMQ, MapOnly or DemoteOnly itself:"; \
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
# engine's scratch-buffer reuse. The explicit timeout leaves room over the
# slowest package: internal/experiments took 421 s alone under -race on 2
# CPUs and 527 s inside a full `make check`, against go test's default
# 10-minute per-package timeout.
test-race:
	$(GO) test -race -timeout 20m ./...

race: test-race

# Twenty race-enabled passes over the telemetry sinks (the flight-recorder
# ring's seqlock under a concurrent drain, the mutex-guarded aggregates) and
# the live mini-YARN cluster, whose resource manager emits probe events while
# other goroutines read them: a data race that one pass misses by timing
# shows up in twenty.
race-stress:
	$(GO) test -race -count=20 ./internal/obs ./internal/yarn

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
# (TestRecordsBoundedByAdmission). A run after two collections finds the
# arena an earlier run returned (TestArenaSurvivesGC). -count=1 for the same
# reason as probe-gate.
alloc-gate:
	$(GO) test -run '^(TestStreamMarginalAllocs|TestRecordsBoundedByAdmission|TestArenaSurvivesGC)$$' -count=1 ./internal/fluid ./internal/engine

# Analytic cross-check: drive the fluid and engine substrates with M/M/1
# workloads at rho in {0.5, 0.7, 0.9}, and the fluid substrate with M/G/1
# lognormal workloads at rho in {0.5, 0.8}, and assert FIFO/PS/SRPT/LAS
# means converge to the closed forms and analytic.MG1 in internal/analytic
# (-count=1 so a cached pass cannot mask drift introduced by a substrate
# change). Scale up
# with LASMQ_CROSSCHECK_JOBS / LASMQ_CROSSCHECK_SEEDS for a sharper run.
crosscheck:
	$(GO) test -run '^TestCrossCheck' -count=1 ./internal/analytic

# Regenerate every table and figure at paper scale (writes full_results.txt).
reproduce:
	$(GO) run ./cmd/lasmq bench -repeats 3 -seed 1 | tee full_results.txt

# Parallel multi-seed reproduction with 95% CIs; resumable via the cache dir.
replicate:
	$(GO) run ./cmd/lasmq bench -seeds 8 -workers 8 -cache .lasmq-cache

# Every program under examples/, stopping at the first that fails.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; $(GO) run ./$$d || exit 1; \
	done

clean:
	rm -f full_results.txt test_output.txt bench_output.txt
