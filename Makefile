# Tier-1 verification: everything a PR must keep green.
# `make verify` = gofmt + vet + build + race-enabled tests + allocation
# budgets (no race detector) + suite census + vet/test of the bench/ module
# (see also scripts/verify.sh).

GO ?= go

.PHONY: verify fmt-check build test test-race budgets vet lint suite-census bench-module chaos storm torture qos elastic blackout grayfail fuzz bench-campaign

verify: fmt-check vet build test-race budgets suite-census bench-module

# bench/ is a module of its own (the benchmark the pipeline builds and
# runs), so `./...` above never enters it: without this step, renaming
# something it compiles against — a livestack.Config field, say — passes
# everything here and fails only there. Offline via its `replace`.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The seeded suites below select tests by name; fails when any of them
# matches fewer tests than scripts/suite_floor.txt records, so a renamed
# test cannot silently drop out of its suite. Each suite's acceptance
# scenarios live in ./internal/scenario, the one kit they share; a failing
# seeded scenario prints the line that replays it, SCENARIO_SEED=<n> make
# <suite>.
suite-census:
	sh scripts/suite_census.sh

# Fails when any tracked Go source is not gofmt-clean.
fmt-check:
	@unformatted="$$(gofmt -l cmd internal examples bench_test.go exports_test.go doc.go)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The tracer's in-flight table is read without a lock, so its tests get
# ten race passes, not one.
test-race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Trace|Tracer|LateHop' ./internal/telemetry

# The allocation and pool-residency gates of the forwarding path, of one
# recorded request trace, and of one arbitration decision (solve, publish,
# client remaps). Every one of them
# skips under the race detector (sync.Pool drops a share of Puts there), so
# test-race runs none: this is where they run.
budgets:
	$(GO) test -count=1 -run 'Alloc|Budget|Pin|Pooled|CostsNothing' \
		./internal/rpc ./internal/fwd ./internal/ion ./internal/agios ./internal/livestack ./internal/pfs \
		./internal/mapping ./internal/mckp ./internal/policy ./internal/arbiter ./internal/telemetry

# Static analysis beyond go vet. staticcheck is not vendored; CI installs a
# pinned version (see .github/workflows/ci.yml). Locally the target runs it
# when present and explains itself when not, so `make lint` never fails on
# a machine without network access.
STATICCHECK ?= staticcheck
lint:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# Overload-protection suite, run twice under the race detector: the storm
# scenario (12 IONs, one slowed into saturation, concurrent burst +
# well-behaved app) plus the bounded-admission, shed, throttle, and
# overload-steering tests across every layer.
storm:
	$(GO) test -race -count=2 -timeout 300s \
		-run 'Storm|Shed|Busy|Overload|Throttle|Gate|Saturat|QueueCap|Watermark|CloseDuring|PushClose|Inflight|HalfOpen' \
		./internal/scenario ./internal/livestack ./internal/agios ./internal/ion \
		./internal/rpc ./internal/fwd ./internal/health ./internal/arbiter \
		./internal/faultnet

# Failure-tolerance suite, run twice under the race detector: chaos tests
# that kill or wedge daemons mid-workload, fault injectors, breaker and
# deadline behaviour, and health-driven re-arbitration.
chaos:
	$(GO) test -race -count=2 -timeout 180s \
		-run 'Chaos|Fault|Fail|Breaker|Deadline|Retr|Hang|Delay|Mark|Probe|Refuse|Reset|Drop' \
		./internal/scenario ./internal/livestack ./internal/faultnet \
		./internal/rpc ./internal/health ./internal/arbiter ./internal/fwd

# Data-integrity campaign, run twice under the race detector: a seeded
# nemesis (kills, warm restarts, wire corruption, delays, resets, mid-frame
# cuts) against a live 12-ION stack with wire checksums and exactly-once
# write dedup on, checked by a byte-level oracle; then every defence on at
# once under a mixed nemesis that adds fail-slow and control-plane
# blackouts (TestTortureAllDefences). Reproduce a failing schedule with
# SCENARIO_SEED=<n> make torture.
torture:
	$(GO) test -race -count=2 -timeout 300s -run 'TestTorture' \
		./internal/scenario

# Multi-tenant QoS suite, run twice under the race detector: the
# noisy-neighbor scenario (12 IONs, one guaranteed tenant with an SLO vs a
# scavenger at 10× traffic) plus the token-bucket, WFQ bounded-inversion/
# no-starvation, weighted-arbitration, and wire-priority tests across every
# layer the qos subsystem touches.
qos:
	$(GO) test -race -count=2 -timeout 300s \
		-run 'QoS|Bucket|WFQ|Inversion|Starvation|Weight|Priority|ParseConfig|ParseBytes|ClassValidation|WriteFrameMatchesReferenceEncoder|ReadMessageRejects' \
		./internal/scenario ./internal/qos ./internal/units ./internal/livestack ./internal/agios ./internal/fwd \
		./internal/rpc ./internal/policy ./internal/arbiter ./cmd/gkfwd

# Elastic-pool suite, run twice under the race detector: the breathing
# chaos scenario (pool 2→12→2 under burst load with a nemesis killing
# IONs mid-drain and failing provisioning) plus the graceful-drain,
# dynamic-membership, scaler-hysteresis, sweep-counted decision-tick,
# provisioning-backoff, connection-release, and scaler-flag tests across
# every layer the elastic subsystem touches, and the Config rule table,
# whose scaler rows are the stack's elastic config checks.
# -p 1 keeps the packages sequential: the chaos scenario's demand signal
# is real queue depth under injected service latency, and sharing the
# machine with five other race-instrumented packages starves the writers
# enough to distort it.
elastic:
	$(GO) test -race -count=2 -timeout 300s -p 1 \
		-run 'Elastic|Drain|Scale|Provision|Hysteresis|Forecast|MarkIdempotency|AddION|RemoveION|ReleaseConn|PoolMemberAdded|PoolMemberRemoved|LoadReportsSampled|Scaler|MarginalAdvisor|ValidateRejectsBadValues' \
		./internal/scenario ./internal/elastic ./internal/livestack ./internal/arbiter \
		./internal/health ./internal/fwd ./cmd/gkfwd

# Control-plane recovery suite, run twice under the race detector: the
# blackout scenario (12-ION journaled stack, control plane SIGKILLed and
# warm-restarted from the write-ahead journal while writers keep going,
# compounded by an ION death during a blackout) plus the journal
# replay/compaction, arbiter Recover/reconciliation, epoch-fencing, and
# stale-epoch remap-and-retry tests across every layer the journal
# subsystem touches. Reproduce a failing schedule with
# SCENARIO_SEED=<n> make blackout.
blackout:
	$(GO) test -race -count=2 -timeout 300s \
		-run 'Blackout|Journal|Recover|Snapshot|Replay|Fence|Epoch|Stale|WriteAhead|Torn|Segment' \
		./internal/scenario ./internal/journal ./internal/arbiter ./internal/ion \
		./internal/fwd ./internal/rpc ./internal/livestack ./cmd/gkfwd

# Gray-failure suite, run twice under the race detector: the fail-slow
# scenario (12 IONs, one ramping to ~50× latency mid-workload; detection
# before the SLO breach, quarantine + re-steer, hedge wins with a
# per-byte exactly-once oracle, bounded p99, full recovery) plus the
# latency-sketch, fail-slow scorer, quarantine arbitration, hedged
# request, call-interrupt (how a winning hedge abandons its primary),
# slow/asymmetric fault-plan, and stale-sample tests across every layer
# the gray-failure defense touches. Reproduce a failing run
# with SCENARIO_SEED=<n> make grayfail.
grayfail:
	$(GO) test -race -count=2 -timeout 300s \
		-run 'GrayFailure|Sketch|Degrad|Quarantine|Hedge|Interrupt|Slow|Stale|IdleRecovery' \
		./internal/scenario ./internal/livestack ./internal/latency ./internal/health \
		./internal/arbiter ./internal/fwd ./internal/rpc ./internal/faultnet \
		./internal/elastic ./cmd/gkfwd

# Fuzzers: the wire protocol (frame decoder and encode/decode round-trip),
# journal replay, and the arbiter against its map-based reference.
# FUZZTIME bounds each fuzzer; CI runs a short smoke, leave it running
# longer locally to dig.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run - -fuzz FuzzReadMessage -fuzztime $(FUZZTIME) ./internal/rpc
	$(GO) test -run - -fuzz FuzzMessageRoundTrip -fuzztime $(FUZZTIME) ./internal/rpc
	$(GO) test -run - -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run - -fuzz FuzzArbiterMatchesReference -fuzztime $(FUZZTIME) ./internal/arbiter
	$(GO) test -run - -fuzz FuzzStagedStoreMatchesWriteAs -fuzztime $(FUZZTIME) ./internal/pfs

# The parallel campaign engine's scaling record (serial baseline vs worker
# pool); results are byte-identical at every worker count.
bench-campaign:
	$(GO) test -run - -bench BenchmarkCampaignWorkers -benchtime 1x .
