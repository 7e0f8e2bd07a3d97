GO ?= go

.PHONY: check fmt build loc vet no-unsafe test race lint-examples campaign-smoke fleet-smoke bench-smoke bench-snapshot bench-compare fuzz-smoke cover

# The CI gate: everything a PR must pass.
check: fmt vet no-unsafe build test race lint-examples campaign-smoke fleet-smoke bench-smoke

build:
	$(GO) build ./...

# Every Go file is gofmt-clean: the gate fails when gofmt -l lists any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt: not gofmt-clean:" >&2; echo "$$out" >&2; exit 1; fi

# Non-test Go lines per package: the figure ROADMAP's collapse item and its
# acceptance criteria quote. Informational, no gate.
loc:
	@$(GO) list -f '{{.ImportPath}} {{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./... | \
		while read -r pkg files; do printf '%7d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; done | \
		awk '{ print; t += $$1 } END { printf "%7d total\n", t }'

# Static analysis: go vet always; staticcheck (pinned) when installed —
# the container-friendly gate. CI installs the pinned version and runs both.
STATICCHECK_VERSION ?= 2025.1.1
vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "vet: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# The simulation kernels, the lane-parallel memory environment and the CPU
# models owe their speed to safe Go: no non-test file there may import
# unsafe.
no-unsafe:
	@bad=$$($(GO) list -f '{{range .Imports}}{{if eq . "unsafe"}}{{$$.ImportPath}}{{end}}{{end}}' ./internal/sim/... ./internal/cpu/...); \
	if [ -n "$$bad" ]; then echo "no-unsafe: non-test files import unsafe in: $$bad" >&2; exit 1; fi

test:
	$(GO) test ./...

# The root package's end-to-end assertions take ~17 min under the race
# detector, past the default 10-minute per-package timeout.
race:
	$(GO) test -race -timeout 30m ./...

# Strict-lint the built-in cores and the bundled example netlists; the
# seeded-defect fixtures under cmd/netlistlint/testdata are exercised (and
# expected to fail) by that package's tests, not here.
lint-examples:
	$(GO) run ./cmd/netlistlint -strict -cpu avr
	$(GO) run ./cmd/netlistlint -strict -cpu msp430
	$(GO) run ./cmd/netlistlint -strict -verilog cmd/netlistlint/testdata/clean.v

# End-to-end crash-resume drill: interrupt a short campaign mid-flight,
# resume from its journal, and require the exact uninterrupted result.
# Also scrapes a live /metrics endpoint during a campaign.
campaign-smoke:
	./scripts/campaign_smoke.sh

# Distributed fault-tolerance drill: coordinator + workers with a zombie
# lease and a SIGKILLed worker; the merged journal must be diff-clean
# against an uninterrupted single-process run.
fleet-smoke:
	./scripts/fleet_smoke.sh

# The campaign-stack benchmark at smoke scale (stride x 20, one timed rep):
# all four workloads, both halves, in seconds. Its timings mean nothing at
# this scale; what gates is its correctness checks (a)-(e) — journal
# complete, digests stable across reps, resume and fleet journals equal to
# the uninterrupted one, the scalar audit of a journal sample.
bench-smoke:
	$(GO) run ./bench -seed 1 -scale smoke

# Refresh a committed benchmark snapshot (default: the BENCH_0.json
# baseline; BENCH_OUT=BENCH_1.json snapshots the current tree next to it).
# Knobs: BENCH=regex BENCHTIME=10x COUNT=3 make bench-snapshot
BENCH_OUT ?= BENCH_0.json
bench-snapshot:
	./scripts/bench_snapshot.sh $(BENCH_OUT)

# Snapshot the current tree and compare it against the newest committed
# baseline (highest-numbered BENCH_N.json, so benchmarks added after
# BENCH_0 are compared too), warning on >15% ns/op regressions. The
# campaign hot-path benchmarks (BENCH_STRICT_RE) fail the run outright on
# regression; everything else stays advisory (STRICT=1 fails on any).
# Numeric order: $(sort) is lexical and would rank BENCH_10 below BENCH_2.
BENCH_BASELINE ?= $(shell ls BENCH_*.json | sort -t_ -k2 -n | tail -1)
BENCH_STRICT_RE ?= ^BenchmarkCampaign
bench-compare:
	./scripts/bench_snapshot.sh /tmp/bench_now.json
	STRICT_RE='$(BENCH_STRICT_RE)' ./scripts/bench_compare.sh $(BENCH_BASELINE) /tmp/bench_now.json

# Short native-fuzzing smoke: each target gets a few seconds on top of its
# seeded corpus. Full fuzzing sessions use `go test -fuzz ... -fuzztime 5m`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadRaw -fuzztime 10s ./internal/verilog
	$(GO) test -run '^$$' -fuzz FuzzMATESetRoundTrip -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRecover -fuzztime 10s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzBDDEval -fuzztime 10s ./internal/exact
	$(GO) test -run '^$$' -fuzz FuzzGatherScatterW -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzLookupBus -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzLaneRAM -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzDeviceProgram -fuzztime 10s ./internal/sim

# Coverage over the library packages (the cmd/ mains are exercised by the
# smoke scripts, not unit tests).
cover:
	$(GO) test -short -coverprofile=cover.out -coverpkg=./internal/... ./...
	$(GO) tool cover -func=cover.out | tail -1
