GO ?= go
# Snapshot tag: one past the newest committed BENCH_pr<N>.json, the
# same rule as default_tag in scripts/ci.sh.
TAG ?= $(or $(shell ls BENCH_pr*.json 2>/dev/null | \
	sed -n 's/^BENCH_pr\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -n 1 | \
	awk '{ print "pr" $$1 + 1 }'),local)

.PHONY: build test race vet bench perfstat profile chaos allocs fuzz ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Microbenchmarks plus the perfstat snapshot/gate lane (writes
# BENCH_$(TAG).json and compares against the newest earlier snapshot).
bench:
	$(GO) test -run '^$$' -bench 'Kernel|OracleHeap' -benchmem ./internal/sim/
	$(GO) test -run '^$$' -bench 'ParseStrace' -benchmem ./internal/trace/
	$(GO) test -run '^$$' -bench 'ReplayFault' -benchtime 1x -benchmem .
	./scripts/ci.sh bench $(TAG)

perfstat:
	$(GO) run ./cmd/perfstat -o BENCH_$(TAG).json

# CPU and heap profiles of the perfstat workload (compile + replay +
# kernel microbenchmarks); inspect with `go tool pprof cpu.out`.
profile:
	$(GO) run ./cmd/perfstat -o /dev/null -cpuprofile cpu.out -memprofile mem.out
	@echo "wrote cpu.out and mem.out; open with: $(GO) tool pprof cpu.out"

# Seeded fault-injection sweep over the Magritte corpus; exits non-zero
# on any chaos-invariant violation.
chaos:
	./scripts/ci.sh chaos

# Does the replay loop still allocate nothing per record? Ceilings plus
# an escape-analysis check of the syscall entry points.
allocs:
	./scripts/ci.sh allocs

fuzz:
	./scripts/ci.sh fuzz

ci:
	./scripts/ci.sh all $(TAG)
