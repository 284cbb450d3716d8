GO ?= go

.PHONY: build test race vet bench profile chaos allocs fuzz ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The repository's benchmark: every workload of bench/, end to end and
# per layer (bench/README.md).
bench:
	bash bench/run.sh

# CPU and heap profiles of the compiler and the replayer on the mid-size
# Magritte trace; inspect with `go tool pprof cpu.out`.
profile:
	$(GO) test -run '^$$' -bench '^(BenchmarkReplayObsOff|BenchmarkCompile)$$' -cpuprofile cpu.out -memprofile mem.out .
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
	./scripts/ci.sh all
