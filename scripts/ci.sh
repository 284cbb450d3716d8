#!/bin/sh
# CI gate, runnable whole or as one lane per CI job:
#
#   scripts/ci.sh [lane]
#
#   lane  one of lint | vet-race | determinism | ingest | shard | chaos |
#         cache | allocs | fuzz | service | service-fault | bench, or "all"
#         (the default).
#
# Lanes: lint (Go >= 1.23, gofmt, go vet, no caller of the replay
# engines outside artc.Run, internal/coord importing internal/sim only
# and no sync/atomic, no function that only tests reach — scripts/deadcode
# asks the linker — and the non-test line counts ROADMAP tracks,
# printed), vet-race (race-enabled tests — among them every compile,
# whose touch plan is built on a goroutine of its own beside the graph,
# and the streaming strace compile's hand-off, where the lexer passes
# each record batch with the string table's slice header of the moment
# and keeps appending to both while the analyzer reads, three times at
# GOMAXPROCS 2 —
# internal/sim five times over, which covers the sleep taken in place:
# it runs on the sleeper's coroutine, hooks included, internal/coord
# twenty times at GOMAXPROCS 1, 2, 8),
# determinism (byte-identical trace export under forced parallelism, and
# the no-op-pacer differentials: a kernel that takes lone sleeps in
# place against one that sends every sleep through the event queue,
# schedule logs in internal/sim and whole replays in internal/artc,
# three times each at GOMAXPROCS 1, 2, 8),
# ingest (strace text compiles to the same .bench bytes with the
# artifact cache off, cold and warm, and at GOMAXPROCS 1 and 2, and a
# text .bench of an older build is refused by name), shard (sharded
# and sliced replay match serial byte for byte across GOMAXPROCS, shard
# counts, and slice granularities, the components and pipeline family
# specs regenerate exactly, and the chaos invariants hold through the
# sharded replayer), chaos (seeded fault sweep with per-seed
# verification, a single-seed bit-repro check, and the default plan's
# export hashes, pinned across commits), cache (artifact
# cache hit/corruption behavior), allocs (the replay loop's
# allocations-per-record ceilings, the warm's per-page ceiling and the
# decoder's and the ingest path's bytes-per-record ceilings, printed,
# under GOMAXPROCS 1 and 2, escape analysis saying no syscall entry
# point's trace.Record reaches the heap, and 0 allocs/op from all five
# kernel microbenchmarks), fuzz (short
# smokes: the strace lexer, the Chrome exporter and the page cache
# against their reference implementations, the artifact decoder against
# malformed input), service (boot artcd, drive
# replays over HTTP, compare the serial and the sharded + sliced export
# byte for byte against the artc CLI), service-fault (overfill a tenant
# queue, assert bounded 429 backpressure and a clean SIGTERM drain),
# bench (the Go microbenchmarks once each, serial against
# component-sharded replay of the components corpus at GOMAXPROCS 1 and
# 2, then the bench/ harness twice: its smoke test, every workload at
# 1/50 size with BENCHMARK.json checked against the metric tables, and a
# one-second run of every workload at full size against the seed-7
# goldens; a failed check in either fails the lane).
set -eu

cd "$(dirname "$0")/.."

lane="${1:-all}"

tmp="$(mktemp -d)"
artcd_pid=""
trap '[ -n "$artcd_pid" ] && kill "$artcd_pid" 2>/dev/null; rm -rf "$tmp"' EXIT INT TERM

lint() {
  # internal/sim's coroutine switch sits in a //go:build go1.23 file; an
  # older toolchain would otherwise fail with "undefined: pull" deep in
  # a build.
  gominor="$(go env GOVERSION | sed -n 's/^go1\.\([0-9][0-9]*\).*/\1/p')"
  if [ -n "$gominor" ] && [ "$gominor" -lt 23 ]; then
    echo "scripts/ci.sh: $(go env GOVERSION) is too old, internal/sim needs Go >= 1.23 (iter.Pull)" >&2
    exit 1
  fi
  echo "== gofmt"
  fmt="$(gofmt -l .)"
  if [ -n "$fmt" ]; then
    echo "gofmt wants to rewrite:" >&2
    echo "$fmt" >&2
    exit 1
  fi
  echo "== go vet"
  go vet ./...
  echo "== one driver: the replay engines are called only through artc.Run"
  if grep -rnE 'artc\.(Replay|ReplaySharded)\(' --include='*.go' cmd internal |
    grep -v '_test\.go:' | grep -v '^internal/artc/'; then
    echo "artc.Replay/artc.ReplaySharded called outside internal/artc: build an artc.RunSpec and call artc.Run (DESIGN.md, One driver)" >&2
    exit 1
  fi
  echo "== the coordinator is a monitor: internal/coord depends on sim only, and neither it nor sharded.go uses sync/atomic"
  if go list -f '{{join .Imports "\n"}}{{"\n"}}{{join .TestImports "\n"}}' ./internal/coord |
    grep '^rootreplay' | grep -v '^rootreplay/internal/sim$'; then
    echo "internal/coord imports a rootreplay package other than internal/sim (DESIGN.md, Epoch clock-exchange coordinator)" >&2
    exit 1
  fi
  if grep -n '"sync/atomic"' internal/coord/*.go internal/artc/sharded.go; then
    echo "sync/atomic in the coordinator or its caller: every coordinator field is a plain value under the cluster mutex" >&2
    exit 1
  fi
  echo "== no code without a caller: every function is reached by a command, an example, bench/ or the root facade"
  go run ./scripts/deadcode
  loc
}

# loc prints the two sizes ROADMAP tracks (aim 2 and item 3's 15 %
# target): non-test Go lines in the whole program and in its driver
# layer. Reported, not gated.
loc() {
  count() { find "$@" -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l; }
  echo "== loc: non-test Go lines: cmd + internal $(count cmd internal), internal/artc + cmd + internal/serve $(count internal/artc cmd internal/serve)"
}

vet_race() {
  echo "== go test -race (GOMAXPROCS=8)"
  GOMAXPROCS=8 go test -race ./...
  echo "== go test -race -count=3 the strace compile's batch and string-table hand-off (GOMAXPROCS=2)"
  GOMAXPROCS=2 go test -race -count=3 -run 'TableHandoff|CompileStraceStream' ./internal/artc/
  echo "== go test -race -count=5 internal/sim (schedule golden, panic and goroutine-baseline tests under the coroutine race annotations)"
  GOMAXPROCS=8 go test -race -count=5 ./internal/sim/
  for procs in 1 2 8; do
    echo "== go test -race -count=20 internal/coord at GOMAXPROCS=$procs (the repetition is what finds a lost wake-up)"
    GOMAXPROCS=$procs go test -race -count=20 ./internal/coord/
  done
}

determinism() {
  echo "== determinism: byte-identical trace export under GOMAXPROCS=8"
  GOMAXPROCS=8 go test -count=1 -run 'Deterministic' ./internal/experiments/
  go build -o "$tmp/artc" ./cmd/artc
  GOMAXPROCS=8 "$tmp/artc" trace -magritte pages_docphoto15 -quiet -o "$tmp/trace-1.json"
  GOMAXPROCS=8 "$tmp/artc" trace -magritte pages_docphoto15 -quiet -o "$tmp/trace-2.json"
  cmp "$tmp/trace-1.json" "$tmp/trace-2.json"
  for procs in 1 2 8; do
    echo "== determinism: sleeps in place vs every sleep through the event queue (no-op pacer) at GOMAXPROCS=$procs"
    GOMAXPROCS=$procs go test -count=3 -run 'SleepInPlace' ./internal/sim/ ./internal/artc/
  done
}

ingest() {
  echo "== ingest: strace compiles to the same .bench with the cache off, cold and warm"
  go build -o "$tmp/artc" ./cmd/artc
  go build -o "$tmp/tracegen" ./cmd/tracegen
  "$tmp/tracegen" -format strace -threads 8 -ops 2500 -seed 42 \
    -o "$tmp/ingest.strace" -snapshot "$tmp/ingest.snap"
  ingest_compile() {
    "$tmp/artc" compile -trace "$tmp/ingest.strace" -format strace -snapshot "$tmp/ingest.snap" "$@"
  }
  ingest_compile -no-cache -o "$tmp/ingest-nocache.bench"
  ingest_compile -cache-dir "$tmp/ingest-cache" -o "$tmp/ingest-cold.bench" 2>"$tmp/ingest-cold.err"
  grep -q "cache: miss" "$tmp/ingest-cold.err"
  ingest_compile -cache-dir "$tmp/ingest-cache" -o "$tmp/ingest-warm.bench" 2>"$tmp/ingest-warm.err"
  grep -q "cache: hit" "$tmp/ingest-warm.err"
  cmp "$tmp/ingest-nocache.bench" "$tmp/ingest-cold.bench"
  cmp "$tmp/ingest-cold.bench" "$tmp/ingest-warm.bench"
  for kind in nocache cold warm; do
    "$tmp/artc" inspect -bench "$tmp/ingest-$kind.bench" >/dev/null
  done
  echo "== ingest: the compile's plan-beside-graph overlap gives the same bytes at GOMAXPROCS=1 and 2"
  for procs in 1 2; do
    GOMAXPROCS=$procs ingest_compile -no-cache -o "$tmp/ingest-procs$procs.bench"
    cmp "$tmp/ingest-nocache.bench" "$tmp/ingest-procs$procs.bench"
  done
  echo "== ingest: a text .bench written by an older artc compile is refused by name"
  printf '#artc-benchmark v2 platform=linux modes=none\n' > "$tmp/old.bench"
  if "$tmp/artc" inspect -bench "$tmp/old.bench" 2>"$tmp/old.err"; then
    echo "text benchmark file was accepted" >&2; exit 1
  fi
  grep -q "text benchmark files are no longer read; recompile from the trace" "$tmp/old.err"
  GOMAXPROCS=8 go test -race -count=1 \
    -run 'StraceGolden|ParseStraceAllocRegression|MergeShares' ./internal/trace/
}

shard() {
  echo "== shard: property + differential tests under -race"
  GOMAXPROCS=8 go test -race -count=1 -run 'Partition|Sharded|Slice|ComponentsFamily|PipelineFamily' \
    ./internal/shard/ ./internal/artc/ ./internal/magritte/ ./internal/workload/ \
    ./internal/fault/chaostest/
  go build -o "$tmp/artc" ./cmd/artc
  go build -o "$tmp/tracegen" ./cmd/tracegen
  echo "== shard: sharded trace export matches serial at GOMAXPROCS=1/2/8"
  "$tmp/artc" trace -magritte pages_docphoto15 -quiet -o "$tmp/shard-serial.json"
  for procs in 1 2 8; do
    for n in 1 2 4 8; do
      GOMAXPROCS=$procs "$tmp/artc" trace -magritte pages_docphoto15 -shards $n \
        -quiet -o "$tmp/shard-$procs-$n.json"
      cmp "$tmp/shard-serial.json" "$tmp/shard-$procs-$n.json"
    done
  done
  echo "== shard: components family spec regenerates byte for byte"
  "$tmp/tracegen" -family components -components 5 -ops 200 -skew 0.5 -seed 11 \
    -o "$tmp/components.trace" -snapshot "$tmp/components.snap"
  cmp internal/workload/testdata/components_small.trace "$tmp/components.trace"
  echo "== shard: pipeline family spec regenerates byte for byte"
  "$tmp/tracegen" -family pipeline -stages 4 -ops 200 -handoff 16 -seed 11 \
    -o "$tmp/pipeline.trace" -snapshot "$tmp/pipeline.snap"
  cmp internal/workload/testdata/pipeline_small.trace "$tmp/pipeline.trace"
  echo "== shard: sliced pipeline export matches serial across shard counts"
  "$tmp/artc" compile -trace "$tmp/pipeline.trace" -snapshot "$tmp/pipeline.snap" \
    -o "$tmp/pipeline.bench"
  "$tmp/artc" trace -bench "$tmp/pipeline.bench" -warm -no-samples -quiet \
    -o "$tmp/slice-serial.json"
  for n in 1 2 4 8; do
    GOMAXPROCS=8 "$tmp/artc" trace -bench "$tmp/pipeline.bench" -shards $n \
      -slice-actions 700 -warm -no-samples -quiet -o "$tmp/slice-$n.json"
    cmp "$tmp/slice-serial.json" "$tmp/slice-$n.json"
  done
  echo "== shard: chaos invariants hold through the sharded replayer"
  GOMAXPROCS=8 "$tmp/artc" chaos -magritte pages_docphoto15 -gen-scale 0.01 \
    -seeds 8 -verify -shards 4
  echo "== shard: chaos invariants hold through the sliced replayer"
  GOMAXPROCS=8 "$tmp/artc" chaos -magritte pages_docphoto15 -gen-scale 0.01 \
    -seeds 4 -verify -shards 4 -slice-actions 500
}

chaos() {
  go build -o "$tmp/artc" ./cmd/artc
  echo "== chaos: 16-seed fault sweep with per-seed double-run verification"
  GOMAXPROCS=8 "$tmp/artc" chaos -magritte pages_docphoto15 -gen-scale 0.01 -seeds 16 -verify
  echo "== chaos: seed 3 export is bit-reproducible"
  "$tmp/artc" chaos -magritte pages_docphoto15 -gen-scale 0.01 -seed 3 -quiet -o "$tmp/chaos-a.json"
  "$tmp/artc" chaos -magritte pages_docphoto15 -gen-scale 0.01 -seed 3 -quiet -o "$tmp/chaos-b.json"
  cmp "$tmp/chaos-a.json" "$tmp/chaos-b.json"
  echo "== chaos: default-plan exports match their pinned hashes, serial and sharded"
  go test -count=1 -run 'TestChaosDefaultPlanPinned$' ./internal/fault/chaostest/
}

cache() {
  go build -o "$tmp/artc" ./cmd/artc
  echo "== cache: warm load is byte-identical to the cold compile"
  "$tmp/artc" trace -magritte pages_docphoto15 -cache-dir "$tmp/cache" \
    -o "$tmp/cache-cold.json" >/dev/null 2>"$tmp/cache-cold.err"
  grep -q "cache: miss" "$tmp/cache-cold.err"
  "$tmp/artc" trace -magritte pages_docphoto15 -cache-dir "$tmp/cache" \
    -o "$tmp/cache-warm.json" >/dev/null 2>"$tmp/cache-warm.err"
  grep -q "cache: hit" "$tmp/cache-warm.err"
  cmp "$tmp/cache-cold.json" "$tmp/cache-warm.json"
  echo "== cache: a bit-flipped artifact is detected and recompiled"
  art="$(find "$tmp/cache" -name '*.artc' | head -n 1)"
  dd if=/dev/zero of="$art" bs=1 seek=100 count=4 conv=notrunc 2>/dev/null
  "$tmp/artc" trace -magritte pages_docphoto15 -cache-dir "$tmp/cache" \
    -o "$tmp/cache-fixed.json" >/dev/null 2>"$tmp/cache-fixed.err"
  grep -q "corrupt" "$tmp/cache-fixed.err"
  cmp "$tmp/cache-cold.json" "$tmp/cache-fixed.json"
  echo "== cache: a truncated binary artifact is rejected"
  art="$(find "$tmp/cache" -name '*.artc' | head -n 1)"
  head -c 200 "$art" > "$tmp/truncated.artc"
  if "$tmp/artc" inspect -bench "$tmp/truncated.artc" 2>"$tmp/cache-trunc.err"; then
    echo "truncated artifact was accepted" >&2; exit 1
  fi
  grep -qi "truncat" "$tmp/cache-trunc.err"
}

# allocs answers three questions: does the replay loop still allocate
# nothing per record, does warming a replica still allocate nothing per
# page, and what do decoding and ingesting a record, and recording a
# span, allocate? The ceilings count a whole Replay's allocations per
# record, a whole WarmAll's per resident page (plus the page cache's
# sparse-file bound), the bytes of a whole DecodeBinaryBytes and of a
# whole strace-to-store-and-back ingest per record and the bytes a
# recorder adds to a hits replay per span, figures printed as lint
# prints its line counts; the escape check catches the commonest way
# back for the first, a change to System.record that lets the entry
# points' Record literals escape. Last, every kernel microbenchmark —
# both sleep paths, timer churn, completion storm and the Park/Unpark
# ping-pong — must report 0 allocs/op: the event pool and the event
# queue's backing array grow during warm-up only.
allocs() {
  for procs in 1 2; do
    echo "== allocs: allocations-per-record and per-warmed-page ceilings at GOMAXPROCS=$procs"
    GOMAXPROCS=$procs go test -count=1 -run 'ReplayAllocs|WarmAllocs' ./internal/artc/ ./internal/cache/
    GOMAXPROCS=$procs go test -count=1 -v -run 'DecodeBytesPerRecord|IngestBytesPerRecord|RecorderBytesPerSpan' ./internal/artc/ ./internal/artifact/ > "$tmp/bytes-allocs.txt" ||
      { cat "$tmp/bytes-allocs.txt" >&2; exit 1; }
    sed -n 's/^.*\(allocs\|ingest\)_test\.go:[0-9]*: \(.* bytes allocated per \)/\2/p' "$tmp/bytes-allocs.txt" |
      while read -r line; do echo "== allocs: $line at GOMAXPROCS=$procs"; done
  done
  echo "== allocs: syscall entry points keep their trace.Record on the stack"
  go build -gcflags=-m ./internal/stack 2>&1 |
    grep -E '^internal/stack/(fileio|meta|aio)\.go:[0-9]+:[0-9]+: &trace\.Record\{' > "$tmp/escape.txt" || true
  if grep -v 'does not escape$' "$tmp/escape.txt"; then
    echo "a syscall entry point's &trace.Record{...} escapes to the heap: one allocation per replayed call (System.record copies it for the tracer only)" >&2
    exit 1
  fi
  literals="$(cat internal/stack/fileio.go internal/stack/meta.go internal/stack/aio.go | grep -c '&trace\.Record{')"
  if [ "$(wc -l < "$tmp/escape.txt")" -ne "$literals" ]; then
    echo "escape analysis reported $(wc -l < "$tmp/escape.txt") of the $literals &trace.Record{...} literals: the check no longer sees them all" >&2
    exit 1
  fi
  echo "== allocs: no kernel path allocates"
  go test -run '^$' -bench 'Kernel(SleepChurn|SleepAlone|TimerChurn|CompletionStorm|PingPong)$' -benchmem ./internal/sim/ > "$tmp/kernel-allocs.txt" ||
    { cat "$tmp/kernel-allocs.txt" >&2; exit 1; }
  grep '^Benchmark' "$tmp/kernel-allocs.txt"
  if [ "$(grep -c '^BenchmarkKernel.* 0 allocs/op$' "$tmp/kernel-allocs.txt")" -ne 5 ]; then
    echo "a kernel path allocates: BenchmarkKernel{SleepChurn,SleepAlone,TimerChurn,CompletionStorm,PingPong} must all report 0 allocs/op" >&2
    exit 1
  fi
}

fuzz() {
  echo "== fuzz: 20s strace fast-lexer vs reference smoke"
  go test -run '^$' -fuzz 'FuzzStraceFastVsReference' -fuzztime 20s ./internal/trace/
  echo "== fuzz: 20s binary artifact decoder smoke"
  go test -run '^$' -fuzz 'FuzzDecodeBinary' -fuzztime 20s -fuzzminimizetime 5s ./internal/artc/
  echo "== fuzz: 20s streaming Chrome exporter vs encoding/json reference smoke"
  go test -run '^$' -fuzz 'FuzzWriteChrome' -fuzztime 20s -fuzzminimizetime 5s ./internal/obs/
  echo "== fuzz: 10s page cache vs scanning oracle smoke"
  go test -run '^$' -fuzz 'FuzzCacheOps' -fuzztime 10s -fuzzminimizetime 1s ./internal/cache/
}

# start_artcd boots the daemon on an ephemeral port with the given
# extra flags, parses the announced address from its stderr log, and
# sets $base. stop_artcd sends SIGTERM and asserts a clean drain.
start_artcd() {
  : > "$tmp/artcd.log"
  "$tmp/artcd" -addr 127.0.0.1:0 "$@" 2>"$tmp/artcd.log" &
  artcd_pid=$!
  addr=""
  i=0
  while [ $i -lt 100 ]; do
    addr="$(sed -n 's/^artcd: listening on //p' "$tmp/artcd.log")"
    [ -n "$addr" ] && break
    i=$((i + 1))
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "artcd never announced its listen address" >&2
    cat "$tmp/artcd.log" >&2
    exit 1
  fi
  base="http://$addr"
}

stop_artcd() {
  kill -TERM "$artcd_pid"
  wait "$artcd_pid" || { echo "artcd exited nonzero" >&2; exit 1; }
  artcd_pid=""
  grep -q "drained, exiting" "$tmp/artcd.log"
}

service() {
  echo "== service: HTTP replay export matches the artc CLI byte for byte"
  go build -o "$tmp/artc" ./cmd/artc
  go build -o "$tmp/artcd" ./cmd/artcd
  go build -o "$tmp/artcdctl" ./cmd/artcdctl
  go build -o "$tmp/tracegen" ./cmd/tracegen
  "$tmp/tracegen" -workload magritte:pages_docphoto15 -scale 0.01 -seed 5 \
    -o "$tmp/svc.trace" -snapshot "$tmp/svc.snap"
  "$tmp/artc" compile -trace "$tmp/svc.trace" -snapshot "$tmp/svc.snap" \
    -no-cache -o "$tmp/svc.bench"
  "$tmp/artc" trace -bench "$tmp/svc.bench" -quiet -o "$tmp/svc-cli.json"
  start_artcd -cache-dir "$tmp/svc-cache"
  trace_id="$("$tmp/artcdctl" -base "$base" -tenant ci upload "$tmp/svc.trace")"
  snap_id="$("$tmp/artcdctl" -base "$base" -tenant ci upload "$tmp/svc.snap")"
  printf '{"kind":"export","trace":"%s","snapshot":"%s"}\n' "$trace_id" "$snap_id" \
    > "$tmp/svc-job.json"
  job="$("$tmp/artcdctl" -base "$base" -tenant ci submit "$tmp/svc-job.json")"
  "$tmp/artcdctl" -base "$base" -tenant ci wait "$job" >/dev/null
  "$tmp/artcdctl" -base "$base" -tenant ci result -o "$tmp/svc-http.json" "$job"
  cmp "$tmp/svc-cli.json" "$tmp/svc-http.json"
  echo "== service: metrics count the job and the compile"
  "$tmp/artcdctl" -base "$base" metrics > "$tmp/svc-metrics.txt"
  grep -q "^artcd_jobs_done 1\$" "$tmp/svc-metrics.txt"
  grep -q "^artcd_compiles 1\$" "$tmp/svc-metrics.txt"
  grep -q "^artcd_cache_misses 1\$" "$tmp/svc-metrics.txt"
  echo "== service: sharded + sliced + warmed export matches the CLI too"
  "$tmp/artc" trace -bench "$tmp/svc.bench" -shards 2 -slice-actions 300 -warm -no-samples \
    -quiet -o "$tmp/svc-cli-sliced.json"
  printf '{"kind":"export","trace":"%s","snapshot":"%s","shards":2,"slice_actions":300,"warm":true,"no_samples":true}\n' \
    "$trace_id" "$snap_id" > "$tmp/svc-job-sliced.json"
  job="$("$tmp/artcdctl" -base "$base" -tenant ci submit "$tmp/svc-job-sliced.json")"
  "$tmp/artcdctl" -base "$base" -tenant ci wait "$job" >/dev/null
  "$tmp/artcdctl" -base "$base" -tenant ci result -o "$tmp/svc-http-sliced.json" "$job"
  cmp "$tmp/svc-cli-sliced.json" "$tmp/svc-http-sliced.json"
  echo "== service: SIGTERM drains clean"
  stop_artcd
}

service_fault() {
  echo "== service-fault: a full tenant queue answers 429, bounded and observable"
  go build -o "$tmp/artcd" ./cmd/artcd
  go build -o "$tmp/artcdctl" ./cmd/artcdctl
  start_artcd -no-cache -workers 1 -queue-bound 2 -debug-sleep-kind
  ctl() { "$tmp/artcdctl" -base "$base" -tenant ci "$@"; }
  printf '{"kind":"sleep","ms":30000}\n' > "$tmp/sleeper.json"
  printf '{"kind":"sleep","ms":0}\n' > "$tmp/sleep0.json"
  sleeper="$(ctl submit "$tmp/sleeper.json")"
  i=0
  while ! ctl status "$sleeper" | grep -q '"state":"running"'; do
    i=$((i + 1))
    [ $i -lt 100 ] || { echo "sleeper never started running" >&2; exit 1; }
    sleep 0.1
  done
  ctl submit "$tmp/sleep0.json" >/dev/null
  victim="$(ctl submit "$tmp/sleep0.json")"
  set +e
  rejected="$(ctl submit "$tmp/sleep0.json" 2>"$tmp/reject.err")"
  code=$?
  set -e
  if [ "$code" -ne 7 ]; then
    echo "expected backpressure exit code 7, got $code ($rejected)" >&2
    exit 1
  fi
  if [ "$(printf '%s\n' "$rejected" | wc -l)" -ne 1 ]; then
    echo "429 body is not a single line: $rejected" >&2
    exit 1
  fi
  printf '%s' "$rejected" | grep -q '"error":"queue_full"'
  grep -q '^retry-after: ' "$tmp/reject.err"
  echo "== service-fault: canceling a queued job frees its queue slot"
  ctl cancel "$victim" | grep -q '"state":"canceled"'
  ctl submit "$tmp/sleep0.json" >/dev/null
  ctl cancel "$sleeper" >/dev/null
  i=0
  while ! ctl status "$sleeper" | grep -q '"state":"canceled"'; do
    i=$((i + 1))
    [ $i -lt 100 ] || { echo "running sleeper never observed its cancel" >&2; exit 1; }
    sleep 0.1
  done
  echo "== service-fault: metrics expose the rejection"
  "$tmp/artcdctl" -base "$base" metrics | grep -q "^artcd_rejected_backpressure 1\$"
  echo "== service-fault: SIGTERM drains the backlog clean"
  stop_artcd
}

bench() {
  echo "== go test -bench=Compile -benchtime=1x"
  go test -run '^$' -bench 'Compile' -benchtime 1x -benchmem .
  echo "== go test -bench='SyncResident|DropResident' -benchtime=1x"
  go test -run '^$' -bench 'SyncResident|DropResident' -benchtime 1x ./internal/cache
  echo "== go test -bench=WarmAll -benchtime=1x"
  go test -run '^$' -bench 'WarmAll' -benchtime 1x ./internal/stack
  echo "== go test -bench=WriteChrome -benchtime=1x"
  go test -run '^$' -bench 'WriteChrome' -benchtime 1x ./internal/obs
  echo "== go test -bench=ReplayComponents -cpu 1,2 -benchtime=3x (serial vs component-sharded replay)"
  go test -run '^$' -bench 'ReplayComponents' -cpu 1,2 -benchtime 3x .
  echo "== bench/ smoke test: every workload at 1/50 size, BENCHMARK.json against the metric tables"
  (cd bench && go test ./...)
  echo "== bench/run.sh --seconds 1: every workload at full size against the seed-7 goldens"
  bash bench/run.sh --seconds 1
}

case "$lane" in
  lint)          lint ;;
  vet-race)      vet_race ;;
  determinism)   determinism ;;
  ingest)        ingest ;;
  shard)         shard ;;
  chaos)         chaos ;;
  cache)         cache ;;
  allocs)        allocs ;;
  fuzz)          fuzz ;;
  service)       service ;;
  service-fault) service_fault ;;
  bench)         bench ;;
  all)           lint; vet_race; determinism; ingest; shard; chaos; cache
                 allocs; fuzz; service; service_fault; bench ;;
  *)             echo "scripts/ci.sh: unknown lane \"$lane\"" >&2; exit 2 ;;
esac
