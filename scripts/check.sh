#!/bin/sh
# The verification gate, and the only place the tiers are listed.
#
#   scripts/check.sh                 every tier, in order (= make check)
#   scripts/check.sh race artifact   only those (= make race artifact)
#
# The tiers partition the work: no package x test pair is raced twice.
# Stops at the first failing tier, prints wall time per tier, writes
# nothing into the checkout. GOMAXPROCS is inherited by every go command,
# so `GOMAXPROCS=1 scripts/check.sh race` races on one processor — except
# core, exec/pool, exec/smp, trace, transport (its buffer pool), transport/mux,
# transport/wire, transport/tcp, transport/inproc and exec/live (with
# exec/live/tenant), which the race tier always runs at both one P and four
# (-cpu 1,4): the trace log's appends, label interning and snapshots share
# one lock, the engine's queue summary and entry tables are checked from
# every task of the stress programs while the others run, the runner pool
# smp and the live worker share passes queued items and slot claims between
# goroutines that outlive the items (its model test drives random
# schedules), frames are routed to their session where they are read — in
# the tcp reader, or in whichever goroutine sends on an inproc pipe —
# receive buffers are taken from the pool by the tcp reader and go back to
# it from whichever goroutine last reads them (a worker's runner, a
# session's reader, the tcp reader or an inproc sender routing them, or a
# fence discarding them), and check-ins and write-backs that ride a task's
# frames, and dispatches made on the goroutine that readied the task, take
# different paths when the peer runs in parallel. The lock-discipline walks
# at the root run there too.
set -eu
cd "$(dirname "$0")/.."

TIERS="static unit race determinism artifact bench-smoke"

tier() {
	case "$1" in
	static) # formatting, vet, that everything builds, and the size of it
		test -z "$(gofmt -l . | tee /dev/stderr)"
		go vet ./...
		go build ./...
		# Non-test Go in the root module (bench/ and dot-directories
		# excluded), so every change reports its line delta.
		echo "non-test Go lines: $(find . -path ./bench -prune -o -path './.*' -prune -o \
			-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
		;;
	unit) # tier-1: the whole suite, once
		go test ./...
		;;
	race) # everything that does real concurrency, under the race detector, twice
		go test -race -count=2 ./internal/coherence/... \
			./internal/exec/dist/... \
			./internal/fault/... ./internal/obs/... ./internal/apps/serve/... ./jade/...
		# ... and the engine, the runner pool and its smp host, the trace log
		# and the wire path with its buffer pool at one P and at four,
		# whatever GOMAXPROCS says
		go test -race -count=2 -cpu 1,4 \
			./internal/core/... ./internal/exec/pool/... ./internal/exec/smp/... ./internal/trace/... \
			./internal/transport ./internal/transport/mux/... \
			./internal/transport/wire/... ./internal/transport/tcp/... \
			./internal/transport/inproc/... \
			./internal/exec/live ./internal/exec/live/tenant/...
		# ... and the walks that keep waits off the coherence lock and out of
		# the receive loops (dispatch and every continuation run on them),
		# and continuations from under the coordinator's locks
		go test -race -count=2 -cpu 1,4 -run 'TestNoWaitUnderCoherenceLock|TestReceiveLoopsNeverWait|TestNoContinuationUnderLock' .
		go test -race -count=2 -run 'Fault|L2' ./internal/experiments/...
		;;
	determinism) # simulated makespans, byte counts and traces repeat bit for bit
		go test -run 'Determin|Property' -count=2 ./internal/sim/... \
			./internal/coherence/... ./internal/exec/dist/... ./internal/format/...
		# ... and so does what a reader sees: two runs of every
		# simulator-backed experiment (the list a protocol change diffs
		# against its parent) print the same bytes, or a map-iteration
		# order has leaked into a simulated run.
		out=$(mktemp -d)
		trap 'rm -rf "$out"' EXIT
		go build -o "$out/jadebench" ./cmd/jadebench
		sim=f4,f7,f9,f10,s1,c1,a1,a2,a3,a4,d1,f1,h1,m1,g1,g2,g3,k1
		# ... and so do the exporters and the profiler: F7's Gantt chart,
		# narrative, Perfetto trace and flame stacks, and S1's profiles.
		for run in 1 2; do
			mkdir "$out/$run"
			(cd "$out/$run" &&
				../jadebench -quick -exp $sim >sim.txt &&
				../jadebench -quick -exp f7 -gantt -narrative \
					-trace-out f7.json -flame-out f7.flame >f7.txt &&
				../jadebench -quick -exp s1 -profile >s1.txt)
		done
		diff -r "$out/1" "$out/2"
		;;
	artifact) # a real jadebench trace export (L1's inproc round, default ring) passes the structural validator
		out=$(mktemp -d)
		trap 'rm -rf "$out"' EXIT
		go run ./cmd/jadebench -exp l1 -quick -trace-out "$out/l1.json" >/dev/null
		go run ./scripts/tracecheck -min-tasks 100 -want-flows "$out/l1.json"
		;;
	bench-smoke) # the benchmark module (bench/README.md) still builds against this one and runs
		cd bench
		go test ./...
		;;
	*)
		echo "check.sh: unknown tier '$1' (tiers: $TIERS)" >&2
		return 2
		;;
	esac
}

[ $# -gt 0 ] || set -- $TIERS
summary=""
for t in "$@"; do
	echo "== $t"
	start=$(date +%s)
	# A plain subshell, so that set -e stops the tier at its first failing
	# command (it would not inside an `if` or `||`).
	set +e
	(set -e; tier "$t")
	status=$?
	set -e
	summary="$summary$(printf '%-12s %4ds  %s' "$t" $(($(date +%s) - start)) "$([ $status -eq 0 ] && echo ok || echo FAILED)")
"
	[ $status -eq 0 ] || break
done
printf '\n== summary (GOMAXPROCS=%s, %s CPUs)\n%s' "${GOMAXPROCS:-unset}" "$(getconf _NPROCESSORS_ONLN)" "$summary"
exit $status
