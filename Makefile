# Developer entry points. CI and the tier-1 gate run `make check`.

GO ?= go

.PHONY: build test check race bench microbench vet

build:
	$(GO) build ./...

test: build
	$(GO) vet ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the race detector over the whole tree, including the
# instrumented protocol loop (the live-group integration tests of
# internal/obs and internal/tracecheck) and the lock-free metrics under
# concurrency.
race:
	$(GO) test -race ./...

# check is the full verification: vet and the race detector over every
# package, then the command-line gates, each of which exits non-zero on
# failure. e7 -quick asserts nothing but must run to completion; e1 with
# -admin-check scrapes its own /metrics and /status; e10 runs the
# protocol over loopback UDP. The F1 trace is the replicated file's: its
# mode steps must be Figure-1 edges (-analyze cannot fail on absence;
# TestF1Smoke asserts they are there). It is the one gated trace with
# notes from all three emitters (core, fd suspicions, gobject mode
# steps). It, the E1 and the E8M traces must pass every trace checker
# (vstrace -analyze) and close every view-change span (vstrace
# -profile); e8m itself fails if a manufactured divergence
# escalated to a re-proposal with reconciliation on (reproposal_total
# must be 0), on the simulator and over UDP. Neither the E1/E8M traces
# nor the chaos plans carry application traffic, so the vstrace -seed 3
# pair is the gate whose trace — read back through the file reader —
# has sends, deliveries and e-changes for the message and cut checkers
# to bite on. vschaos runs a few seeded fault plans per transport and
# prints the failing seed/plan path.
check: build
	$(GO) vet ./... && $(GO) test -race ./...
	$(GO) run ./cmd/vsbench -exp e7 -quick
	$(GO) run ./cmd/vsbench -exp e1 -quick -admin 127.0.0.1:0 -admin-check
	$(GO) run ./cmd/vsbench -exp e1 -quick -trace-out /tmp/vsbench-e1-check.jsonl
	$(GO) run ./cmd/vstrace -analyze /tmp/vsbench-e1-check.jsonl
	$(GO) run ./cmd/vstrace -profile /tmp/vsbench-e1-check.jsonl
	$(GO) run ./cmd/vsbench -exp f1 -quick -trace-out /tmp/vsbench-f1-check.jsonl
	$(GO) run ./cmd/vstrace -analyze /tmp/vsbench-f1-check.jsonl
	$(GO) run ./cmd/vstrace -profile /tmp/vsbench-f1-check.jsonl
	$(GO) run ./cmd/vsbench -exp e10 -quick
	$(GO) run ./cmd/vsbench -exp e8m -quick -trace-out /tmp/vsbench-e8m-check.jsonl
	$(GO) run ./cmd/vstrace -analyze /tmp/vsbench-e8m-check.jsonl
	$(GO) run ./cmd/vstrace -profile /tmp/vsbench-e8m-check.jsonl
	$(GO) run ./cmd/vsbench -exp e8m -quick -transport udp
	$(GO) run ./cmd/vstrace -seed 3 -trace-out /tmp/vstrace-check.jsonl
	$(GO) run ./cmd/vstrace -analyze /tmp/vstrace-check.jsonl
	$(GO) run ./cmd/vschaos -runs 3 -out /tmp/vschaos-check
	$(GO) run ./cmd/vschaos -seed 5 -transport udp -out /tmp/vschaos-check

# bench is the repo's one benchmark (bench/README.md), run the way the
# regression gate runs it: every workload, 28 measured seconds each, with
# the traced repetition and the per-layer metrics.
bench:
	bash bench/run.sh --workload all --seconds 28 --trace 1

# microbench runs the per-package go test benchmarks.
microbench:
	$(GO) test -run NONE -bench . -benchmem ./...
