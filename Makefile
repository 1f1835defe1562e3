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
# failure. e1 -admin-check scrapes its own /metrics and /status. One
# trace of every experiment (-exp all -quick; each cell is its own trace
# run) must pass every trace checker (vstrace -analyze) and close every
# view-change span (vstrace -profile); it includes e8m, which fails if a
# manufactured divergence escalated to a re-proposal with reconciliation
# on (reproposal_total must be 0) — the UDP line repeats that over
# sockets. The vstrace -seed 3 traces, on the simulator and over UDP,
# carry the sends, deliveries and e-changes the message and cut checkers
# bite on. vschaos runs seeded fault plans per transport and prints the
# failing seed/plan path.
check: build
	$(GO) vet ./... && $(GO) test -race ./...
	$(GO) run ./cmd/vsbench -exp e1 -quick -admin 127.0.0.1:0 -admin-check
	$(GO) run ./cmd/vsbench -exp all -quick -trace-out /tmp/vsbench-check.jsonl
	$(GO) run ./cmd/vstrace -analyze /tmp/vsbench-check.jsonl
	$(GO) run ./cmd/vstrace -profile /tmp/vsbench-check.jsonl
	$(GO) run ./cmd/vsbench -exp e8m -quick -transport udp
	$(GO) run ./cmd/vstrace -seed 3 -trace-out /tmp/vstrace-check.jsonl
	$(GO) run ./cmd/vstrace -analyze /tmp/vstrace-check.jsonl
	$(GO) run ./cmd/vstrace -seed 3 -transport udp -trace-out /tmp/vstrace-udp-check.jsonl
	$(GO) run ./cmd/vstrace -analyze /tmp/vstrace-udp-check.jsonl
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
