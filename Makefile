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
# instrumented protocol loop (internal/obs's live-group integration
# test) and the lock-free metrics under concurrency.
race:
	$(GO) test -race ./...

# check is the full verification: vet + race across every package (the
# transport tree — wire codec + UDP backend — and internal/core — the
# protocol loop plus the reconcile fast path's packet-drop tests — get
# their own explicit race passes so a filtered run of check's tail
# still covers them), plus the static-vs-adaptive failure-detector
# ablation in short mode (the quick cell asserts nothing but must run
# to completion), plus a quick E1 whose captured trace must pass every
# offline checker (vstrace -analyze exits non-zero on any
# paper-invariant violation) and the span profiler (vstrace -profile
# exits non-zero when any view-change span never closed — a change the
# run left unresolved), plus a quick E10 that exercises the same
# protocol over real loopback UDP sockets. The E8M runs are the
# install-mismatch gate: vsbench exits non-zero if any manufactured
# divergence escalated to a re-proposal round with reconciliation on
# (reproposal_total must be 0), on the simulator and over UDP, and the
# sim run's trace must still satisfy the offline checkers and profile
# with no unclosed spans. The admin package gets its own race pass
# (HTTP handlers racing the protocol loop's status publishes, plus the
# live-group integration tests), and the quick E1 runs once more with
# a live admin endpoint: -admin-check makes vsbench scrape its own
# /metrics and /status after the run and exit non-zero if the
# Prometheus exposition fails to parse or any member's status document
# is missing a view id. The vschaos runs are the quick chaos gate: a
# few short seeded fault plans per transport (seeded so the gate is
# reproducible), exiting non-zero on any invariant violation or
# reconvergence timeout and printing the failing seed/plan path; the
# chaos package's own race pass covers the fault filter racing the
# protocol loop.
check: build
	$(GO) vet ./... && $(GO) test -race ./...
	$(GO) test -race ./internal/transport/...
	$(GO) test -race ./internal/core
	$(GO) test -race ./internal/admin
	$(GO) run ./cmd/vsbench -exp e7 -quick
	$(GO) run ./cmd/vsbench -exp e1 -quick -admin 127.0.0.1:0 -admin-check
	$(GO) run ./cmd/vsbench -exp e1 -quick -trace-out /tmp/vsbench-e1-check.jsonl
	$(GO) run ./cmd/vstrace -analyze /tmp/vsbench-e1-check.jsonl
	$(GO) run ./cmd/vstrace -profile /tmp/vsbench-e1-check.jsonl
	$(GO) run ./cmd/vsbench -exp e10 -quick
	$(GO) run ./cmd/vsbench -exp e8m -quick -trace-out /tmp/vsbench-e8m-check.jsonl
	$(GO) run ./cmd/vstrace -analyze /tmp/vsbench-e8m-check.jsonl
	$(GO) run ./cmd/vstrace -profile /tmp/vsbench-e8m-check.jsonl
	$(GO) run ./cmd/vsbench -exp e8m -quick -transport udp
	$(GO) test -race ./internal/chaos
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
