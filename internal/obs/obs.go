// Package obs is the observability layer of the reproduction: a
// lock-cheap metrics registry (counters, gauges, fixed-bucket
// histograms) and a per-process structured trace facility (a bounded
// ring of typed events with pluggable sinks), plus a Collector that is
// a core.Observer and turns the run-time's notes into both.
//
// Every producer — the protocol loop, its failure detector and a
// group-object host's mode machine — reports through the one sink a
// process was started with, one by-value core.Note per occurrence. The
// Collector derives each metric and each trace event from a note, and
// Tee fans one note stream out to several sinks.
//
// The paper's headline costs — how many view changes a merge takes
// (§5), how cheaply enriched views classify the shared-state problem
// (§6.2) — are latencies and message counts. This package measures them
// live instead of reconstructing them post-hoc from checker traces:
//
//	reg := obs.NewRegistry()
//	tr := obs.NewTracer(4096, obs.NewJSONLSink(w))
//	opts.Observer = obs.NewCollector(reg, tr)
//
// The trace is also what the property checkers read: internal/tracecheck
// verifies the paper's guarantees over these events, offline from a
// JSONL file or live through its Recorder (a Collector tracing into
// memory).
//
// Everything is opt-in: a process started without an Observer builds no
// note and takes no timings, and a Collector without a tracer only
// counts; `go run ./bench/vsperf -layers` measures the delta as
// obs.collector_tput_frac and obs.collector_allocs_per_mcast.
//
// Metric names are dotted strings (see the Metric* constants in
// collector.go); the README "Observability" section documents the full
// schema.
package obs
