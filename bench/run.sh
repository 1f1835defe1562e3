#!/usr/bin/env bash
# Entry point of the benchmark contract (BENCHMARK.json "command"): builds
# bench/vsperf from the checkout's sources into .bench_build and runs it
# with the arguments given (--workload, --seed, --seconds, --trace).
# Everything the go tool writes (build cache, module cache, telemetry) is
# kept under .bench_build too, so nothing outside the checkout is touched.
# In a directory without the module's sources the build fails and so does
# this script, printing no result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
# With a fresh config directory the go command's telemetry mode is "local",
# and its first run of the day forks a detached `go` sidecar that outlives
# this script. Turn telemetry off in the config directory before go runs
# (what `go telemetry off` writes), so the only processes are go build and
# the benchmark, both waited for.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/vsperf" ./bench/vsperf
exec "$out/vsperf" "$@"
