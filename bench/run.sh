#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. bench/ is a module of its own (bench/go.mod) that takes the
# program under test from the checkout's root (replace repro => ../).
# Everything the build writes — the binary, the Go build cache and the go
# command's own per-user files — lands under .bench_build, so a run touches
# nothing outside the checkout; rebuilding an unchanged tree is a cache hit.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the program under test is missing" >&2
	exit 1
fi
# With a fresh per-user config directory the go command starts a detached
# telemetry child that outlives this script. Mode "off" makes it start
# none, so every process of a run has ended when the run returns.
mkdir -p .bench_build/config/go/telemetry
echo off > .bench_build/config/go/telemetry/mode
GOCACHE="$PWD/.bench_build/gocache" XDG_CONFIG_HOME="$PWD/.bench_build/config" \
	go build -C bench -o ../.bench_build/bench .
exec .bench_build/bench "$@"
