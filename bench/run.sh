#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness and the real
# cardirectd binary from the checkout's sources into .bench_build/ (build
# cache and temp files included, so nothing is written outside the
# checkout), then runs the harness with the caller's arguments.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

(cd "$root" && go build -o "$build/cardirectd" ./cmd/cardirectd)
(cd "$here" && go build -o "$build/bench" .)

exec "$build/bench" -root "$root" "$@"
