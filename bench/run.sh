#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# arguments given (see README.md). Everything the build writes — the binary and
# Go's build cache — stays in .bench_build at the root of the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
(cd bench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/pacebench" .)
exec "$build/pacebench" "$@"
