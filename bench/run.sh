#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the build writes
# (Go build cache included) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/spright-bench" .) >&2
cd "$root"
exec "$build/spright-bench" -out bench/out "$@"
