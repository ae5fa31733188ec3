#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it with the caller's arguments. Everything the toolchain writes (build
# cache, temp files, module cache) is pinned inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOWORK=off GOTOOLCHAIN=local
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
(cd "$here" && go build -o "$out/m3benchmark" .)
exec "$out/m3benchmark" -dir "$out" -bounds "$root/BENCHMARK.json" "$@"
