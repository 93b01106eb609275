#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes —
# the Go build cache, the binary, the databases under test — stays under
# .bench_build/ and benchmark/out/ in the checkout this script sits in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/lazyxml-bench" .)
exec "$build/lazyxml-bench" -root "$root" "$@"
