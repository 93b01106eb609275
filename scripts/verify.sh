#!/bin/sh
# The repo's standard verify entrypoint (also: make verify).
set -eu
cd "$(dirname "$0")/.."
# Every Go file, the benchmark module's included, is gofmt-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
set -x
go vet ./...
go build ./...
go test -race ./...
# The benchmark is its own module and calls Backend from outside: it is
# the compile-time guard for that interface.
(cd benchmark && go vet . && go test -count=1 .)
