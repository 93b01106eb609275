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
# The docs name only what exists: every cmd/<x> and scripts/<x>.sh path
# is in the tree, every `make <target>` is a Makefile target, and every
# -flag on a `lazyxmld -…` line or in a README flag table is one that
# cmd/lazyxmld defines.
docs="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
stale=0
for p in $(grep -ohE '(cmd/[A-Za-z0-9_-]+|scripts/[A-Za-z0-9_-]+\.sh)' $docs | sort -u); do
    [ -e "$p" ] || { echo "docs name $p, which does not exist" >&2; stale=1; }
done
for t in $(grep -ohE '`make [A-Za-z0-9_-]+' $docs | sed 's/^`make //' | sort -u); do
    grep -qE "^$t:" Makefile || { echo "docs name make target $t, which does not exist" >&2; stale=1; }
done
for f in $( { grep -hE 'lazyxmld -' $docs | grep -oE '(^| |`)-[a-z][a-z0-9-]*'
              grep -hE '^\| `-' README.md | grep -oE '^\| `-[a-z][a-z0-9-]*' | sed 's/^| `//'; } |
            sed 's/^[ `]*-//' | sort -u); do
    grep -qE "flag\.[A-Za-z0-9]+\(\"$f\"" cmd/lazyxmld/main.go ||
        { echo "docs name lazyxmld flag -$f, which cmd/lazyxmld does not define" >&2; stale=1; }
done
[ "$stale" = 0 ] || exit 1
set -x
go vet ./...
go build ./...
go test -race ./...
# The element index decoder reads snapshot bytes from disk and from a
# primary's re-seed stream: fuzz it beyond its seeds.
go test -run '^$' -fuzz '^FuzzDecodeIndex$' -fuzztime 10s ./internal/elemindex
# The log's record decoder reads commit units off the network on every
# follower: fuzz it beyond its seeds too.
go test -run '^$' -fuzz '^FuzzDecodeRecord$' -fuzztime 10s .
# Every figure and ablation benchmark runs once, so one that panics or
# stops compiling fails here and not only when someone benchmarks.
go test -run '^$' -bench . -benchtime 1x ./internal/bench
# Every example runs to a clean exit, with a temp dir of its own for the
# files some of them write.
examples_tmp=$(mktemp -d)
trap 'rm -rf "$examples_tmp"' EXIT
for ex in examples/*/; do
    TMPDIR="$examples_tmp" go run "./$ex" > /dev/null
done
# The benchmark is its own module and drives the store from outside, so
# it breaks when the store's exported surface does.
(cd benchmark && go vet . && go test -count=1 .)
