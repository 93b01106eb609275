GO ?= go

.PHONY: verify vet build test race bench bench-shards bench-repl bench-compact bench-plan bench-smoke

# The standard pre-merge gate: gofmt, vet, build, race-enabled tests.
verify:
	./scripts/verify.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# Mixed read/write throughput through the real daemon: 1 shard vs 4.
bench-shards:
	./scripts/bench_shards.sh

# Bulk ingest over HTTP vs the binary protocol, plus a live follower's
# replication lag readout.
bench-repl:
	./scripts/bench_repl.sh

# Query p99 with the maintenance controller off vs on under a sustained
# write mix; records BENCH_compact.json.
bench-compact:
	./scripts/bench_compact.sh

# Zipf-skewed query mix with the cost-based planner + result cache vs
# fixed-algorithm lanes; records BENCH_plan.json.
bench-plan:
	./scripts/bench_plan.sh

# The repo's one end-to-end benchmark (benchmark/README.md) at its
# smallest scale: every workload, oracle and ledger lane, in seconds.
bench-smoke:
	bash benchmark/run.sh -scale smoke
