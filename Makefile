GO ?= go

.PHONY: verify vet build test race bench bench-smoke

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
	$(GO) test -bench=. -benchmem ./internal/bench

# The repo's one end-to-end benchmark (benchmark/README.md) at its
# smallest scale: every workload, oracle and ledger lane, in seconds.
bench-smoke:
	bash benchmark/run.sh -scale smoke
