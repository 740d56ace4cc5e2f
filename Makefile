# Development entry points. Everything here is plain `go` — the
# Makefile only names the invocations so they are one word long.

GO ?= go

.PHONY: build test race check bench bench-gate bench-append loadtest clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full static gate: vet plus the repo's analyzer suite (determinism,
# address geometry, locking discipline...).
check:
	$(GO) vet ./...
	$(GO) run ./cmd/zbpcheck ./...

# One benchmark-trajectory measurement, printed as JSON. Touches no files.
bench:
	$(GO) run ./cmd/zsim -perfstat run

# Compare a fresh median-of-3 measurement against the committed
# BENCH_parallel.json baseline (same-GOMAXPROCS entry); exits non-zero
# on a >15% throughput regression or any correctness failure.
bench-gate:
	$(GO) run ./cmd/zsim -perfstat gate -perfstat-runs 3

# Append a median-of-3 entry to BENCH_parallel.json — run once per PR
# and commit the result so the trajectory grows with the repo.
# Usage: make bench-append LABEL="PR 7"
bench-append:
	$(GO) run ./cmd/zsim -perfstat append -perfstat-runs 3 -perfstat-label "$(LABEL)"

# The zsimd fault-injecting load testbed: steady load, burst overload,
# deadline dead-lettering, a slow client, and kill -9 mid-job with the
# recovered result checked bit-identical against a serial
# checkpoint+resume oracle. Built with -race like the CI selftest job.
# Usage: make loadtest [SCENARIO=kill9]
loadtest:
	$(GO) build -race -o zsimd ./cmd/zsimd
	./zsimd -selftest -scenario "$(SCENARIO)"

clean:
	rm -f zsim experiments zbpcheck tracegen zsimd
