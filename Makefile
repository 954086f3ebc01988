GO ?= go

.PHONY: all build test race vet fmt soak gw-soak bench bench-test replay-check hotclosure hotclosure-check hatch-check reach

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrent pieces under the race detector (-short trims the soak).
# internal/tileccl is bench-only since PR 16 (only bench/ imports it) and leaves with the benchmark half.
race:
	$(GO) test -race -short ./internal/server ./internal/gateway ./internal/adapt ./internal/runccl ./internal/wal ./internal/tileccl ./internal/uplink ./cmd/hepccld ./cmd/loadgen ./cmd/hepcclgw

# go vet's standard suite + the module's analyzers (marklint, hotpathalloc,
# nofloat, errwrapcheck, barrierproto, acctproto) + the compiler
# escape-analysis and bounds-check-elimination cross-checks. Must be clean
# before merging.
vet:
	$(GO) run ./cmd/hepcclvet ./...

# Regenerate the hot-path closure baseline after intentionally changing what
# the serving spine calls. Line numbers are stripped: the gate reviews
# closure membership, not source positions.
hotclosure:
	$(GO) run ./cmd/hepcclvet -funcs | sed 's/^\([^:]*\):[0-9]*:/\1:/' > analysis/hotclosure.txt

# Fail when the hot closure drifted from the reviewed baseline; regenerate
# with `make hotclosure` and review the diff alongside the change.
hotclosure-check:
	$(GO) run ./cmd/hepcclvet -funcs | sed 's/^\([^:]*\):[0-9]*:/\1:/' | diff -u analysis/hotclosure.txt -

# Fail when the //hepccl:checked hatches (bounds checks argued in prose
# rather than proven) outnumber the ceiling. Lower the ceiling when a hatch
# becomes a proof; raise it only in the diff that adds one.
HATCH_CEILING = 35
hatch-check:
	@n=$$(grep -rh --include='*.go' --exclude='*_test.go' --exclude-dir=analysis '//hepccl:checked' . | wc -l); \
	echo "$$n //hepccl:checked hatches (ceiling $(HATCH_CEILING))"; \
	test $$n -le $(HATCH_CEILING)

# Exported functions that only their own package's tests reach: runs every
# test package once under -coverpkg (no -short) and fails on any function
# missing from the reviewed allowlist analysis/reach.txt, or on a line there
# whose bench/ reason bench/ no longer bears out. About a minute on two
# CPUs; a CI step.
reach:
	GO=$(GO) sh analysis/reach.sh

fmt:
	gofmt -l -w .

# Full-length chaos soak under -race, as the nightly CI job runs it: both
# rows, queue depth 256 and the skim-audit row at depth 2.
soak:
	$(GO) test -race -run 'TestChaosSoak$$' -count=1 -v ./internal/server

# Gateway chaos soak: gw + 2 in-process backends, one hard-killed mid-stream
# and re-added on the same address, with the exact accounting identity
# (offered == relayed + shed + inflight) asserted at quiesce. GW_SOAK_EVENTS
# scales the run (default 1200 events; CI uses 6000).
gw-soak:
	GW_SOAK_EVENTS=$${GW_SOAK_EVENTS:-6000} $(GO) test -race -run 'TestGatewaySoak$$' -count=1 -v ./internal/gateway

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkServeEvent' -benchtime 100x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkServe(Wire|Dense)$$' -benchtime 2s -benchmem ./internal/adapt
	$(GO) test -run '^$$' -bench 'BenchmarkScan(Dense)?/' -benchtime 1s -benchmem ./internal/adapt
	$(GO) test -run '^$$' -bench BenchmarkIngestPath -benchtime 200000x -benchmem ./internal/server
	$(GO) test -run '^$$' -bench BenchmarkRelay -benchtime 2000x -benchmem ./internal/gateway
	$(GO) test -run '^$$' -bench BenchmarkAppend -benchtime 20000x -benchmem ./internal/wal
# internal/tileccl is bench-only since PR 16 (only bench/ imports it) and leaves with the benchmark half.
	$(GO) test -run '^$$' -bench 'BenchmarkLabel' -benchtime 100x -benchmem ./internal/tileccl

# The benchmark harness is a module of its own (bench/go.mod), so the root
# `go test ./...` does not descend into it.
bench-test:
	cd bench && $(GO) test ./...

# Replay determinism: record a run into a WAL, replay it twice, and require
# byte-identical (event, label-count, checksum) response streams plus the
# crash-recovery round trip (SIGKILL mid-ingest, recover, re-serve).
replay-check:
	$(GO) test -run 'TestReplayDeterminism$$|TestWALCrashRecovery$$' -count=1 -v ./internal/server
