# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml and README "CI quality gate").

GO ?= go

.PHONY: all build test race vet lint fmt fuzz-smoke bench bench-pairs figures crash-consistency

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCDCChunker -fuzztime 30s ./internal/chunk
	$(GO) test -run '^$$' -fuzz FuzzGearChunker -fuzztime 30s ./internal/chunk/gear
	$(GO) test -run '^$$' -fuzz FuzzBatchOf -fuzztime 30s ./internal/fingerprint
	$(GO) test -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime 30s ./internal/collectives
	$(GO) test -run '^$$' -fuzz FuzzAbortMessage -fuzztime 30s ./internal/collectives
	$(GO) test -run '^$$' -fuzz FuzzFrameTraceContextDecode -fuzztime 30s ./internal/collectives
	$(GO) test -run '^$$' -fuzz FuzzTableUnmarshal -fuzztime 30s ./internal/fingerprint
	$(GO) test -run '^$$' -fuzz FuzzRestoreMetaUnmarshal -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzCommitRecords -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzHoldingsUnmarshal -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzChunksReply -fuzztime 30s ./internal/fetch
	$(GO) test -run '^$$' -fuzz FuzzDecodeDump -fuzztime 30s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzRestoreMetricsDecode -fuzztime 30s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzDecodeStore -fuzztime 30s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzSegmentIndexDecode -fuzztime 30s ./internal/storage
	$(GO) test -run '^$$' -fuzz FuzzManifestDecode -fuzztime 30s ./internal/storage
	$(GO) test -run '^$$' -fuzz FuzzReadRecords -fuzztime 30s ./internal/storage

# The wall-clock benchmark (see bench/README.md); compare two result
# files with: go run ./bench -compare a.json b.json
bench:
	$(GO) run ./bench -out .bench_build/local.json

# Alternating parent/change pairs of one workload, for a claimed gain:
#   make bench-pairs BASE=HEAD~1 N=10 WORKLOAD=page-tcp-seg
# prints every pair, both medians and quartiles and the win count
# (METRIC and SEED default to dump_mbps and 1). A restore claim names its
# metric: METRIC=restore_mbps. Any *_mbps metric counts higher as better,
# every other one lower. Only base.txt/head.txt (the raw values) are left
# under .bench_build/pairs afterwards.
BASE ?= HEAD
N ?= 10
WORKLOAD ?= page-tcp-seg
METRIC ?= dump_mbps
SEED ?= 1
bench-pairs:
	scripts/bench-pairs.sh $(BASE) $(N) $(WORKLOAD) $(METRIC) $(SEED)

# The paper's figures and tables as netsim shape reproductions, CI-sized.
figures:
	DEDUPCR_QUICK=1 $(GO) test -bench 'Fig|Table1|Fragmentation' -benchtime 1x -run '^$$'

# Kill-and-recover matrix for the segment engine: a helper process is
# killed at every fault-injection point and the store must reopen to the
# last committed checkpoint byte-identically.
crash-consistency:
	$(GO) test ./internal/storage/ -run 'TestCrashMatrix' -count=1 -v
