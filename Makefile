# Development entry points. Everything is plain `go` underneath; the
# targets just bundle the flags used by CI.

.PHONY: all build test race test-noasm bench-smoke crnbench-quick fmt vet clean-data

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# test-noasm builds and tests the portable configuration: the AVX2+FMA
# assembly and its dispatch compiled out, generic Go kernels everywhere —
# what every non-amd64 platform runs. CI runs this plus a GOARCH=arm64
# cross-compile on every push.
test-noasm:
	go build -tags noasm ./...
	go test -tags noasm ./...

# bench-smoke compiles and runs every perf-critical benchmark exactly once
# (no timing assertions): a fast CI gate that kernel, workspace, cache,
# coalescer, pool-index, adaptation-loop or durability changes still
# execute. The parallel serving benchmarks run at -cpu 1,4 so both the
# single- and multi-GOMAXPROCS dispatch paths execute; the large-pool
# benchmarks exercise inverted-index selection, the index-off linear scan
# and the unbounded full scan once per size point, plus the 8-probe top-K
# batch at 50k entries; the trainer benchmarks run one whole retrain/promotion cycle under
# estimate traffic, the pool benchmarks one heap eviction per size, the
# WAL benchmarks one append per sync policy plus a full 10k-record
# recovery replay, the feedback-path benchmarks one journaled record
# per variant, the guarded serving benchmark one pass through the
# admission gate + breaker + deadline stack, the telemetry benchmark
# one pass through the fully instrumented estimator, the SQL front-end
# benchmark one parse of a generated 0/1/2-join query, the batch-handler
# benchmark one recurring 64-probe request per codec through crnserve's
# handler stack, and the exact-executor benchmarks one uncached evaluation
# per join count 0–5 plus one uncached containment rate.
bench-smoke:
	go test ./internal/nn ./internal/crn ./internal/wire -run '^$$' -bench . -benchtime 1x -benchmem
	go test . -run '^$$' -bench 'EstimateCardinality(Parallel|SoloCoalesced|Guarded|Telemetry)' -cpu 1,4 -benchtime 1x -benchmem
	go test . -run '^$$' -bench 'EstimateCardinalityLargePool' -benchtime 1x -benchmem
	go test . -run '^$$' -bench 'EstimateCardinalityTrainer' -cpu 4 -benchtime 1x -benchmem
	go test ./internal/pool -run '^$$' -bench 'AddSaturated' -benchtime 1x -benchmem
	go test ./internal/durable -run '^$$' -bench 'WALAppend|RecoveryReplay' -benchtime 1x -benchmem
	go test . -run '^$$' -bench 'RecordFeedback' -benchtime 1x -benchmem
	go test ./internal/sqlparse -run '^$$' -bench 'Parse' -benchtime 1x -benchmem
	go test ./cmd/crnserve -run '^$$' -bench 'BatchHandler64' -benchtime 1x -benchmem
	go test ./internal/exec -run '^$$' -bench . -benchtime 1x -benchmem

# crnbench-quick checks that BENCHMARK.json matches the benchmark's
# catalogue, then runs every crnbench workload at toy size (~10 s) with all
# of its answer checks on: the gate that a library change still builds and
# passes the benchmark, before anyone spends a measurement run on it.
crnbench-quick:
	go run ./cmd/crnbench -validate-only && go run ./cmd/crnbench -quick

# clean-data removes local crnserve data directories (WAL segments and
# checkpoints) created by ad-hoc -data-dir runs at the conventional ./data
# path. Never touches anything outside the repo.
clean-data:
	rm -rf ./data

fmt:
	gofmt -l .

vet:
	go vet ./...
