#!/bin/sh
# Pre-commit gate: formatting, build, vet, the harmonia-lint domain
# analyzers (-werror: malformed suppressions fail too; timed against a
# 10s budget, with the suggested-fix layer gated on -diff emptiness and
# the fix-application tests), race-detector
# test run, a focused race pass over the concurrent service layer, the
# served-path retention, compaction and response-encoding gates, an
# observability smoke (the spans endpoint in both formats, the tracing
# inertness gates, and the debug mux), the hot-path equivalence gates
# (golden float bits across the gpusim invariant hoisting, the
# eventsim cycle loop and predictor training, budgeted nested
# parallelism vs serial,
# allocation-free sweeps, cached vs uncached simulation), a bounded
# chaos-soak of the resilience layer (make soak), and the benchmark
# gate (simulation-memo speedup, the disabled-tracing overhead cap,
# the sweep allocation ceiling, and the machine-aware parallel-scaling
# floor, BENCH_sweep.json).
set -eux
cd "$(dirname "$0")/.."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go build ./...
go vet ./...
# Domain lint must stay fast enough for pre-commit use: the ten-analyzer
# run, including the module-wide call-graph build, is budgeted at 10
# seconds (the binary is already built, so this times analysis).
lint_start=$(date +%s)
go run ./cmd/harmonia-lint -werror ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt 10 ]; then
	echo "harmonia-lint took ${lint_elapsed}s; the pre-commit budget is 10s" >&2
	exit 1
fi
# lint-fix-check: the suggested-fix layer stays machine-applicable.
# -diff over the clean tree must print nothing (no fixable findings
# pending), and the scratch-module fix tests pin the -fix output bytes,
# gofmt cleanliness, and idempotence.
fixdiff="$(go run ./cmd/harmonia-lint -diff ./... || true)"
if [ -n "$fixdiff" ]; then
	echo "harmonia-lint -diff shows pending fixable findings:" >&2
	echo "$fixdiff" >&2
	exit 1
fi
go test -count=1 -run 'TestFixApply|TestFixDiff' ./internal/lint/
# The full race pass keeps explicit headroom over go test's default 10m
# per-binary alarm: on a 2-CPU Xeon it takes about 6 minutes, of which
# internal/eventsim, the slowest binary, takes about 5.5.
go test -race -timeout 30m ./...
go test -race -count=1 ./internal/serve/... ./internal/telemetry/...
# Served-path retention and lean-run gates: queue-ordered eviction must
# match the full-scan reference it replaced step for step (retained
# IDs, list order, eviction counts) and release evicted runs at once; a
# compacted run's span tree and timeline must serve the same bytes; the
# pooled response encoder must send the streaming encoder's bytes; and
# the table-backed config and bins names must equal their formatters,
# allocation-free.
go test -count=1 -run 'TestRegistryRetentionMatchesFullScan|TestBatchRegistryRetentionMatchesFullScan|TestRetentionReleasesEvictedRecords|TestCompactionKeepsServedBytes|TestWriteJSONMatchesStreamingEncoder' ./internal/serve/
go test -count=1 -run 'TestCompactPreservesExports' ./internal/trace/
go test -count=1 -run 'TestFinishCompactsWithoutChangingSnapshot' ./internal/timeline/
go test -count=1 -run 'TestConfigStringTable' ./internal/hw/
go test -count=1 -run 'TestBinsNameTable' ./internal/core/
# Observability smoke: spans endpoint round-trips (native + chrome),
# request/trace correlation, tracing inertness, and the pprof/expvar
# debug handler.
go test -count=1 -run 'TestGetSpans|TestTraceparentAdopted|TestRequestIDMintedAndEchoed|TestDebugHandler' ./internal/serve/
go test -count=1 -run 'TestTracedRunBitIdentical|TestSameSeedSpanTreesByteIdentical' .
# Flight-recorder smoke: recorder inertness and same-seed timeline
# byte-identity (the determinism the /v1/runs/{id}/timeline contract
# rests on).
go test -count=1 -run 'TestTimelineRunBitIdentical|TestSameSeedTimelinesByteIdentical' .
# Hot-path equivalence gates: the hoisted gpusim invariants must stay
# bit-exact against the embedded golden float bits, budgeted nested
# parallelism must reproduce the serial pipeline byte for byte, the
# pooled sweep scratch must stay allocation-free at steady state, and
# the simulation memo (slabs indexed by hw.Config.Index) must return
# exactly what the uncached model computes, with faulted runs bypassing
# it, the event-skipping eventsim loop must reproduce every Result
# field of the per-cycle loop it replaced, and predictor training on one
# shared Gram must reproduce the per-model fits' golden bits and equal
# Train over the materialized rows, with Gram.Add allocation-free.
go test -count=1 -run 'TestGoldenBits' ./internal/gpusim/
go test -count=1 -run 'TestGoldenResultBits' ./internal/eventsim/
go test -count=1 -run 'TestGoldenPredictorBits|TestTrainConfigsBitIdenticalToTrain' ./internal/sensitivity/
go test -count=1 -run 'TestSolveMatchesFitOnProjectedRows|TestGramAddAllocationFree' ./internal/regress/
go test -count=1 -run 'TestBudgetedNestedSweepBitIdentical|TestEnvBudgetSplitSuiteBitIdentical' .
go test -count=1 -run 'TestMinAllocationFree' ./internal/sweep/
go test -count=1 -run 'TestCachedBitIdenticalToUncached|TestPreparedBitIdenticalToRun' ./internal/simcache/
go test -count=1 -run 'TestConfigIndexMatchesConfigSpace|TestConfigIndexOffGrid' ./internal/hw/
go test -count=1 -run 'TestCachedRunBitIdentical|TestFaultedRunBypassesCache' .
make soak SOAK_ITERS="${SOAK_ITERS:-4}"
sh scripts/bench.sh
