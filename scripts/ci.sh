#!/usr/bin/env sh
# CI gate: static checks, full build + test, the race detector over the
# concurrency-bearing packages (the shared worker pool, the fl round
# engine, and the selection/aggregation code it calls into), and a 1x
# smoke run of the perf benchmarks so the bench code cannot rot.
#
# Usage: scripts/ci.sh  (from the repository root)
set -eux

# gofmt -l prints offending files; any output fails the gate.
test -z "$(gofmt -l .)"

go vet ./...
# The Go fallback kernels are the only ones off amd64: vet that build too
# (asmdecl, run by the plain vet above, checks the assembly's frames).
GOARCH=arm64 go vet ./...
# staticcheck when available: CI's lint job installs the version pinned
# in .github/workflows/ci.yml; local runs without the binary (offline
# dev boxes) stay green and rely on CI to lint.
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
fi
go build ./...
go test ./...
# cmd/flsim is in the race list for its loopback-TCP end-to-end runs of
# both multi-process topologies (the unsharded routed coordinator, and
# the sharded client-direct plane with its shard-served downlink
# fan-out); internal/wal for the durable control
# plane's log/snapshot machinery; internal/admin because its HTTP
# handlers run concurrently with the observer callbacks feeding them;
# internal/nn because the engine runs one network per worker at once;
# internal/sparse for the top-k kernel each engine worker runs on its own
# scratch, with FuzzTopKIntoLarge's seeds on every prefilter path.
go test -race ./internal/fl/... ./internal/sparse/... ./internal/gs/... ./internal/nn/... ./internal/par/... ./internal/transport/... ./internal/wal/... ./internal/admin/... ./cmd/flsim/...
# The selection differentials and range-reduction kernels (every
# aggregation entry point against the map reference, shard scratches
# reduced side by side), the blocked dense kernels (one network per
# engine worker) and the engine's own round pipeline promise the same
# bits at any parallelism: run their differentials — for internal/fl the
# golden trajectory table and the Workers grids — at more than one
# GOMAXPROCS, uncached.
go test -count=1 -cpu 1,2,4 ./internal/gs ./internal/nn ./internal/tensor ./internal/fl
# The purego build tag leaves out internal/tensor's AVX kernels and
# internal/sparse's AVX2 compaction: the golden trajectories, the kernel
# differentials and the top-k differentials must hold on the Go loops
# alone, so the fallback cannot rot behind the vector path.
go test -count=1 -tags purego ./internal/tensor ./internal/nn ./internal/sparse ./internal/fl
# The transport's differentials and hostile-input tables get the same
# treatment: every role's round is one shared body that each tier
# (lockstep at any staleness window, durable, population) reaches
# through its own links, so they must hold at real parallelism.
go test -count=1 -cpu 1,2,4 ./internal/transport
# The staleness window is every role's lockstep loop run W rounds deep
# (the coordinator decides and draws round m W steps before it seals it,
# as the engine does), so a W >= 1 run is a pure function of the seeds:
# its straggler, cap and ingest-order suites run repeatedly under the
# race detector at several GOMAXPROCS, where a scheduling dependence
# would show. One shard body serves all four shard tiers (lockstep,
# windowed, durable, population), so their hostile-input tables, the
# shard kill + fresh rejoin and the durable shard's re-seating ingest
# ride along; and one participant loop serves the client and the virtual
# host, so the mux and the hostile cohort table ride along too. So do
# the handshake readers, each running its accepted connections on their
# own goroutines: the classifying accept loops, the durable tier's one
# desk under both of its admit rules (Rejoin at the coordinator,
# DataHello at a durable shard), and the hostile-hello table over every
# reader of Hello and DataHello. Every coordinator tier enters through
# RunServerPeers, so its one refusal table, the hostile hellos and the
# bad-log resume refusals ride along. A fan-out downlink carries the
# frame its sender encoded once per round into a reused buffer, so its
# lifetime rule rides along too: the carried-frame tables, and
# TestRoutedWindowOutgrowsSocketBuffers, where the routed outboxes run
# furthest behind the coordinator over its frame slots, for clients and
# for a virtual host whose outbox carries each round's CohortAssign too
# (under a second a pass under -race on 2 cores: a small model over
# sockets with capped buffers).
go test -race -count=20 -cpu 1,2,4,8 -run 'Windowed|Staleness|RunDirectShardRejects|ShardKill|Desk|Mux|Cohort|QuantizedTrajectoryGrid|AcceptPeers|Hello|ServerConfigCheck|HostileHello|ResumeRejectsBadLog|CarriedFrame|RecvNeverCarriesFrame|RoutedWindowOutgrowsSocketBuffers' ./internal/transport
# The wire clients run the engine's own participant step (fl.Step) and
# every coordinator the engine's server step (fl.Server), so what proves
# the callers agree is the "same seed, same bytes" matrix
# (TestSameSeedSameBytes): every run spec against the engine at Workers 2
# and every wire deployment — routed and direct, over memory and TCP,
# the population roster at every window, the durable coordinator killed
# and resumed —
# each cell the engine's round events bit for bit or its committed
# refusal in testdata/matrix_refused.txt. It runs repeatedly under the
# race detector at several GOMAXPROCS.
go test -race -count=20 -cpu 1,2,4 -run 'SameSeedSameBytes' ./internal/transport
# The participant step's and the server step's contracts, the step's
# per-worker scratch, the engine's contention grids and its golden
# trajectories, repeated under the race detector. The golden table's
# window rows, each run at Workers 0 and 4, are the engine's only
# absolute pin of W >= 1 (a round's phase A overlapping earlier seals),
# so a scheduling dependence there would show as a moved hash. The seal
# fan-out grid runs the sum of B beside the settles at every worker
# count, window and strategy against the sequential run.
go test -race -count=5 -cpu 1,2,4 -run 'Step|PerWorker|UnderContention|ServerContract|EngineGolden|SealFanOut' ./internal/fl
# Chaos step: the crash-recovery and fault-injection matrices re-run
# under the race detector with -count=1 — an uncached execution on every
# push, so the recovery paths (coordinator killed at each WAL boundary,
# shard kill + fresh rejoin, seeded FaultConn modes, halt/resume, and
# the engine's churn schedules; the population tier's churn/dropout
# rounds are the matrix's fab/churn+dropout row above) are actually
# exercised rather than replayed from the test cache.
go test -race -count=1 \
  -run 'Crash|Rejoin|Resume|Retry|Fault|Flaky|Durable|Halt|Deadline|Torn|Corrupt|Churn' \
  ./internal/wal/... ./internal/transport/... ./internal/fl/... ./cmd/flsim/...
# Bounded fuzz of the top-k kernel against its heap oracle: the committed
# finds under internal/sparse/testdata/fuzz already ran as unit tests
# above (and their seeds under the race detector); this spends ten more
# seconds looking for new ones. FuzzTopKInto builds short vectors, where
# the full path runs; FuzzTopKIntoLarge tiles its input past the
# prefilter's size floor, so the sampled cut and its fallbacks run too.
go test ./internal/sparse -run '^$' -fuzz '^FuzzTopKInto$' -fuzztime 10s
go test ./internal/sparse -run '^$' -fuzz '^FuzzTopKIntoLarge$' -fuzztime 10s
# The prefilter's AVX2 compaction against its Go loop on arbitrary bit
# patterns, cuts, rooms and start offsets.
go test ./internal/sparse -run '^$' -fuzz '^FuzzCompact$' -fuzztime 10s
# The same for the dense-layer kernels: the vector kernels against the Go
# loops on arbitrary shapes and bit patterns.
go test ./internal/tensor -run '^$' -fuzz FuzzDenseKernels -fuzztime 10s
# The same for the server selection: every strategy's AggregateInto and
# SelectDirect (gs.Strategy, the one contract) against the map reference
# on arbitrary small inputs.
go test ./internal/gs -run '^$' -fuzz FuzzFABSelection -fuzztime 10s
# And the wire codec's receive path, seeded with the committed golden
# frames: arbitrary byte streams must never panic or over-read their
# payload, an accepted message must survive decode(encode(m)) bit for
# bit on every float, and its re-encoding must be a fixed point.
go test ./internal/transport -run '^$' -fuzz FuzzDecodeFrame -fuzztime 10s
# And the value block alone: arbitrary float lists, magnitude-sorted ones
# included, at every grid width and arbitrary scales must round-trip bit
# for bit, pack or go raw exactly as the per-value packing loop kept in
# the test file decides, and step-code only when that body is shorter.
go test ./internal/transport -run '^$' -fuzz FuzzValueBlock -fuzztime 10s
# And the int block alone: arbitrary int lists, dense and sparse
# ascending, repeated, descending and up to MaxUint32, must round-trip,
# pack when they do not strictly ascend, and take the Rice body, as a
# bit-at-a-time writer kept in the test file lays it out, exactly when it
# is strictly shorter than the gap body.
go test ./internal/transport -run '^$' -fuzz FuzzIntBlock -fuzztime 10s
# And the write-ahead log's reader: arbitrary bytes, as a log and as one
# well-framed record body, must never panic, must re-frame to the clean
# prefix they report, and a repairing Open must be idempotent.
go test ./internal/wal -run '^$' -fuzz '^FuzzWALReader$' -fuzztime 10s
# And the rng streams the snapshots record positions in: CountingSource,
# this package's copy of Go 1's source, at an arbitrary seed, position
# and number of draws, must equal rand.NewSource's stream bit for bit.
go test ./internal/wal -run '^$' -fuzz '^FuzzCountingSource$' -fuzztime 10s
# And its snapshot reader: arbitrary bytes, as a file and as one
# well-framed snapshot body, must never panic or allocate beyond the
# file, must fail as torn, corrupt or a run mismatch, and an accepted
# snapshot must re-write to the same bytes.
go test ./internal/wal -run '^$' -fuzz '^FuzzSnapshot$' -fuzztime 10s
# End-to-end smoke of the benchmark in BENCHMARK.json: 30 rounds of every
# workload over loopback TCP, PASS/FAIL on bit-identity with the fl.Run
# twin only (no timings are read).
bash bench/run.sh -check
# Bench smoke, one iteration each: keeps the benchmark code compiling
# AND executing without paying for real timings. The -bench patterns
# live once, in scripts/benchcheck's tracked table, and the run is
# cross-checked against BENCH_fl.json's checks — renaming a tracked
# benchmark fails here loudly instead of silently shrinking the smoke.
go run ./scripts/benchcheck -smoke

# Bench-regression gate (CI_BENCH=1): re-runs the tracked benchmarks at
# real iteration counts and fails on >25% ns/op or any allocs/op
# regression against the checks baselines in BENCH_fl.json.
if [ "${CI_BENCH:-0}" = "1" ]; then
  go run ./scripts/benchcheck
fi
