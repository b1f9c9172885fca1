#!/usr/bin/env bash
# Tier-1 verification: the full build + test suite, then the
# concurrent code re-built and re-run under ThreadSanitizer (the
# thread pool, plan cache, exec guards, query service, the
# live-ingestion path: pinned snapshot readers racing single-writer
# publishes, ranked/aggregate statements racing live ingest, and the
# network server: epoll loop vs. worker-pool
# completions vs. ingest thread), then the robustness/fault-injection
# and malformed-network-input suites re-run under
# AddressSanitizer+UBSan (injected faults and garbage bytes exercise
# the error and degraded paths, where leaks and lifetime bugs like to
# hide), then the durability crash matrix (scripts/crash_matrix.sh):
# the WAL fault-point suites under ASan plus a real qdb_server
# SIGKILL/recovery sweep at shard counts {1,2,4}.
#
#   bash scripts/tier1.sh [jobs] [--bench-gate]
#
# --bench-gate additionally runs the Release+LTO benchmarks and gates
# them against the committed baselines/BENCH_queries.json via
# scripts/bench_gate.py (>15% p50 regression fails). Opt-in because a
# full bench run costs minutes and its numbers are only meaningful on
# an otherwise idle machine.

set -euo pipefail
cd "$(dirname "$0")/.."
jobs=""
bench_gate=0
for arg in "$@"; do
  if [[ "$arg" == "--bench-gate" ]]; then
    bench_gate=1
  elif [[ -z "$jobs" && "$arg" =~ ^[0-9]+$ ]]; then
    jobs="$arg"
  else
    echo "usage: bash scripts/tier1.sh [jobs] [--bench-gate]" >&2
    exit 2
  fi
done
jobs="${jobs:-$(nproc)}"

cmake -B build -S .
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

cmake -B build-tsan -S . -DSGMLQDB_SANITIZE=thread
cmake --build build-tsan -j "$jobs" --target service_test sharded_test algebra_test ingest_test net_test text_test rank_test
ctest --test-dir build-tsan --output-on-failure -R '^ServiceTest|ThreadPool|PlanCache|QueryService|OptimizeParity|OptimizeShape|ParallelUnion|IngestTest|SnapshotIsolation|ServerTest|PostingsRoundtrip|GallopingParity|PostingsCow|ShardedIngestRace|ShardedParity|RankIngestRace|RankParity'

cmake -B build-asan -S . -DSGMLQDB_SANITIZE=address,undefined
cmake --build build-asan -j "$jobs" --target base_test service_test sharded_test sgml_test property_test net_test rank_test text_test ingest_test
ctest --test-dir build-asan --output-on-failure -R '^ExecGuard|FaultInjection|QueryService|DocumentParser|OqlFuzz|ServerTest|HttpParser|FrameParser|JsonParse|ShardedStoreTest|ShardedIngestTest|RankOql|RankRecovery|PostingsSplice|IndexRemoval|IngestTest'

# Durability crash matrix: WAL fault-point x kill-point sweep. Reuses
# the build-asan tree above for the in-process fault matrix, then
# SIGKILLs a live qdb_server --data-dir at shard counts {1,2,4} and
# asserts recovery reproduces every acked batch byte-for-byte.
bash scripts/crash_matrix.sh "$jobs"

# Release smoke: the optimized build is what benches and deployments
# run, and NDEBUG both compiles out the postings Append asserts and
# changes inlining enough to surface its own bugs. Build the text +
# algebra stacks Release and re-run their suites.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON
cmake --build build-release -j "$jobs" --target text_test algebra_test
ctest --test-dir build-release --output-on-failure \
  -R '^IndexTest|IndexEdgeTest|NearTest|PatternTest|RegexTest|TokenizeTest|PostingsRoundtrip|GallopingParity|PostingsCow|AlgebraTest|OpsTest|OptimizeParity|OptimizeShape|ParallelUnion'

# Opt-in benchmark regression gate against the committed baseline
# (scripts/bench.sh refuses non-Release builds and re-validates every
# emitted JSON; bench_gate.py fails on >15% p50 regression).
if [[ "$bench_gate" -eq 1 ]]; then
  bash scripts/bench.sh "$jobs" --baseline baselines/BENCH_queries.json
fi
