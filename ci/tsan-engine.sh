#!/usr/bin/env bash
# Tier-1 TSan job for the sharded parallel engine.
#
# Builds the test suite with -DCMAKE_BUILD_TYPE=RelWithDebInfo and
# -fsanitize=thread (the METRO_TSAN toggle), then runs the shard
# suite — the byte-identity property tests, the plan-structure
# tests, the mid-campaign removal test, and the saturated
# multi-thread soak (which keeps every worker contending on shared
# boundary lanes) — plus the thread-parameterized quiescence
# equivalence tests, the tick-pool tests (including the growing-batch
# straggler stress test), the concurrent checkpoint-writer tests
# (four threads writing durable checkpoints at once), the router
# port-mask tests (masks are written at the 1b barrier, in the 1c
# serial section and by the drain fold, and read by the 1a parallel
# ticks) and the lane-arena tests (shards on pool threads push
# straight into lanes other shards read, and file drain events in
# per-shard wheels), under ThreadSanitizer. Any unsynchronized access
# in the tick pool, the deferred-activation exchange, the lane
# arena's cross-shard writes or drain wheels, the scratch-metrics
# flush, the port masks or the checkpoint write-fault hook fails the
# job.
#
# Usage: ci/tsan-engine.sh [build-dir]   (default: build-tsan)
# (Shares build-tsan with ci/tsan-sweep.sh by default: same
# toolchain flags, one sanitizer build.)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-tsan}"

cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMETRO_TSAN=ON
cmake --build "$BUILD" -j "$(nproc)" --target metro_tests
ctest --test-dir "$BUILD" --output-on-failure \
    -R 'Shard|QuiescenceAtThreads|Pool\.|ConcurrentCheckpointWriters|PortMasks\.|LaneArena\.'
