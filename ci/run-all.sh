#!/usr/bin/env bash
# The CI entry point: every gating job in one command.
#
# Runs, in order:
#   1. the tier-1 build + test suite (Release),
#   2. the engine-performance smoke against the committed baseline
#      (ci/bench-smoke.sh — catches hot-path regressions and a
#      broken scheduler wakeup protocol),
#   3. the serve soak smoke (ci/soak-smoke.sh — CLI-level
#      checkpoint/restore byte identity under a fault campaign
#      with concurrent planned maintenance),
#   4. the crash-injection torture sweep (ci/crash-torture.sh —
#      supervised crash/stall/mid-checkpoint-write recovery must
#      reproduce the uninterrupted stream byte-for-byte),
#   5. the ThreadSanitizer sweep job (ci/tsan-sweep.sh),
#   6. the ThreadSanitizer engine job (ci/tsan-engine.sh — the
#      sharded parallel engine's byte-identity suite and saturated
#      soak; shares the sanitizer build with the sweep job),
#   7. the AddressSanitizer fault soak (ci/asan-fault-soak.sh),
#   8. the repository benchmark's determinism self-test
#      (perfbench/selftest.py — every simulated result of every
#      workload must be identical across repetitions, tenants and
#      traced/untraced runs, so a host-only change that perturbs a
#      simulated result fails here).
#
# Pass --quick to run only the tier-1 suite, the bench smoke, the
# serve soak, a one-point-per-mode torture subset and the benchmark
# self-test (the sanitizer jobs rebuild the world and dominate wall
# clock).
#
# Usage: ci/run-all.sh [--quick]

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
fi

echo "==> tier-1: build + ctest"
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-ci -j "$(nproc)"
ctest --test-dir build-ci --output-on-failure -j "$(nproc)"

echo "==> bench smoke (committed baseline: BENCH_engine.json)"
ci/bench-smoke.sh build-ci

echo "==> serve soak smoke (checkpoint/restore byte identity)"
ci/soak-smoke.sh build-ci

if [[ "$QUICK" == "1" ]]; then
    echo "==> crash torture (quick subset)"
    ci/crash-torture.sh build-ci --quick
else
    echo "==> crash torture (full sweep)"
    ci/crash-torture.sh build-ci
fi

if [[ "$QUICK" == "0" ]]; then
    echo "==> tsan sweep"
    ci/tsan-sweep.sh
    echo "==> tsan engine"
    ci/tsan-engine.sh
    echo "==> asan fault soak"
    ci/asan-fault-soak.sh
fi

echo "==> benchmark self-test (simulated results are deterministic)"
python3 perfbench/selftest.py

echo "==> all CI jobs passed"
