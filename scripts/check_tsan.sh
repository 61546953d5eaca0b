#!/usr/bin/env bash
# ThreadSanitizer gate: builds the concurrent paths as Debug with
# PPRL_SANITIZE=thread into build-tsan/ and runs their tests. Called by
# scripts/check.sh and by the `tsan` CI job, so both race-check the same
# list.
#
# usage: scripts/check_tsan.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Concurrency tests: the batch compare path (run shards streamed through
# the work-stealing scheduler into the tiled kernels), the scheduler
# itself, the online engine and its durability layer, and the lock-free
# metrics registry they all report into. Scoped to those tests — TSan
# slows everything ~10x and the rest of the suite is single-threaded.
TSAN_TESTS=(comparison_test compare_kernels_test thread_pool_test
            parallel_pipeline_test metrics_test online_linkage_test
            wal_test recovery_test)
TSAN_BUILD_DIR=build-tsan
cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DPPRL_SANITIZE=thread
cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)" --target "${TSAN_TESTS[@]}"

export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}
TSAN_REGEX="^($(IFS='|'; echo "${TSAN_TESTS[*]}"))\$"
ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure -j "$(nproc)" \
  -R "${TSAN_REGEX}"
echo "check_tsan.sh: concurrency tests passed under TSan"

# Chaos gate: the fault-tolerant linkage service under TSan. Seeded fault
# injection forces connection loss, resumes and shedding across the
# daemon's accept/session/sweeper threads — exactly the interleavings
# TSan exists to check. Budgeted at 60 s so a deadlock in the resume or
# quorum path fails the gate instead of hanging it.
cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)" --target service_chaos_test
ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure --timeout 60 \
  -R '^service_chaos_test$'
echo "check_tsan.sh: chaos suite passed under TSan"
