#!/usr/bin/env bash
# Sanitizer smoke: configure an ASan+UBSan build (-DDDNN_SANITIZE=ON) in a
# nested build directory, build the distributed-runtime test binaries and run
# them with halt-on-error semantics. Catches memory errors and UB that the
# optimized tier-1 build would silently tolerate — especially in the
# fault-injection paths, which exercise drop/retry/degraded routes the happy
# path never takes, and in the dataset renderer, which writes canvases
# through raw row pointers — and in the served hierarchy (test_serve), whose
# cloud and edge roles run on threads over loopback sockets. A second,
# ThreadSanitizer build runs test_engine, test_obs, test_timeseries,
# test_planner and test_serve with a four-thread pool: the threaded kernels,
# their per-thread scratch and the double-checked packed-weight cache; the
# counter and HDR shard merges across pool workers, the exemplar CAS and
# concurrent metric registration; concurrent ledger appenders; the
# retired-section log that pool workers read while the caller destroys
# models; and three serving roles sharing one process.
#
# Usage: check_sanitizers.sh <source-dir> [build-dir] [tsan-build-dir]
set -euo pipefail

src="${1:?usage: check_sanitizers.sh <source-dir> [build-dir]}"
build="${2:-${src}/build-asan}"
tsan_build="${3:-${src}/build-tsan}"

cmake -S "${src}" -B "${build}" -DDDNN_SANITIZE=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${build}" -j --target test_fault test_dist test_transport \
  test_engine test_obs test_planner test_data test_serve >/dev/null

# Leak checking needs ptrace, which containers often deny; the point here is
# heap/stack corruption and UB, so keep leaks off and halt on everything else.
export ASAN_OPTIONS="detect_leaks=0:abort_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

for bin in test_fault test_dist test_transport test_engine test_obs \
    test_planner test_data test_serve; do
  echo "== sanitizers: ${bin}"
  "${build}/tests/${bin}" --gtest_brief=1
done

# Poisoned arenas under the sanitizers: every replayed section runs against
# signaling-NaN-filled storage, so reads of unwritten or recycled workspace
# bytes break bit-parity instead of passing silently.
echo "== sanitizers: DDNN_POISON=1 test_planner"
DDNN_POISON=1 "${build}/tests/test_planner" --gtest_brief=1
echo "== sanitizers: DDNN_POISON=1 test_engine (parity grid, max pool)"
DDNN_POISON=1 "${build}/tests/test_engine" --gtest_brief=1 \
  --gtest_filter='*EngineParity*:*MaxPool*'

# Data races: ThreadSanitizer cannot share a build with ASan, so it gets its
# own tree, configured through the compiler flags alone.
cmake -S "${src}" -B "${tsan_build}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
cmake --build "${tsan_build}" -j --target test_engine test_obs \
  test_timeseries test_planner test_serve >/dev/null
for bin in test_engine test_obs test_timeseries test_planner test_serve; do
  echo "== tsan: DDNN_THREADS=4 ${bin}"
  TSAN_OPTIONS="halt_on_error=1" DDNN_THREADS=4 \
    "${tsan_build}/tests/${bin}" --gtest_brief=1
done
echo "sanitizer smoke passed (ASan+UBSan and TSan clean)"
