#!/usr/bin/env bash
# Repo health check: configure + build, then run the tier-1 suite and the
# fault-injection suite (label "fault") separately so a reliability
# regression is distinguishable from a functional one.
#
# Usage: scripts/check.sh [--asan] [--tsan] [--bench-smoke] [--obs-smoke]
#                         [--soak]
#   --asan         build/test the asan preset instead of default
#   --tsan         build the tsan preset and run only the concurrency-
#                  sensitive labels (runtime|aggregation|flowcontrol|
#                  memory|membership|combine|cache|actor|sort) — the
#                  scheduler, aggregation pipeline, flow control, memory
#                  reclamation, the failure detector, the combining
#                  table, the cache/futures machinery, the actor
#                  mailboxes and the scan/shuffle cursor races of the
#                  histogram-sort are where data races would live
#   --bench-smoke  also run the perf-smoke benches (short task-pool
#                  concurrency sweep; emits BENCH_*.json perf records)
#   --obs-smoke    also run the observability smoke (traced BFS through
#                  gmt_cli; validates trace JSON and the stats report)
#   --soak         also run the kill-a-node-mid-BFS membership soak 20x
#                  with rotating victims, kill points and graph seeds,
#                  then the kill-a-node-mid-sort test 20x
set -euo pipefail
cd "$(dirname "$0")/.."

preset=default
bench_smoke=0
obs_smoke=0
soak=0
for arg in "$@"; do
  case "$arg" in
    --asan) preset=asan ;;
    --tsan) preset=tsan ;;
    --bench-smoke) bench_smoke=1 ;;
    --obs-smoke) obs_smoke=1 ;;
    --soak) soak=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

jobs=$(nproc 2>/dev/null || echo 2)

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$jobs"

builddir=build
[[ "$preset" == "asan" ]] && builddir=build-asan
[[ "$preset" == "tsan" ]] && builddir=build-tsan

if [[ "$preset" == "tsan" ]]; then
  echo "== thread-sanitized concurrency tests =="
  ctest --test-dir "$builddir" \
    -L 'runtime|aggregation|flowcontrol|memory|membership|combine|cache|actor|sort' \
    --output-on-failure
  exit 0
fi

echo "== tier-1 tests =="
ctest --test-dir "$builddir" -LE 'fault|perf-smoke|obs-smoke' --output-on-failure -j "$jobs"

echo "== memory lifecycle tests =="
ctest --test-dir "$builddir" -L memory --output-on-failure

echo "== fault-injection tests =="
ctest --test-dir "$builddir" -L fault --output-on-failure

echo "== membership tests =="
ctest --test-dir "$builddir" -L membership --output-on-failure

echo "== source-side combining tests =="
ctest --test-dir "$builddir" -L combine --output-on-failure

echo "== cache / futures tests (incl. cached-BFS smoke) =="
ctest --test-dir "$builddir" -L cache --output-on-failure

echo "== actor/mailbox tests (incl. kill-mid-service battery) =="
ctest --test-dir "$builddir" -L actor --output-on-failure

echo "== histogram-sort / scan tests =="
ctest --test-dir "$builddir" -L sort --output-on-failure

if [[ "$soak" == 1 ]]; then
  echo "== membership soak: kill-a-node-mid-BFS x20 =="
  for i in $(seq 0 19); do
    victim=$((1 + i % 2))
    if GMT_FAULT_KILL_NODE=$victim \
       GMT_FAULT_KILL_AT=$((50 + i * 97)) \
       GMT_FAULT_SEED=$((24049 + i)) \
       "$builddir/tests/test_membership" --gtest_filter='*KillMidBfs*' \
       > /dev/null 2>&1; then
      echo "  iteration $i ok (victim=$victim)"
    else
      echo "  iteration $i FAILED (victim=$victim); re-run with:" >&2
      echo "  GMT_FAULT_KILL_NODE=$victim GMT_FAULT_KILL_AT=$((50 + i * 97)) \\" >&2
      echo "  GMT_FAULT_SEED=$((24049 + i)) $builddir/tests/test_membership \\" >&2
      echo "  --gtest_filter='*KillMidBfs*'" >&2
      exit 1
    fi
  done

  echo "== histogram-sort soak: kill-a-node-mid-sort x20 =="
  for i in $(seq 0 19); do
    if "$builddir/tests/test_sort" \
       --gtest_filter='Sort.KillMidSortRecoversExactly' > /dev/null 2>&1; then
      echo "  iteration $i ok"
    else
      echo "  iteration $i FAILED; re-run with:" >&2
      echo "  $builddir/tests/test_sort \\" >&2
      echo "  --gtest_filter='Sort.KillMidSortRecoversExactly'" >&2
      exit 1
    fi
  done
fi

if [[ "$bench_smoke" == 1 ]]; then
  echo "== perf-smoke benches =="
  ctest --test-dir "$builddir" -L perf-smoke --output-on-failure
fi

if [[ "$obs_smoke" == 1 ]]; then
  echo "== observability smoke =="
  ctest --test-dir "$builddir" -L obs-smoke --output-on-failure
fi
