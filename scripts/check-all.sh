#!/usr/bin/env sh
# check-all: the full verification matrix in one command.
#
# Chains the three CMake workflow presets — a workflow preset can only
# carry one configure step, so the matrix lives here:
#
#   check-default   configure + build + the whole ctest suite (RelWithDebInfo)
#   check-asan      configure + build + sweep/obs/mc/fuzz/fdqos/prof/scale/oracle-labeled ctest under ASan/UBSan
#   check-tsan      configure + build + sweep/obs/mc/fuzz/fdqos/prof/scale/oracle-labeled ctest under TSan
#
# (the mc label covers the model checker's parallel-frontier determinism
# suite, fuzz covers the schedule fuzzer's engine/minimizer/corpus
# suites, fdqos covers the timing-aware scheduler mode plus the
# heartbeat-implemented detectors, prof covers the hot-path profiling
# probes and the trend/regression engine, and scale covers the wide
# ProcessSet boundaries plus the incremental QuorumHistory equivalence
# oracle, and oracle covers the detector-class property sweep and the
# window memo's check against the stateless draw — all worth re-running
# under the sanitizers, the scale suite especially because the
# heap-spilled set words are fresh allocator traffic), then runs the
# quick throughput baselines plus the 10s fuzz smoke campaign
# (scripts/bench-quick.sh) so a perf regression in the simulation core or
# a lost rediscovery in the fuzzer shows up in the same pass, and finally
# the informational bench-trend target (last-two-ledger-entries diff per
# series; never fails the build).
#
# Usage: scripts/check-all.sh   (from the repo root)
set -e
cd "$(dirname "$0")/.."
for wf in check-default check-asan check-tsan; do
  echo "==> cmake --workflow --preset $wf"
  cmake --workflow --preset "$wf"
done
echo "==> scripts/bench-quick.sh"
scripts/bench-quick.sh
echo "==> bench-trend (informational)"
cmake --build build --target bench-trend
echo "==> check-all: all workflows passed"
