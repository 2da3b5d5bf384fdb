#!/usr/bin/env sh
# check-all: the full verification matrix in one command.
#
# Chains the four CMake workflow presets — a workflow preset can only
# carry one configure step, so the matrix lives here:
#
#   check-default   configure + build + the whole ctest suite (RelWithDebInfo)
#   check-debug     configure + build + the whole ctest suite (Debug)
#   check-asan      configure + build + sweep/obs/mc/fuzz/fdqos/prof/scale/oracle/dag/sim/core/util/algo-labeled ctest under ASan/UBSan
#   check-tsan      configure + build + sweep/obs/mc/fuzz/fdqos/prof/scale/oracle/dag/sim/core/util/algo-labeled ctest under TSan
#
# (check-debug is the one run without NDEBUG, so the assert-only checks
# execute there: QuorumHistory's cache against the quadratic recompute,
# DagCore's kept fair-chain walk against a fresh walk on every call, the
# scheduler's FIFO-order and shard-sum checks, MessageBuffer's
# send-order check, the decode slot's same-byte-range check.)
#
# (the mc label covers the model checker's parallel-frontier determinism
# suite, fuzz covers the schedule fuzzer's engine/minimizer/corpus
# suites, fdqos covers the timing-aware scheduler mode plus the
# heartbeat-implemented detectors (the Omega election cases included,
# timed and untimed), prof covers the hot-path profiling
# probes and the report writer, and scale covers the wide
# ProcessSet boundaries plus the incremental QuorumHistory equivalence
# oracle, oracle covers the detector-class property sweep and the
# window memo's check against the stateless draw, and dag covers the
# sample-DAG suites, whose gossip decoder reads untrusted bytes, and sim
# covers the executors that step through the step kernel (scheduler,
# replay, Lemma 2.2 merging, the hand-driven register runs) and the
# stacked automata that share a link through ChannelMux (the no-oracle
# from-scratch stack among them), and core covers
# A_nuc and its quorum history, whose row decoder reads untrusted bytes
# (quorum_history, anuc, contamination, the shared-decode differential
# and the hermetic-heap suites), and util covers the byte codec and the
# other utility suites (process sets, rng, detector values, stats,
# failure patterns, trace), and algo covers the baseline algorithms whose
# readers take payload views (MR, CT, Ben-Or), the replicated log, the
# reductions, the harness, the checkers and the state-contract suite
# (every registry algorithm against a twin restored from its save_state
# before each step) — together every suite, all
# worth re-running under the sanitizers, the scale suite especially because the
# heap-spilled set words are fresh allocator traffic), then runs the
# quick throughput baselines plus the 10s fuzz smoke campaign
# (scripts/bench-quick.sh), so a bench that crashes or writes a report
# that fails the schema, or a lost rediscovery in the fuzzer, shows up in
# the same pass. Timings are compared between builds only by perfbench/.
#
# Usage: scripts/check-all.sh   (from the repo root)
set -e
cd "$(dirname "$0")/.."
for wf in check-default check-debug check-asan check-tsan; do
  echo "==> cmake --workflow --preset $wf"
  cmake --workflow --preset "$wf"
done
echo "==> scripts/bench-quick.sh"
scripts/bench-quick.sh
echo "==> check-all: all workflows passed"
