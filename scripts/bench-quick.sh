#!/usr/bin/env sh
# bench-quick: the scaled-down throughput baselines.
#
# Builds and runs bench_hotpath with NUCON_HOTPATH_QUICK=1 (small seed
# counts and step budgets), emitting build/BENCH_hotpath.json: steps/sec
# and delivers/sec per registry algorithm, bytes-copied-per-broadcast for
# the shared-payload regression check, the sweep-engine throughput
# section, and the H4 wide-set scaling rows (quick mode keeps the n=64
# row so the ledger always carries one beyond-H3 scaling point). Then runs bench_model with NUCON_MODEL_QUICK=1, emitting
# build/BENCH_model.json: the model-checking engine exhausting the depth-8
# slice of the n=3 reference space (states/s, peak RSS, the dedup, POR and
# interning anatomy), with the determinism cross-checks (the depth 10 and
# 12 rows run when bench_model is invoked without the quick flag).
# Next comes bench_fdqos with NUCON_FDQOS_QUICK=1, emitting
# build/BENCH_fdqos.json: heartbeat <>S detection-time/mistake-rate
# tables, Omega stabilization under delay and skew, and the A_nuc
# decision-latency comparison of scripted vs measured Omega (see
# EXPERIMENTS.md "Implemented failure detectors & QoS").
# Finally chains the fuzz-smoke preset: a fixed-seed 10-second
# coverage-guided campaign against the naive Sigma^nu substitution that
# must rediscover and minimize the known nonuniform-agreement violation
# (nucon_fuzz exits nonzero otherwise), emitting build/BENCH_fuzz.json.
# See EXPERIMENTS.md "Throughput baseline", "Exhaustive model checking"
# and "Coverage-guided fuzzing".
#
# Afterwards nucon_bench collects every BENCH_*.json into
# build/BENCH_manifest.json (validating each against the report schema),
# appends the run to the committed bench/history/ledger.jsonl trend
# ledger, and prints the diff against the previous ledger entry
# (informational here; `nucon_bench check` without --informational is the
# gating flavor). See EXPERIMENTS.md "Profiling & trend tracking".
#
# Usage: scripts/bench-quick.sh   (from the repo root)
set -e
cd "$(dirname "$0")/.."
cmake --preset default
cmake --build --preset bench-quick
cmake --build --preset fuzz-smoke
echo "==> bench-quick: wrote build/BENCH_hotpath.json, build/BENCH_model.json, build/BENCH_fdqos.json and build/BENCH_fuzz.json"
cmake --build build --target nucon_bench
echo "==> nucon_bench manifest"
build/tools/nucon_bench manifest --out build/BENCH_manifest.json \
  build/BENCH_hotpath.json build/BENCH_model.json \
  build/BENCH_fdqos.json build/BENCH_fuzz.json
echo "==> nucon_bench record + trend check"
NUCON_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  build/tools/nucon_bench record --history bench/history \
  build/BENCH_hotpath.json build/BENCH_model.json \
  build/BENCH_fdqos.json build/BENCH_fuzz.json
build/tools/nucon_bench check --history bench/history --informational
