#!/usr/bin/env sh
# bench-quick: the scaled-down throughput baselines.
#
# Builds and runs bench_hotpath with NUCON_HOTPATH_QUICK=1 (small seed
# counts and step budgets), emitting build/BENCH_hotpath.json: steps/sec
# and delivers/sec per registry algorithm, bytes-copied-per-broadcast for
# the shared-payload regression check, the sweep-engine throughput
# section, and the H4 wide-set scaling rows (quick mode keeps the n=64
# row, one scaling point beyond H3). Then runs bench_model with
# NUCON_MODEL_QUICK=1, emitting
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
# Every report is checked against the schema as it is written
# (obs::write_report_json refuses a document that fails validation, and
# the bench exits nonzero). The timings are single samples for reading,
# not for comparing: perfbench/ is where two builds' timings are compared.
# The script writes only under build/; it modifies no tracked file.
#
# Usage: scripts/bench-quick.sh   (from the repo root)
set -e
cd "$(dirname "$0")/.."
cmake --preset default
cmake --build --preset bench-quick
cmake --build --preset fuzz-smoke
echo "==> bench-quick: wrote build/BENCH_hotpath.json, build/BENCH_model.json, build/BENCH_fdqos.json and build/BENCH_fuzz.json"
