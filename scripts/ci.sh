#!/usr/bin/env bash
# One-command PR gate: the tier-1 verify (default build + full ctest
# suite), the bench gate, a quick end-to-end benchmark run (its
# correctness checks) and the sanitized configurations
# (scripts/run_sanitized.sh: ASan+UBSan over the fault-tolerance suite,
# then a ThreadSanitizer smoke over the threaded-backend and concurrent-
# singleton tests). Exits non-zero the moment any configuration fails,
# so all of them gate every PR.
#
# Usage:
#   scripts/ci.sh            # tier-1 + sanitized fault-tolerance suite
#   scripts/ci.sh all        # tier-1 + the whole suite under sanitizers
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
SANITIZED_FILTER=${1:-}

echo "==> tier-1: configure + build (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j

echo "==> tier-1: ctest"
(cd "$BUILD_DIR" && ctest --output-on-failure -j)

echo "==> chaos soak: rank fail-stop drills (with blackbox decode smoke)"
scripts/chaos_soak.sh

echo "==> trap/detrap workload: examples/trap_detrap.tkmc under a rank kill"
TRAP_WORK=$(mktemp -d "${TMPDIR:-/tmp}/tkmc_trap.XXXXXX")
trap 'rm -rf "$TRAP_WORK"' EXIT
(cd "$TRAP_WORK" && timeout 120 "$OLDPWD/$BUILD_DIR/tools/tensorkmc" \
    -in "$OLDPWD/examples/trap_detrap.tkmc" \
    --inject comm.rank_kill=40 --inject-seed 7) > "$TRAP_WORK/log.txt" 2>&1
grep -q "event catalog: trap_detrap" "$TRAP_WORK/log.txt"
grep -q "survived 1 rank fail-stop" "$TRAP_WORK/log.txt" || {
  echo "ci.sh: trap_detrap deck did not survive the injected kill" >&2
  tail -20 "$TRAP_WORK/log.txt" >&2
  exit 1
}
echo "    trap_detrap survived the kill and resumed from its checkpoint"

echo "==> bench gate: regenerate gated benchmarks"
"$BUILD_DIR/bench/bench_delta_checkpoint"
"$BUILD_DIR/bench/bench_batch_pipeline"
"$BUILD_DIR/bench/bench_memory_footprint"
"$BUILD_DIR/bench/bench_threaded_scaling"
"$BUILD_DIR/bench/bench_fig11_serial"

echo "==> bench gate: compare against bench/baselines (scripts/bench_gate.py)"
python3 scripts/bench_gate.py \
  BENCH_delta_checkpoint.metrics.json \
  BENCH_batch_pipeline.metrics.json \
  BENCH_memory_footprint.metrics.json \
  BENCH_threaded_scaling.metrics.json \
  BENCH_fig11_serial.metrics.json

echo "==> end-to-end benchmark smoke: NNP hop-energy checks, EAM goldens (bench/e2e)"
python3 bench/e2e/run.py --quick --build-dir "$BUILD_DIR/e2e"

echo "==> sanitized: TKMC_SANITIZE=address;undefined"
if [ -n "$SANITIZED_FILTER" ]; then
  scripts/run_sanitized.sh "$SANITIZED_FILTER"
else
  scripts/run_sanitized.sh
fi

echo "==> sanitized: TKMC_SANITIZE=thread (threaded backend smoke)"
TKMC_SANITIZE=thread scripts/run_sanitized.sh \
  "threaded_engine|parallel_engine|ghost_exchange|subdomain|sim_comm|fault_injection|flight_recorder|telemetry|remote_store|retry|vacancy_cache|sunway_energy_model"

echo "==> sanitized: trap/detrap deck on the TSan-built CLI"
TSAN_BIN=build-sanitized/thread/tools/tensorkmc
TRAP_TSAN=$(mktemp -d "${TMPDIR:-/tmp}/tkmc_trap_tsan.XXXXXX")
(cd "$TRAP_TSAN" && timeout 300 "$OLDPWD/$TSAN_BIN" \
    -in "$OLDPWD/examples/trap_detrap.tkmc") > "$TRAP_TSAN/log.txt" 2>&1 || {
  echo "ci.sh: trap_detrap deck failed under TSan" >&2
  tail -30 "$TRAP_TSAN/log.txt" >&2
  rm -rf "$TRAP_TSAN"
  exit 1
}
rm -rf "$TRAP_TSAN"
echo "    trap_detrap threaded run clean under TSan"

echo "==> sanitized: remote node-loss recovery drill on the TSan-built CLI"
# The ShardStreamer worker runs concurrently with commits, recovery, and
# the fault injector; this drill exercises the whole stream -> node loss
# -> remote heal -> resume path with TSan watching the handoffs.
REMOTE_TSAN=$(mktemp -d "${TMPDIR:-/tmp}/tkmc_remote_tsan.XXXXXX")
(cd "$REMOTE_TSAN" && timeout 300 "$OLDPWD/$TSAN_BIN" \
    -in "$OLDPWD/tools/chaos_remote_deck.tkmc" \
    --inject comm.rank_kill=44 --inject-seed 11) \
    > "$REMOTE_TSAN/log.txt" 2>&1 || {
  echo "ci.sh: remote chaos deck failed under TSan" >&2
  tail -30 "$REMOTE_TSAN/log.txt" >&2
  rm -rf "$REMOTE_TSAN"
  exit 1
}
grep -q "survived 1 rank fail-stop" "$REMOTE_TSAN/log.txt"
rm -f "$REMOTE_TSAN"/chaos_ckpt/epoch_*/rank_1.tkc  # simulated node loss
(cd "$REMOTE_TSAN" && timeout 300 "$OLDPWD/$TSAN_BIN" \
    -in "$OLDPWD/tools/chaos_remote_resume_deck.tkmc") \
    > "$REMOTE_TSAN/resume_log.txt" 2>&1 || {
  echo "ci.sh: remote recovery resume failed under TSan" >&2
  tail -30 "$REMOTE_TSAN/resume_log.txt" >&2
  rm -rf "$REMOTE_TSAN"
  exit 1
}
grep -q "remote store: healed" "$REMOTE_TSAN/resume_log.txt" || {
  echo "ci.sh: TSan resume did not heal from the remote copy" >&2
  tail -20 "$REMOTE_TSAN/resume_log.txt" >&2
  rm -rf "$REMOTE_TSAN"
  exit 1
}
rm -rf "$REMOTE_TSAN"
echo "    remote node-loss recovery drill clean under TSan"

echo "==> ci.sh: all gates passed"
