#!/usr/bin/env bash
# Builds the tree under a sanitizer configuration and runs the
# fault-tolerance test suite there (the failure paths exercised by fault
# injection are exactly where memory bugs like to hide), the checkpoint
# decoder sweep (forged input is where parsers overrun), the
# register-blocked kernel tests, CPE operators and network forward alike
# (blocked loops with ragged tails are where out-of-bounds reads hide),
# plus every TET energy backend and the EAM event catalog (the site
# kernels write the hop-local row layout the reduction indexes), the
# energy and force trainers (a training step runs the same kernel over
# transposed gradients with per-sample atom counts), and the vacancy
# cache (each rank's cache is patched from hops, folds and ghost slabs).
#
# The sanitizer set comes from TKMC_SANITIZE (semicolon-separated, the
# same list CMake consumes) and defaults to ASan+UBSan. Each flavor gets
# its own build directory so switching sets never mixes cached flags:
#
#   scripts/run_sanitized.sh                        # asan+ubsan, FT + kernels
#   scripts/run_sanitized.sh all                    # asan+ubsan, whole suite
#   TKMC_SANITIZE=thread scripts/run_sanitized.sh   # TSan, FT + kernels
#   scripts/run_sanitized.sh <regex>                # custom ctest -R filter
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS=${TKMC_SANITIZE:-"address;undefined"}
FLAVOR=$(echo "$SANITIZERS" | tr ';,' '--')
BUILD_DIR=${BUILD_DIR:-build-sanitized/$FLAVOR}
FILTER=${1:-"fault_injection|checkpoint|remote_store|decoder_sweep|sim_comm|ghost_exchange|parallel_engine|rank_failure|threaded_engine|network|conv_stack|bigfusion|feature_operator|sunway|batch_pipeline|nnp_energy_model|bond_counting|eam|event_catalog|tet_energy_model|trainer|force_trainer|vacancy_cache"}

echo "==> sanitized build: TKMC_SANITIZE=$SANITIZERS ($BUILD_DIR)"
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTKMC_SANITIZE="$SANITIZERS" \
  -DTKMC_BUILD_BENCH=OFF \
  -DTKMC_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j

cd "$BUILD_DIR"
# Note: ctest's bare `-j` greedily consumes the next argument, which
# used to swallow `-R` and silently run the whole suite; always pass an
# explicit parallel level.
if [ "$FILTER" = "all" ]; then
  ctest --output-on-failure -j "$(nproc)"
else
  ctest --output-on-failure -j "$(nproc)" -R "$FILTER"
fi
