#!/usr/bin/env bash
# Build the test suite under ThreadSanitizer and run the kernel /
# frontier consistency tests in every frontier mode. Simulator-backed
# suites (*Sim*) are excluded: SimExecutor schedules fibers with
# ucontext swaps, which TSan cannot track (it sees one OS thread's
# stack "jumping" and reports false positives). Logical races on the
# simulated path are covered instead by the dynamic race detector
# (src/analysis, race_detector_test). The native-executor tests are
# the ones with real data races to find, and they cover all frontier
# modes.
#
# Suppressions come from scripts/suppressions/tsan.supp. The same
# justification contract as the detector allowlist is enforced here
# structurally: every suppression directive must be immediately
# preceded by a non-empty '#' comment block, or this script fails
# before running anything.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
SUPP_FILE="scripts/suppressions/tsan.supp"

# --- Validate the suppression file: entries need justifications. ----
awk '
    /^[[:space:]]*$/ { pending = 0; next }          # blank detaches
    /^[[:space:]]*#/ {                               # comment line
        line = $0; sub(/^[[:space:]]*#[[:space:]]*/, "", line)
        if (line != "") pending = 1
        next
    }
    {
        if (!pending) {
            printf "%s:%d: suppression \"%s\" has no justification " \
                   "comment — explain why the race is acceptable\n", \
                   FILENAME, FNR, $0 > "/dev/stderr"
            bad = 1
        }
        pending = 0
    }
    END { exit bad }
' "$SUPP_FILE"
echo "== $SUPP_FILE: all entries justified =="

cmake -B "$BUILD_DIR" -S . -DCRONO_SANITIZE=tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
TARGETS="frontier_test kernels_path_test kernels_search_test \
         kernels_processing_test kernels_consistency_test runtime_test \
         par_equivalence_test cc_hook_test"
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" --target $TARGETS -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 \
suppressions=$(pwd)/$SUPP_FILE"
status=0
for t in $TARGETS; do
    bin="$(find "$BUILD_DIR" -name "$t" -type f | head -n 1)"
    echo "== TSan: $t =="
    if ! "$bin" --gtest_filter='-*Sim*' --gtest_brief=1; then
        status=1
    fi
done
exit "$status"
