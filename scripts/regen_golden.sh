#!/bin/sh
# Regenerate the golden cycle corpus (tests/golden/cycles.jsonl) from the
# simulator in BUILD_DIR. This is the only supported way to rewrite
# tests/golden/: review the resulting diff and commit it with the change
# that moved the simulated results.
#
#   sh scripts/regen_golden.sh build
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
build=$1
root=$(cd "$(dirname "$0")/.." && pwd)

cmake --build "$build" --target golden_cycles_test
LBA_GOLDEN_REGEN=1 "$build/golden_cycles_test" \
    --gtest_filter=GoldenCycles.MatchesCorpus
"$build/golden_cycles_test"
git -C "$root" diff --stat -- tests/golden/ || true
