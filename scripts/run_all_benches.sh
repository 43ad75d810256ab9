#!/usr/bin/env sh
# Run the full paper-reproduction benchmark suite and save each bench's
# output under <build-dir>/bench-results/.
#
# Usage: scripts/run_all_benches.sh [build-dir]
# Scale with LBA_BENCH_INSTRS (dynamic instructions per benchmark;
# default 250k — see docs/BENCHMARKS.md). With LBA_BENCH_SMOKE=1 a
# missed claim check is reported but does not fail the run (small
# instruction budgets legitimately miss paper targets before
# predictors and caches warm up) — CI uses this to keep the
# BENCH_results.json trajectory accumulating on every push.
# LBA_BENCH_CLAIMS_FATAL=1 overrides that forgiveness: a missed claim
# fails the run even in smoke mode — for claims that hold at any
# instruction budget (orderings like fig_mte's BoundsCheck-below-
# AddrCheck overhead, which compare lifeguards on the same input).
set -eu

build_dir="${1:-build}"
if [ ! -d "$build_dir" ]; then
    echo "error: build dir '$build_dir' not found (run cmake first)" >&2
    exit 1
fi

out_dir="$build_dir/bench-results"
mkdir -p "$out_dir"
# Drop stale machine-readable results so BENCH_results.json only ever
# reflects this run (a bench removed or skipped since the last run
# must not leak its old numbers into the merge below).
rm -f "$out_dir"/*.json

# Discover the suite from bench/*.cc so a new bench is picked up
# automatically; bench_common is the shared library, micro_compressor
# is google-benchmark based and handled separately below.
script_dir="$(dirname "$0")"
benches=""
for src in "$script_dir/../bench/"*.cc; do
    name="$(basename "$src" .cc)"
    case "$name" in
    bench_common | micro_compressor) ;;
    *) benches="$benches $name" ;;
    esac
done

# Claim-checking benches (e.g. compression_ratio) exit non-zero when a
# paper target is missed — record that and keep going rather than
# aborting the suite. Targets can be missed at very small
# LBA_BENCH_INSTRS budgets before predictors/caches warm up.
failed=""
crashed=""
for bench in $benches; do
    if [ ! -x "$build_dir/$bench" ]; then
        echo "skip  $bench (not built)"
        continue
    fi
    echo "run   $bench"
    # --json is ignored by benches without machine-readable output.
    status=0
    "$build_dir/$bench" --json "$out_dir/$bench.json" \
        >"$out_dir/$bench.txt" || status=$?
    if [ "$status" -ge 126 ]; then
        # Signal death / exec failure, not a claim-check miss: never
        # forgiven, and the possibly-truncated JSON must not poison
        # the merge below.
        echo "CRASH $bench (exit $status; see $out_dir/$bench.txt)"
        rm -f "$out_dir/$bench.json"
        crashed="$crashed $bench"
    elif [ "$status" -ne 0 ]; then
        echo "FAIL  $bench (claim check missed; see $out_dir/$bench.txt)"
        failed="$failed $bench"
    fi
done

# google-benchmark based; present only when the library was found.
# Same crash classification as the discovered benches: a signal death
# must not abort the script (set -e) before the merge below.
if [ -x "$build_dir/micro_compressor" ]; then
    echo "run   micro_compressor"
    status=0
    "$build_dir/micro_compressor" \
        --benchmark_out="$out_dir/micro_compressor.json" \
        --benchmark_out_format=json \
        >"$out_dir/micro_compressor.txt" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "CRASH micro_compressor (exit $status)"
        rm -f "$out_dir/micro_compressor.json"
        crashed="$crashed micro_compressor"
    fi
fi

# Collect every machine-readable result into one document so the perf
# trajectory can be tracked commit over commit.
results="$build_dir/BENCH_results.json"
{
    printf '{"suite":"lba","results":['
    first=1
    for f in "$out_dir"/*.json; do
        [ -e "$f" ] || continue
        [ "$first" -eq 1 ] || printf ','
        first=0
        cat "$f"
    done
    printf ']}\n'
} >"$results"
echo "combined JSON in $results"

echo "results in $out_dir/"
if [ -n "$crashed" ]; then
    echo "benches crashed:$crashed" >&2
    exit 1
fi
if [ -n "$failed" ]; then
    echo "claim checks missed:$failed" >&2
    if [ "${LBA_BENCH_CLAIMS_FATAL:-}" = 1 ]; then
        echo "claims-fatal mode: failing the run" >&2
        exit 1
    fi
    if [ "${LBA_BENCH_SMOKE:-}" = 1 ]; then
        echo "smoke mode: not failing the run" >&2
        exit 0
    fi
    exit 1
fi
