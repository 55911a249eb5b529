#!/usr/bin/env bash
# The repository's benchmark: build it, run one workload (or all six), print
# every metric by name with its unit, check the outputs.
#
#   benchmark/run.sh [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace 0|1 | --traced]
#   benchmark/run.sh --compare <a.json> <b.json>     # apply the bounds to two summaries
#   benchmark/run.sh --summarize <runs.jsonl>        # medians + quartiles per (workload, metric)
#
# Without --workload every workload runs, one process each (so peak RSS is
# per workload).  Results land in benchmark/out/: <workload>.json,
# <workload>.trace.jsonl (traced runs) and runs.jsonl (one line per run).
# The last line of standard output is the machine-readable result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
# The benchmark depends on the engine crates beside it; without them there
# is nothing to measure.
if [[ ! -f "$here/../crates/core/Cargo.toml" ]]; then
    echo "benchmark/run.sh: the engine sources (crates/) are missing next to benchmark/" >&2
    exit 3
fi

# A relative CARGO_TARGET_DIR is relative to the caller's directory for cargo
# and for us alike; default to the package's own target/.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$manifest" --target-dir "$target"
bin="$target/release/dw-benchmark"

export DW_BENCH_RUSTC="${DW_BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"
export DW_BENCH_COMMIT="${DW_BENCH_COMMIT:-$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)}"

case "${1:-}" in
--compare)
    exec "$bin" compare "${@:2}"
    ;;
--summarize)
    exec "$bin" summarize "${@:2}"
    ;;
esac

workload=""
args=()
while (($#)); do
    case "$1" in
    --workload)
        workload="${2:?--workload needs a name}"
        shift 2
        ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done

if [[ -n "$workload" ]]; then
    exec "$bin" run --workload "$workload" --out-dir "$here/out" "${args[@]}"
fi

status=0
for workload in svm_sparse_auto svm_sparse_hogwild ls_dense_auto qp_graph_col svm_sparse_coldstart serve_cotrain; do
    "$bin" run --workload "$workload" --out-dir "$here/out" "${args[@]}" || status=$?
done
exit "$status"
