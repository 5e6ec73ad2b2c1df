#!/usr/bin/env bash
# Regenerate every committed figure output `results/<name>.txt` with the
# `craft-bench` binary of the same name and diff it against the file.
#
#   cargo build --release -p craft-bench && scripts/check_results.sh
#
# `fig10_search_phase2.txt` is `fig10_search --second-phase`. Both
# fig10 files run with CRAFT_THREADS=1: a multi-threaded search can
# reorder ties (ROADMAP item 1). A file with no generator fails the
# check; none is skipped. Wall-clock measurements vary from run to run,
# so each file that prints one masks it by its own named rule below,
# on both sides of the diff. BIN overrides the binary directory.
set -euo pipefail
cd "$(dirname "$0")/.."
BIN=${BIN:-target/release}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

mask() {
    case "$1" in
        # The two wall-clock ratios; the modelled-cycle speedup stays.
        amg_speedup)
            sed -E 's/^((analysis overhead \(all-single run\)|  \(interpreter wall ratio, for reference\)) +)[0-9.]+X?$/\1<wall>/'
            ;;
        # The `wall` column of every bench row; `steps` stays.
        fig9_overhead)
            sed -E 's/^([a-z]+\.[A-Z] +)[0-9.]+X/\1<wall>/'
            ;;
        # The per-bench search time below the table.
        fig10_search | fig10_search_phase2)
            sed -E 's/elapsed: .*$/elapsed: <wall>/'
            ;;
        *) cat ;;
    esac
}

generate() {
    case "$1" in
        fig10_search) CRAFT_THREADS=1 "$BIN/fig10_search" ;;
        fig10_search_phase2) CRAFT_THREADS=1 "$BIN/fig10_search" --second-phase ;;
        *) "$BIN/$1" ;;
    esac
}

failed=()
for file in results/*.txt; do
    name=$(basename "$file" .txt)
    if ! generate "$name" > "$out/$name.txt" 2> "$out/$name.err"; then
        echo "results/$name.txt: generator failed" >&2
        cat "$out/$name.err" >&2
        failed+=("$name")
    elif ! diff -u --label "results/$name.txt" --label "regenerated" \
        <(mask "$name" < "$file") <(mask "$name" < "$out/$name.txt"); then
        failed+=("$name")
    fi
done
if ((${#failed[@]})); then
    echo "stale or unreproducible: ${failed[*]}" >&2
    exit 1
fi
echo "all $(ls results/*.txt | wc -l) results/*.txt files reproduce"
