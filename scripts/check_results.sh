#!/usr/bin/env bash
# Regenerate every committed figure output `results/<name>.txt` with the
# `craft-bench` binary of the same name and diff it against the file.
#
#   cargo build --release -p craft-bench && scripts/check_results.sh
#
# `fig10_search_phase2.txt` is `fig10_search --second-phase`. Every file
# is generated at the default thread count; both fig10 files are then
# generated again with CRAFT_THREADS=1 and diffed against the same file,
# since a search decides from verdicts alone and its worker count must
# not change a row. A file with no generator fails the
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
        fig10_search) "$BIN/fig10_search" ;;
        fig10_search_phase2) "$BIN/fig10_search" --second-phase ;;
        *) "$BIN/$1" ;;
    esac
}

# check NAME [TAG]: regenerate results/NAME.txt and diff it against the
# committed file; TAG names the run in messages.
check() {
    local name=$1 tag=${2:-}
    if ! generate "$name" > "$out/$name.txt" 2> "$out/$name.err"; then
        echo "results/$name.txt$tag: generator failed" >&2
        cat "$out/$name.err" >&2
        failed+=("$name$tag")
    elif ! diff -u --label "results/$name.txt" --label "regenerated$tag" \
        <(mask "$name" < "results/$name.txt") <(mask "$name" < "$out/$name.txt"); then
        failed+=("$name$tag")
    fi
}

unset CRAFT_THREADS
failed=()
for file in results/*.txt; do
    check "$(basename "$file" .txt)"
done
export CRAFT_THREADS=1
check fig10_search " (CRAFT_THREADS=1)"
check fig10_search_phase2 " (CRAFT_THREADS=1)"
if ((${#failed[@]})); then
    echo "stale or unreproducible: ${failed[*]}" >&2
    exit 1
fi
echo "all $(ls results/*.txt | wc -l) results/*.txt files reproduce (fig10 also at CRAFT_THREADS=1)"
