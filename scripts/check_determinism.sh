#!/usr/bin/env bash
# Check that a multi-threaded search decides exactly what a serial one
# does: the same summary rows, the same decisions.jsonl and the same
# cache-hit count.
#
#   cargo build --release -p mixedprec && scripts/check_determinism.sh [RUNS] [COPIES]
#
# Runs `craft analyze cg s --lattice=s,b --shadow-prune --second-phase`
# once at --threads=1, then RUNS times (default 100) at --threads=2 in
# each of COPIES (default 2) parallel copies, so the workers also
# compete with another search for the cores. Every run's stdout (minus
# the wall time), its decisions.jsonl and the `cache_hits` of its
# `search_finished` event are diffed against the serial run's; one
# divergent run fails the check. BIN overrides the binary directory.
set -euo pipefail
cd "$(dirname "$0")/.."
BIN=${BIN:-target/release}
RUNS=${1:-100}
COPIES=${2:-2}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run NAME THREADS: one traced search into $out/NAME, its stdout minus
# the wall time in $out/NAME.txt (the run-directory notes go to stderr),
# and its cache-hit count in $out/NAME.hits
run() {
    "$BIN/craft" analyze cg s --lattice=s,b --shadow-prune --second-phase \
        --threads="$2" --trace="$out/$1" --registry="$out/registry-${1%%-*}" \
        2> "$out/$1.err" | grep -v '^search wall time' > "$out/$1.txt"
    grep '"ev":"search_finished"' "$out/$1/events.jsonl" |
        grep -o '"cache_hits":[0-9]*' > "$out/$1.hits"
}

run serial 1
copy() {
    local bad=0
    for i in $(seq "$RUNS"); do
        if ! run "c$1-$i" 2 ||
            ! diff "$out/serial.txt" "$out/c$1-$i.txt" >&2 ||
            ! diff "$out/serial/decisions.jsonl" "$out/c$1-$i/decisions.jsonl" > /dev/null ||
            ! diff "$out/serial.hits" "$out/c$1-$i.hits" >&2; then
            cat "$out/c$1-$i.err" >&2
            echo "copy $1, run $i diverged from --threads=1" >&2
            bad=$((bad + 1))
        fi
        rm -rf "$out/c$1-$i" "$out/c$1-$i".*
    done
    echo "$bad" > "$out/bad-$1"
}
for c in $(seq "$COPIES"); do
    copy "$c" &
done
wait
bad=0
for c in $(seq "$COPIES"); do
    bad=$((bad + $(cat "$out/bad-$c")))
done
echo "$bad of $((RUNS * COPIES)) --threads=2 runs diverged from --threads=1"
test "$bad" -eq 0
