#!/usr/bin/env bash
# Check that a multi-threaded search records exactly what a serial one
# does: the same summary rows, the same events.jsonl and the same
# decisions.jsonl.
#
#   cargo build --release -p mixedprec && scripts/check_determinism.sh [RUNS] [COPIES]
#
# Runs `craft analyze cg s --lattice=s,b --shadow-prune --second-phase`
# once at --threads=1, then RUNS times (default 100) at --threads=2 in
# each of COPIES (default 2) parallel copies, so the workers also
# compete with another search for the cores. Every run's stdout (minus
# the wall time), its whole events.jsonl and its decisions.jsonl are
# diffed against the serial run's; one divergent run fails the check.
# BIN overrides the binary directory.
set -euo pipefail
cd "$(dirname "$0")/.."
BIN=${BIN:-target/release}
RUNS=${1:-100}
COPIES=${2:-2}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run NAME THREADS: one traced search into $out/NAME, its stdout minus
# the wall time in $out/NAME.txt (the run-directory notes go to stderr)
run() {
    "$BIN/craft" analyze cg s --lattice=s,b --shadow-prune --second-phase \
        --threads="$2" --trace="$out/$1" --registry="$out/registry-${1%%-*}" \
        2> "$out/$1.err" | grep -v '^search wall time' > "$out/$1.txt"
}

run serial 1
copy() {
    local bad=0
    for i in $(seq "$RUNS"); do
        if ! run "c$1-$i" 2 ||
            ! diff "$out/serial.txt" "$out/c$1-$i.txt" >&2 ||
            ! diff "$out/serial/events.jsonl" "$out/c$1-$i/events.jsonl" >&2 ||
            ! diff "$out/serial/decisions.jsonl" "$out/c$1-$i/decisions.jsonl" > /dev/null; then
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
