#!/usr/bin/env bash
# Split-and-merge drill (CI `chaos` job): one grid run as two hosts would.
#
# Half A and half B of a six-benchmark accuracy grid run side by side,
# each on two local slots with its own cache directory (its journal
# follows the cache directory).  One of half A's slot workers is
# SIGKILLed mid-grid and respawned; half B's whole coordinator (slot
# workers included, as when a host is lost) is SIGKILLed after at least
# one journaled cell and resumed from its journal.  The two cache
# directories are then copied together, and rerunning the full grid on
# the merged copy must compute nothing and print exactly what a clean
# serial run prints.
#
# Requires PYTHONPATH to reach the repro package (CI exports it).
set -euo pipefail
set -m  # each background job leads its own process group

WORKDIR=$(mktemp -d)
UOPS=${CHAOS_UOPS:-60000}
HALF_A=(exchange2 lbm perlbench1)
HALF_B=(mcf xalancbmk gcc1)
RUN=(python -m repro accuracy mascot phast --uops "$UOPS")
HALF_FLAGS=(--jobs 2 --retries 3)

cleanup() {
    local pid
    for pid in $(jobs -p); do
        kill -9 -- "-$pid" 2>/dev/null || true
    done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

count_oks() { # $1: cache dir; prints its journaled ok records
    cat "$1"/journals/*.jsonl 2>/dev/null | grep -c '"event": "ok"' || true
}

wait_oks() { # $1: cache dir, $2: minimum journaled ok records
    for _ in $(seq 1 1200); do
        n=$(count_oks "$1")
        [ "${n:-0}" -ge "$2" ] && return 0
        sleep 0.05
    done
    echo "chaos drill: timed out waiting for $2 journaled cells in $1" >&2
    exit 1
}

"${RUN[@]}" --benchmarks "${HALF_A[@]}" "${HALF_FLAGS[@]}" \
    --cache-dir "$WORKDIR/a" >"$WORKDIR/a.out" 2>"$WORKDIR/a.err" &
A_PID=$!
"${RUN[@]}" --benchmarks "${HALF_B[@]}" "${HALF_FLAGS[@]}" \
    --cache-dir "$WORKDIR/b" >"$WORKDIR/b.out" 2>"$WORKDIR/b.err" &
B_PID=$!

wait_oks "$WORKDIR/a" 1
SLOT_PID=$(pgrep -P "$A_PID" | head -n1 || true)
if [ -n "$SLOT_PID" ]; then
    kill -9 "$SLOT_PID"         # one of half A's slot workers dies
    echo "chaos drill: killed half A's slot worker (pid $SLOT_PID)"
fi

wait_oks "$WORKDIR/b" 1
kill -9 -- "-$B_PID"            # half B's host is lost mid-grid
wait "$B_PID" 2>/dev/null || true
B_DONE=$(count_oks "$WORKDIR/b")
echo "chaos drill: killed half B's coordinator and its slots" \
     "after $B_DONE of 6 cells"
if [ "$B_DONE" -ge 6 ]; then
    echo "chaos drill: half B finished before the kill landed" >&2
    exit 1
fi

wait "$A_PID"
echo "chaos drill: half A finished"

RUN_FILE=$(ls "$WORKDIR"/b/journals/*.jsonl | head -n1)
RUN_ID=$(basename "$RUN_FILE" .jsonl)
echo "chaos drill: resuming half B from $RUN_ID"
"${RUN[@]}" --benchmarks "${HALF_B[@]}" "${HALF_FLAGS[@]}" \
    --cache-dir "$WORKDIR/b" --resume "$RUN_ID" \
    --metrics "$WORKDIR/b.jsonl" >"$WORKDIR/b.out"
python - "$WORKDIR/b.jsonl" "$B_DONE" <<'PY'
import json
import sys

cells = [r for r in map(json.loads, open(sys.argv[1]))
         if r["event"] == "cell"]
sources = sorted(r["source"] for r in cells)
# Every cell journaled before the kill is carried; the rest recompute.
assert sources.count("journal") >= int(sys.argv[2]) >= 1, sources
assert sources.count("computed") >= 1, sources
PY

# Merge the halves' cache directories, then render the full grid.
mkdir "$WORKDIR/merged"
cp -r "$WORKDIR/a/." "$WORKDIR/merged/"
cp -r "$WORKDIR/b/." "$WORKDIR/merged/"
"${RUN[@]}" --benchmarks "${HALF_A[@]}" "${HALF_B[@]}" \
    --cache-dir "$WORKDIR/merged" --metrics "$WORKDIR/merged.jsonl" \
    >"$WORKDIR/merged.out"
python - "$WORKDIR/merged.jsonl" <<'PY'
import json
import sys

sweeps = [r for r in map(json.loads, open(sys.argv[1]))
          if r["event"] == "sweep"]
assert sweeps, "no sweep record"
assert all(r["computed"] == 0 for r in sweeps), sweeps
PY

# Identical to a clean serial run with no cache and no journal.
"${RUN[@]}" --benchmarks "${HALF_A[@]}" "${HALF_B[@]}" \
    --no-cache --no-journal >"$WORKDIR/clean.out"
diff "$WORKDIR/merged.out" "$WORKDIR/clean.out"
echo "chaos drill: merged halves rendered with 0 computed cells," \
     "identical to a serial run"
