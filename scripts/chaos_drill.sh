#!/usr/bin/env bash
# Split-and-merge drill (CI `chaos` job): one grid run as two hosts would.
#
# Half A and half B of a six-benchmark accuracy grid run side by side,
# each on two local slots with its own cache directory.  One of half A's
# slot workers is SIGKILLed mid-grid and respawned; half A runs with
# --keep-going, so the cell that worker ran (if any) fails once, and
# rerunning half A on its cache must compute exactly the cells it named
# FAILED and serve every other cell from the cache.  Half B's first run
# hangs its gcc1/phast cell (REPRO_FAULT_INJECT, 30 s), so that cell
# cannot settle before the kill: half B's coordinator alone is SIGKILLed
# once at least one of its cells has settled into the cache; its slot
# workers, one of them mid-cell, must then exit by themselves within 10 s,
# and rerunning half B on the same cache directory must serve every
# settled cell from the cache.  The two cache directories are then copied
# together, and rerunning the full grid on the merged copy must compute
# nothing and print exactly what a clean serial run prints.
#
# Requires PYTHONPATH to reach the repro package (CI exports it).
set -euo pipefail
set -m  # each background job leads its own process group

WORKDIR=$(mktemp -d)
UOPS=${CHAOS_UOPS:-60000}
HALF_A=(exchange2 lbm perlbench1)
HALF_B=(mcf xalancbmk gcc1)
RUN=(python -m repro accuracy mascot phast --uops "$UOPS")
HALF_FLAGS=(--jobs 2)
B_SLOTS=()

cleanup() {
    local pid
    for pid in $(jobs -p); do
        kill -9 -- "-$pid" 2>/dev/null || true
    done
    for pid in "${B_SLOTS[@]}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

count_entries() { # $1: cache dir; prints its settled cells (cache entries)
    find "$1" -maxdepth 1 -name '*.json' 2>/dev/null | wc -l
}

wait_entries() { # $1: cache dir, $2: minimum cache entries
    for _ in $(seq 1 1200); do
        [ "$(count_entries "$1")" -ge "$2" ] && return 0
        sleep 0.05
    done
    echo "chaos drill: timed out waiting for $2 settled cells in $1" >&2
    exit 1
}

running() { # $1: pid; true while it runs (a zombie awaiting reaping is gone)
    local state
    state=$(ps -o stat= -p "$1" 2>/dev/null || true)
    [ -n "$state" ] && [ "${state:0:1}" != Z ]
}

"${RUN[@]}" --benchmarks "${HALF_A[@]}" "${HALF_FLAGS[@]}" --keep-going \
    --cache-dir "$WORKDIR/a" >"$WORKDIR/a.out" 2>"$WORKDIR/a.err" &
A_PID=$!
REPRO_FAULT_INJECT='hang=gcc1/phast' \
    "${RUN[@]}" --benchmarks "${HALF_B[@]}" "${HALF_FLAGS[@]}" \
    --cache-dir "$WORKDIR/b" >"$WORKDIR/b.out" 2>"$WORKDIR/b.err" &
B_PID=$!

wait_entries "$WORKDIR/a" 1
SLOT_PID=$(pgrep -P "$A_PID" | head -n1 || true)
if [ -n "$SLOT_PID" ]; then
    kill -9 "$SLOT_PID"         # one of half A's slot workers dies
    echo "chaos drill: killed half A's slot worker (pid $SLOT_PID)"
fi

wait_entries "$WORKDIR/b" 1
mapfile -t B_SLOTS < <(pgrep -P "$B_PID" || true)
kill -9 "$B_PID"                # half B's coordinator dies, its slots live on
wait "$B_PID" 2>/dev/null || true
B_DONE=$(count_entries "$WORKDIR/b")
echo "chaos drill: killed half B's coordinator after $B_DONE of 6 cells"
if [ "$B_DONE" -ge 6 ]; then
    echo "chaos drill: half B finished before the kill landed" >&2
    exit 1
fi
if [ "${#B_SLOTS[@]}" -eq 0 ]; then
    echo "chaos drill: half B's coordinator had no slot workers" >&2
    exit 1
fi
for _ in $(seq 1 100); do
    alive=()
    for pid in "${B_SLOTS[@]}"; do
        if running "$pid"; then alive+=("$pid"); fi
    done
    [ "${#alive[@]}" -eq 0 ] && break
    sleep 0.1
done
if [ "${#alive[@]}" -ne 0 ]; then
    echo "chaos drill: half B's slot workers outlived their coordinator" \
         "by 10 s: ${alive[*]}" >&2
    exit 1
fi
echo "chaos drill: half B's ${#B_SLOTS[@]} slot workers exited"
B_SLOTS=()  # exited: never signal their pids again

A_STATUS=0
wait "$A_PID" || A_STATUS=$?
A_FAILED=$(grep -c '^FAILED ' "$WORKDIR/a.err" || true)
echo "chaos drill: half A exited $A_STATUS with $A_FAILED failed cells"
if ! { [ "$A_STATUS" -eq 0 ] && [ "$A_FAILED" -eq 0 ]; } \
        && ! { [ "$A_STATUS" -eq 1 ] && [ "$A_FAILED" -ge 1 ]; }; then
    echo "chaos drill: half A's exit status disagrees with its FAILED" \
         "lines" >&2
    cat "$WORKDIR/a.err" >&2
    exit 1
fi

echo "chaos drill: rerunning half A on its cache"
"${RUN[@]}" --benchmarks "${HALF_A[@]}" "${HALF_FLAGS[@]}" \
    --cache-dir "$WORKDIR/a" --metrics "$WORKDIR/a.jsonl" >/dev/null
python - "$WORKDIR/a.jsonl" "$WORKDIR/a.err" <<'PY'
import json
import sys

cells = [r for r in map(json.loads, open(sys.argv[1]))
         if r["event"] == "cell"]
failed = {line.split()[1].rstrip(":") for line in open(sys.argv[2])
          if line.startswith("FAILED ")}
computed = {f"{r['mode']}:{r['benchmark']}/{r['predictor']}"
            for r in cells if r["source"] == "computed"}
# Rerun is retry: exactly the cells named FAILED compute again, and
# every other cell is a cache hit.
assert len(cells) == 6, cells
assert computed == failed, (computed, failed)
assert sum(r["source"] == "cache" for r in cells) == 6 - len(failed), cells
PY

echo "chaos drill: rerunning half B on its cache"
"${RUN[@]}" --benchmarks "${HALF_B[@]}" "${HALF_FLAGS[@]}" \
    --cache-dir "$WORKDIR/b" --metrics "$WORKDIR/b.jsonl" >"$WORKDIR/b.out"
python - "$WORKDIR/b.jsonl" "$B_DONE" <<'PY'
import json
import sys

cells = [r for r in map(json.loads, open(sys.argv[1]))
         if r["event"] == "cell"]
sources = sorted(r["source"] for r in cells)
# Every cell settled before the kill is a cache hit; the rest recompute.
assert sources.count("cache") >= int(sys.argv[2]) >= 1, sources
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

# Identical to a clean serial run with no cache.
"${RUN[@]}" --benchmarks "${HALF_A[@]}" "${HALF_B[@]}" \
    --no-cache >"$WORKDIR/clean.out"
diff "$WORKDIR/merged.out" "$WORKDIR/clean.out"
echo "chaos drill: merged halves rendered with 0 computed cells," \
     "identical to a serial run"
