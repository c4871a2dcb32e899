#!/usr/bin/env bash
# Chaos drill for the distributed suite engine (CI `chaos` job).
#
# Launches two `repro worker` processes, starts a distributed sweep
# against them, then SIGKILLs one worker mid-grid and — once the run has
# made further progress on the survivor — SIGKILLs the coordinator too.
# A replacement worker joins, a fresh coordinator resumes the same
# journal, and the merged output must be bit-identical to a clean serial
# run.  Exercises every recovery layer at once: worker-lost requeue,
# lease expiry bookkeeping, torn journal tails and `--resume`.
#
# Requires PYTHONPATH to reach the repro package (CI exports it).
set -euo pipefail

WORKDIR=$(mktemp -d)
JOURNALS="$WORKDIR/journals"
UOPS=${CHAOS_UOPS:-60000}
GRID=(--benchmarks exchange2 lbm perlbench1 mcf xalancbmk gcc1)

cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

start_worker() { # $1: ready file; sets STARTED_PID
    # A job of this shell (not of a command substitution), so cleanup's
    # `jobs -p` stops it.
    python -m repro worker --ready-file "$1" >/dev/null 2>&1 &
    STARTED_PID=$!
}

wait_ready() { # $1: ready file
    for _ in $(seq 1 200); do
        [ -s "$1" ] && return 0
        sleep 0.05
    done
    echo "chaos drill: worker never wrote $1" >&2
    exit 1
}

wait_oks() { # $1: minimum journaled ok records
    for _ in $(seq 1 1200); do
        n=$(cat "$JOURNALS"/*.jsonl 2>/dev/null \
            | grep -c '"event": "ok"' || true)
        [ "${n:-0}" -ge "$1" ] && return 0
        sleep 0.1
    done
    echo "chaos drill: timed out waiting for $1 journaled cells" >&2
    exit 1
}

start_worker "$WORKDIR/w1.ready"
W1_PID=$STARTED_PID
start_worker "$WORKDIR/w2.ready"
wait_ready "$WORKDIR/w1.ready"
wait_ready "$WORKDIR/w2.ready"
ENDPOINTS="$(cat "$WORKDIR/w1.ready"),$(cat "$WORKDIR/w2.ready")"

# Preflight: both endpoints must answer the protocol handshake.
python -m repro doctor --workers "$ENDPOINTS"

python -m repro accuracy mascot phast "${GRID[@]}" --uops "$UOPS" \
    --no-cache --retries 3 --journal-dir "$JOURNALS" \
    --workers "$ENDPOINTS" >"$WORKDIR/first.out" 2>"$WORKDIR/first.err" &
COORD_PID=$!

wait_oks 1
kill -9 "$W1_PID"               # one worker dies mid-grid
echo "chaos drill: killed worker 1 (pid $W1_PID)"
wait_oks 3                      # progress continues on the survivor
kill -9 "$COORD_PID"            # ... then the coordinator dies too
echo "chaos drill: killed coordinator (pid $COORD_PID)"
wait "$COORD_PID" 2>/dev/null || true

RUN_FILE=$(ls "$JOURNALS"/*.jsonl | head -n1)
RUN_ID=$(basename "$RUN_FILE" .jsonl)
echo "chaos drill: resuming $RUN_ID"

# A replacement worker joins the survivor; a fresh coordinator resumes.
start_worker "$WORKDIR/w3.ready"
wait_ready "$WORKDIR/w3.ready"
ENDPOINTS2="$(cat "$WORKDIR/w2.ready"),$(cat "$WORKDIR/w3.ready")"
python -m repro accuracy mascot phast "${GRID[@]}" --uops "$UOPS" \
    --no-cache --retries 3 --journal-dir "$JOURNALS" \
    --workers "$ENDPOINTS2" --resume "$RUN_ID" >"$WORKDIR/resumed.out"

# Bit-identical to a clean serial run with no journal and no workers.
python -m repro accuracy mascot phast "${GRID[@]}" --uops "$UOPS" \
    --no-cache --no-journal >"$WORKDIR/clean.out"
diff "$WORKDIR/resumed.out" "$WORKDIR/clean.out"
echo "chaos drill: merged results bit-identical after worker kill" \
     "and coordinator restart"

