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
# Act two repeats the discipline for the shared-cache layer: the same
# grid run over two plain workers against `repro cache-serve` must print
# output bit-identical to the serial run even when the cache server is
# SIGKILLed mid-grid and restarted, and when it tears or corrupts a reply.
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

wait_oks() { # $1: minimum journaled ok records; $2: journal directory
    for _ in $(seq 1 1200); do
        n=$(cat "${2:-$JOURNALS}"/*.jsonl 2>/dev/null \
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

########################################################################
# Act two: shared cache service under faults.
#
# A `repro cache-serve` result-cache server (tearing its first reply)
# backs act one's grid run over two plain workers.  The cache server is
# SIGKILLed mid-grid (stores fail and are skipped) and restarted on the
# same port (the client reconnects).  A top-up pass then stores the
# entries missed while the server was down, and a warm pass against a
# server that corrupts its first reply (a hit) must recompute that one
# cell.  Every pass must print exactly act one's serial output.

echo "chaos drill: act two — shared cache service"

CACHE_DIR="$WORKDIR/cache"
JOURNALS2="$WORKDIR/journals2"
# The client's read-only fallback directory: empty, so no entry from
# outside the drill can turn a miss into a hit.
export REPRO_CACHE_DIR="$WORKDIR/fallback"

start_cache_server() { # $1: ready file; $2: port; $3: fault spec
    REPRO_FAULT_INJECT="$3" python -m repro cache-serve \
        --cache-dir "$CACHE_DIR" --port "$2" --ready-file "$1" \
        >/dev/null 2>&1 &
    STARTED_PID=$!
}

start_cache_server "$WORKDIR/cs.ready" 0 \
    "torn-once=cache/serve@$WORKDIR/torn.latch"
CS_PID=$STARTED_PID
wait_ready "$WORKDIR/cs.ready"
CS_ADDR=$(cat "$WORKDIR/cs.ready")
CS_PORT="${CS_ADDR##*:}"

# Preflight: the cache server answers the protocol handshake too.
python -m repro doctor --cache-url "tcp://$CS_ADDR"

start_worker "$WORKDIR/w4.ready"
start_worker "$WORKDIR/w5.ready"
wait_ready "$WORKDIR/w4.ready"
wait_ready "$WORKDIR/w5.ready"
ENDPOINTS3="$(cat "$WORKDIR/w4.ready"),$(cat "$WORKDIR/w5.ready")"

python -m repro accuracy mascot phast "${GRID[@]}" --uops "$UOPS" \
    --cache-url "tcp://$CS_ADDR" --retries 3 --journal-dir "$JOURNALS2" \
    --workers "$ENDPOINTS3" >"$WORKDIR/cold.out" 2>"$WORKDIR/cold.err" &
COORD_PID=$!

wait_oks 1 "$JOURNALS2"
kill -9 "$CS_PID"               # the cache server dies mid-grid ...
echo "chaos drill: killed cache server (pid $CS_PID)"
wait_oks 3 "$JOURNALS2"         # ... and the grid keeps settling without it
start_cache_server "$WORKDIR/cs2.ready" "$CS_PORT" ""
CS_PID=$STARTED_PID
wait_ready "$WORKDIR/cs2.ready"
echo "chaos drill: restarted cache server on port $CS_PORT"

wait "$COORD_PID"
diff "$WORKDIR/cold.out" "$WORKDIR/clean.out"

# The injected torn reply really fired (its latch file exists); the
# client absorbed it with a reconnect retry.
if [ ! -f "$WORKDIR/torn.latch" ]; then
    echo "chaos drill: injected torn fault never fired" >&2
    exit 1
fi

# Top-up: store the cells that settled while the server was down, so
# the warm pass below finds every entry.
python -m repro accuracy mascot phast "${GRID[@]}" --uops "$UOPS" \
    --cache-url "tcp://$CS_ADDR" --no-journal \
    --workers "$ENDPOINTS3" >"$WORKDIR/topup.out"
diff "$WORKDIR/topup.out" "$WORKDIR/clean.out"
kill "$CS_PID"

# Warm pass: a fresh server over the now-complete cache corrupts the
# digest of its first reply, which is a hit.  The client must reject it
# as a miss and recompute the cell.
start_cache_server "$WORKDIR/cs3.ready" 0 \
    "corrupt-once=cache/serve@$WORKDIR/corrupt.latch"
wait_ready "$WORKDIR/cs3.ready"
python -m repro accuracy mascot phast "${GRID[@]}" --uops "$UOPS" \
    --cache-url "tcp://$(cat "$WORKDIR/cs3.ready")" --no-journal \
    --metrics "$WORKDIR/warm.jsonl" \
    --workers "$ENDPOINTS3" >"$WORKDIR/warm.out"
diff "$WORKDIR/warm.out" "$WORKDIR/clean.out"
python - "$WORKDIR" <<'EOF'
import os
import sys

from repro.obs import summarize_metrics

workdir = sys.argv[1]
assert os.path.exists(f"{workdir}/corrupt.latch"), \
    "chaos drill: injected corrupt fault never fired"
cache = summarize_metrics(f"{workdir}/warm.jsonl")["cache"]
assert cache["corrupt_replies"] >= 1, cache
print(f"chaos drill: warm pass rejected {cache['corrupt_replies']} "
      f"corrupt reply and recomputed; cache counters {cache}")
EOF
echo "chaos drill: shared-cache grid bit-identical through a cache-server" \
     "kill, restart, torn reply and corrupt reply"
