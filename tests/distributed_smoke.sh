#!/usr/bin/env bash
# End-to-end check of the distributed sweep fabric (DESIGN.md §15),
# run as a ctest (distributed_smoke, in the CI release leg). Against
# a bench binary and the torture bench, it drives a loopback
# --listen coordinator with real --connect worker processes and
# verifies the BenchMain determinism contract under transport chaos:
#
#   * a clean fleet (including a worker that joins seconds late and is
#     dealt the remaining work) renders byte-identically to --jobs=1;
#   * a fleet suffering a SIGKILLed worker, a torn mid-frame close, a
#     garbled payload, and a stalled peer — all mid-sweep — still
#     renders byte-identically, the lost points re-dealt to survivors;
#   * a point that crashes every worker that touches it is quarantined:
#     FAILED table cell, exit 3, never a hang;
#   * a warm --cache rerun is served 100% coordinator-side (0 misses,
#     no worker needed);
#   * a coordinator killed mid-sweep whose --cache tail is then torn
#     mid-record restarts with the same --cache on the same port, the
#     torn point re-dealt to workers that reconnect on their own;
#   * exit codes keep their precedence (0 < 3 quarantine < 4 oracle
#     divergence) when transport-fault quarantines and oracle
#     divergences coexist in one distributed sweep.
#
# Invoke with
#   distributed_smoke.sh <fig06 bench> <torture bench> <scratch dir>

set -u

BENCH=${1:?usage: distributed_smoke.sh BENCH TORTURE OUT}
TORTURE=${2:?usage: distributed_smoke.sh BENCH TORTURE OUT}
OUT=${3:?usage: distributed_smoke.sh BENCH TORTURE OUT}

WORKLOADS=is,mg

rm -rf "$OUT"
mkdir -p "$OUT"

cleanup() {
    local pids
    pids=$(jobs -p)
    [ -n "$pids" ] && kill -9 $pids 2>/dev/null
    return 0
}
trap cleanup EXIT

die() {
    echo "distributed smoke: FAIL: $*" >&2
    exit 1
}

# Poll a coordinator's stderr for the "[net] listening on" line (port 0
# resolves to a kernel-picked port) and echo the port.
wait_port() {
    local errfile=$1 i port
    for i in $(seq 1 200); do
        port=$(sed -n \
            's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
            "$errfile" 2>/dev/null | head -n1)
        if [ -n "$port" ]; then
            echo "$port"
            return 0
        fi
        sleep 0.05
    done
    return 1
}

expect_identical() {
    cmp -s "$1" "$2" || die "$3: output differs ($1 vs $2)"
}

expect_match() {
    grep -Eq "$2" "$1" || die "$3: '$1' does not match '$2'"
}

expect_exit() {
    local pid=$1 want=$2 what=$3 got=0
    wait "$pid" || got=$?
    [ "$got" -eq "$want" ] || die "$what: exited $got (expected $want)"
}

# --- Reference: the single-process run everything must match ---
"$BENCH" --workloads=$WORKLOADS --jobs=1 \
    > "$OUT/reference.txt" 2> "$OUT/reference.err" \
    || die "--jobs=1 reference failed"

# --- Clean fleet + late joiner: the coordinator starts alone (inside
#     its join grace), the first worker arrives two seconds late and
#     is dealt the entire sweep; two more pile in after it ---
"$BENCH" --workloads=$WORKLOADS --listen=127.0.0.1:0 --heartbeat=1 \
    > "$OUT/clean.txt" 2> "$OUT/clean.err" &
coord=$!
port=$(wait_port "$OUT/clean.err") || die "clean: no listening line"
sleep 2
workers=()
for i in 1 2 3; do
    "$BENCH" --workloads=$WORKLOADS --connect=127.0.0.1:$port \
        --heartbeat=1 2> "$OUT/clean_w$i.err" &
    workers+=($!)
done
expect_exit $coord 0 "clean coordinator"
for i in 0 1 2; do
    expect_exit "${workers[$i]}" 0 "clean worker $((i + 1))"
done
expect_identical "$OUT/reference.txt" "$OUT/clean.txt" \
    "clean distributed sweep"
expect_match "$OUT/clean.err" "via --listen" "distributed timing line"
expect_match "$OUT/clean.err" "3 worker join" "late joiners all joined"

# --- Chaos fleet: SIGKILL one worker mid-sweep, tear another's frame
#     in half, garble a third's result payload, stall a fourth — the
#     survivors absorb every reclaimed point, output identical.
#     --heartbeat=30 keeps the fault ordinals deterministic (frame 1
#     is the hello, results start at 2; no pong ever intervenes) ---
"$BENCH" --workloads=$WORKLOADS --listen=127.0.0.1:0 --heartbeat=30 \
    --point-timeout=60 --retries=3 \
    > "$OUT/chaos.txt" 2> "$OUT/chaos.err" &
coord=$!
port=$(wait_port "$OUT/chaos.err") || die "chaos: no listening line"
ACR_NET_FAULT=torn=3 "$BENCH" --workloads=$WORKLOADS \
    --connect=127.0.0.1:$port 2> "$OUT/chaos_torn.err" &
torn_w=$!
ACR_NET_FAULT=garble=4 "$BENCH" --workloads=$WORKLOADS \
    --connect=127.0.0.1:$port 2> "$OUT/chaos_garble.err" &
garble_w=$!
ACR_NET_FAULT=stall=2:1 "$BENCH" --workloads=$WORKLOADS \
    --connect=127.0.0.1:$port 2> "$OUT/chaos_stall.err" &
stall_w=$!
"$BENCH" --workloads=$WORKLOADS --connect=127.0.0.1:$port \
    2> "$OUT/chaos_victim.err" &
victim=$!
sleep 0.4
kill -9 $victim 2>/dev/null
expect_exit $coord 0 "chaos coordinator"
expect_exit $torn_w 0 "torn worker (should reconnect and finish)"
expect_exit $garble_w 0 "garbled worker (should survive the drop)"
expect_exit $stall_w 0 "stalled worker"
wait $victim 2>/dev/null  # SIGKILLed; any status is fine
expect_identical "$OUT/reference.txt" "$OUT/chaos.txt" \
    "chaos distributed sweep"
expect_match "$OUT/chaos.err" "connection loss" \
    "chaos supervision report"
expect_match "$OUT/chaos.err" "retr" "chaos retry report"

# --- Exhausted retries: a point that kills every worker that touches
#     it is quarantined — FAILED cell, exit 3, the sweep completes
#     around it on the surviving worker ---
"$BENCH" --workloads=$WORKLOADS --listen=127.0.0.1:0 --heartbeat=1 \
    --retries=1 > "$OUT/quarantine.txt" 2> "$OUT/quarantine.err" &
coord=$!
port=$(wait_port "$OUT/quarantine.err") \
    || die "quarantine: no listening line"
workers=()
for i in 1 2 3; do
    ACR_TEST_CRASH_INDEX=1 "$BENCH" --workloads=$WORKLOADS \
        --connect=127.0.0.1:$port --heartbeat=1 \
        2> "$OUT/quarantine_w$i.err" &
    workers+=($!)
done
expect_exit $coord 3 "quarantine coordinator"
for w in "${workers[@]}"; do
    wait "$w" 2>/dev/null  # two die at the crash point, one survives
done
expect_match "$OUT/quarantine.txt" "FAILED" "quarantined table cell"
expect_match "$OUT/quarantine.err" "quarantin" "quarantine report"

# --- Result cache: a cold distributed run populates --cache; the warm
#     rerun is served 100% coordinator-side with no worker at all ---
"$BENCH" --workloads=$WORKLOADS --listen=127.0.0.1:0 --heartbeat=1 \
    --cache="$OUT/results.cache" \
    > "$OUT/cold.txt" 2> "$OUT/cold.err" &
coord=$!
port=$(wait_port "$OUT/cold.err") || die "cold cache: no listening line"
"$BENCH" --workloads=$WORKLOADS --connect=127.0.0.1:$port \
    --heartbeat=1 2> "$OUT/cold_w1.err" &
w1=$!
expect_exit $coord 0 "cold cache coordinator"
expect_exit $w1 0 "cold cache worker"
expect_identical "$OUT/reference.txt" "$OUT/cold.txt" \
    "cold cached distributed sweep"
"$BENCH" --workloads=$WORKLOADS --listen=127.0.0.1:0 --heartbeat=1 \
    --cache="$OUT/results.cache" \
    > "$OUT/warm.txt" 2> "$OUT/warm.err" \
    || die "warm cache rerun failed"
expect_identical "$OUT/reference.txt" "$OUT/warm.txt" \
    "warm cached rerun"
expect_match "$OUT/warm.err" "cache: [0-9]+ hit\(s\), 0 miss\(es\)" \
    "warm rerun must be 100% cache hits"

# --- Torn cache across a coordinator restart: the coordinator dies
#     after two fsync'd cache appends, the cache tail is then torn
#     mid-record, and the restart with the same --cache on the same
#     port serves the one durable entry while the workers — still
#     inside their reconnect window — re-join on their own and rerun
#     the rest ---
ACR_TEST_COORD_EXIT_AFTER=2 \
    "$BENCH" --workloads=$WORKLOADS --listen=127.0.0.1:0 --heartbeat=2 \
    --cache="$OUT/restart.cache" \
    > "$OUT/half.txt" 2> "$OUT/half.err" &
coord=$!
port=$(wait_port "$OUT/half.err") || die "restart: no listening line"
workers=()
for i in 1 2; do
    "$BENCH" --workloads=$WORKLOADS --connect=127.0.0.1:$port \
        --heartbeat=2 2> "$OUT/restart_w$i.err" &
    workers+=($!)
done
expect_exit $coord 7 "caching coordinator (test-hook exit)"
size=$(stat -c %s "$OUT/restart.cache")
head -c $((size - 40)) "$OUT/restart.cache" > "$OUT/restart.torn" \
    && mv "$OUT/restart.torn" "$OUT/restart.cache"
"$BENCH" --workloads=$WORKLOADS --listen=127.0.0.1:$port --heartbeat=2 \
    --cache="$OUT/restart.cache" \
    > "$OUT/restarted.txt" 2> "$OUT/restarted.err" &
coord=$!
expect_exit $coord 0 "restarted coordinator"
for i in 0 1; do
    expect_exit "${workers[$i]}" 0 "reconnecting worker $((i + 1))"
done
expect_identical "$OUT/reference.txt" "$OUT/restarted.txt" \
    "torn-cache restarted distributed sweep"
expect_match "$OUT/restarted.err" "torn" "torn-record warning"
expect_match "$OUT/restarted.err" "cache: 1 hit\(s\)" \
    "restart must serve only the durable prefix"

# --- Exit-code precedence under transport faults: an oracle
#     divergence (exit 4) must render byte-identically over TCP and
#     outrank a transport-fault quarantine (exit 3) in the same sweep ---
campaign="--workloads=is --modes=reckpt --coords=global --lats=0.5
          --errors=8 --checkpoints=5 --seeds=2 --oracle=on"
ACR_TEST_CORRUPT_RECOVERY=1 "$TORTURE" $campaign --jobs=1 \
    > "$OUT/oracle_ref.txt" 2> "$OUT/oracle_ref.err"
[ $? -eq 4 ] || die "oracle --jobs=1 reference: expected exit 4"

"$TORTURE" $campaign --listen=127.0.0.1:0 --heartbeat=1 \
    > "$OUT/oracle_dist.txt" 2> "$OUT/oracle_dist.err" &
coord=$!
port=$(wait_port "$OUT/oracle_dist.err") \
    || die "oracle: no listening line"
workers=()
for i in 1 2; do
    ACR_TEST_CORRUPT_RECOVERY=1 "$TORTURE" $campaign \
        --connect=127.0.0.1:$port --heartbeat=1 \
        2> "$OUT/oracle_w$i.err" &
    workers+=($!)
done
expect_exit $coord 4 "distributed oracle divergence"
for i in 0 1; do
    expect_exit "${workers[$i]}" 0 "oracle worker $((i + 1))"
done
expect_identical "$OUT/oracle_ref.txt" "$OUT/oracle_dist.txt" \
    "oracle divergence over TCP"

"$TORTURE" $campaign --listen=127.0.0.1:0 --heartbeat=1 --retries=0 \
    > "$OUT/mixed.txt" 2> "$OUT/mixed.err" &
coord=$!
port=$(wait_port "$OUT/mixed.err") || die "mixed: no listening line"
workers=()
for i in 1 2 3; do
    ACR_TEST_CORRUPT_RECOVERY=1 ACR_TEST_CRASH_INDEX=0 \
        "$TORTURE" $campaign --connect=127.0.0.1:$port --heartbeat=1 \
        2> "$OUT/mixed_w$i.err" &
    workers+=($!)
done
expect_exit $coord 4 "mixed sweep (divergence must outrank quarantine)"
for w in "${workers[@]}"; do
    wait "$w" 2>/dev/null  # the crash-point workers die by design
done
expect_match "$OUT/mixed.err" "quarantin" \
    "mixed sweep quarantine report"

echo "distributed smoke: chaos, quarantine, cache, torn-cache" \
     "restart, and exit precedence all hold over TCP" >&2
