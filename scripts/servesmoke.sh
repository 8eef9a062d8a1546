#!/bin/sh
# servesmoke.sh — end-to-end smoke for the thermald serving stack.
#
# Builds thermald and tracegen and checks that every operator-flag
# ceiling refuses its first out-of-range value. Then starts thermald on
# an ephemeral port at GOMAXPROCS=3, checks that /v1/stats reports the
# default pool of one worker per GOMAXPROCS, fires a mixed
# sim/sweep/trace burst at it with curl twice, in opposite client
# orderings, and fails unless every response is bit-identical across
# the two bursts — the serving layer's determinism contract. Finishes
# by exercising the SIGTERM drain path and checking the server reports
# a clean exit.
set -eu

cd "$(dirname "$0")/.."
tmp="${TMPDIR:-/tmp}/thermald-smoke.$$"
mkdir -p "$tmp"
pid=""
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

echo "building..." >&2
go build -o "$tmp/thermald" ./cmd/thermald
go build -o "$tmp/tracegen" ./cmd/tracegen

# Operator-flag ceilings: one past each ceiling must be refused with
# an "out of range" message and the command's usage exit status before
# the value sizes anything. The unusable -addr (and tracegen's unknown
# -benchmark) make a missing ceiling fail fast at the next step instead
# of serving or allocating; timeout backs that up.
check_ceiling() { # check_ceiling <want status> <command>...
    want=$1
    shift
    status=0
    timeout 20 "$@" >"$tmp/ceiling.out" 2>&1 || status=$?
    if [ "$status" -ne "$want" ] || ! grep -q "out of range" "$tmp/ceiling.out"; then
        cat "$tmp/ceiling.out" >&2
        echo "FAIL: $* exited $status; want exit $want and an \"out of range\" message" >&2
        exit 1
    fi
}
for flagval in "-workers 4097" "-queue 1048577" "-cache 1048577" "-window 61s" "-max-simtime 3601"; do
    # shellcheck disable=SC2086 # flag name and value split on purpose
    check_ceiling 2 "$tmp/thermald" -addr "unusable address" $flagval
done
check_ceiling 1 "$tmp/tracegen" -benchmark no-such-benchmark -n 4194305
echo "servesmoke: every operator-flag ceiling refuses its first out-of-range value" >&2

# GOMAXPROCS=3 is set explicitly so the workers check below sees the
# default -workers 0 resolve through GOMAXPROCS; an odd width also
# rules out matching a fixed or clamped default by chance.
GOMAXPROCS=3 "$tmp/thermald" -addr 127.0.0.1:0 >"$tmp/thermald.log" 2>&1 &
pid=$!

# The server prints "thermald: listening on http://host:port" once the
# listener is up; with port 0 that line is the only way to learn the
# port.
url=""
i=0
while [ $i -lt 100 ]; do
    url=$(sed -n 's/^thermald: listening on \(http:.*\)$/\1/p' "$tmp/thermald.log" | head -1)
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || { cat "$tmp/thermald.log" >&2; echo "FAIL: thermald exited before listening" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$url" ] || { echo "FAIL: thermald never reported its address" >&2; exit 1; }
echo "thermald up at ${url}" >&2

# Default pool width: -workers 0 means one worker per GOMAXPROCS.
curl -sS --fail-with-body -o "$tmp/stats" "$url/v1/stats"
grep -q '"workers":3' "$tmp/stats" || {
    { cat "$tmp/stats"; echo; } >&2
    echo "FAIL: /v1/stats does not report \"workers\":3 at GOMAXPROCS=3" >&2
    exit 1
}
echo "servesmoke: default pool has one worker per GOMAXPROCS" >&2

# Determinism burst: five requests (three /v1/sim, one /v1/sweep, one
# /v1/sim/trace) fired concurrently, then again in the opposite order.
# Batch composition and cache state differ between the bursts; no
# response may.
n=0
while read -r path body; do
    printf '%s' "$path" >"$tmp/req.$n.path"
    printf '%s' "$body" >"$tmp/req.$n.body"
    n=$((n + 1))
done <<'REQUESTS'
/v1/sim {"workload":"workload1","policy":"dist-dvfs","simtime_s":0.01}
/v1/sim {"workload":"workload2","policy":"global-stopgo","simtime_s":0.01}
/v1/sim {"workload":"workload3","policy":"dist-stopgo+counter","simtime_s":0.01}
/v1/sweep {"simtime_s":0.01,"cells":[{"workload":"workload4","policy":"dist-dvfs"},{"workload":"workload1","policy":"dist-dvfs"}]}
/v1/sim/trace {"workload":"workload5","policy":"dist-dvfs","simtime_s":0.005,"every":8}
REQUESTS
burst() { # burst <run> <request index>...
    run=$1
    shift
    bpids=""
    for i in "$@"; do
        curl -sS --fail-with-body -H 'Content-Type: application/json' \
            --data-binary @"$tmp/req.$i.body" -o "$tmp/resp.$run.$i" \
            "$url$(cat "$tmp/req.$i.path")" 2>"$tmp/resp.$run.$i.err" &
        bpids="$bpids $!"
    done
    for bp in $bpids; do
        wait "$bp" || { cat "$tmp"/resp."$run".* >&2; echo "FAIL: a request in burst $run failed" >&2; exit 1; }
    done
}
burst 1 0 1 2 3 4
burst 2 4 3 2 1 0
for i in 0 1 2 3 4; do
    [ -s "$tmp/resp.1.$i" ] && cmp "$tmp/resp.1.$i" "$tmp/resp.2.$i" >&2 || {
        echo "FAIL: request $i ($(cat "$tmp/req.$i.path") $(cat "$tmp/req.$i.body")) diverged between orderings" >&2
        exit 1
    }
done
echo "servesmoke: $n responses bit-identical across orderings" >&2

# Graceful drain under load: open trace streams, then SIGTERM while
# they are in flight. The server must finish every open stream, report
# a clean drain, and exit 0 — a drain that cuts streams or hangs on
# them is exactly the bug this guards against.
trace_body='{"workload":"workload1","policy":"dist-stopgo","simtime_s":0.05,"every":1}'
tpids=""
for i in 1 2 3; do
    curl -sS -N -X POST -H 'Content-Type: application/json' -d "$trace_body" \
        "$url/v1/sim/trace" >"$tmp/trace.$i" 2>"$tmp/trace.$i.err" &
    tpids="$tpids $!"
done
sleep 0.2
kill -TERM "$pid"
for tp in $tpids; do
    wait "$tp" || {
        cat "$tmp"/trace.*.err >&2
        echo "FAIL: in-flight trace stream failed during drain" >&2
        exit 1
    }
done
for i in 1 2 3; do
    [ -s "$tmp/trace.$i" ] || { echo "FAIL: trace stream $i returned no data" >&2; exit 1; }
done
i=0
while kill -0 "$pid" 2>/dev/null; do
    [ $i -lt 100 ] || { echo "FAIL: thermald did not drain within 10s" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
status=0
wait "$pid" || status=$?
[ "$status" -eq 0 ] || {
    cat "$tmp/thermald.log" >&2
    echo "FAIL: thermald exited with status $status after SIGTERM" >&2
    exit 1
}
grep -q "thermald: drained" "$tmp/thermald.log" || {
    cat "$tmp/thermald.log" >&2
    echo "FAIL: thermald exited without reporting a clean drain" >&2
    exit 1
}
echo "servesmoke: ok (drained with in-flight trace streams, exit 0)" >&2
