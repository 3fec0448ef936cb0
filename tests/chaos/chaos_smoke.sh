#!/usr/bin/env bash
# Chaos smoke for powerchopd: SIGKILL at random points, a fault-
# injecting proxy, SIGTERM drain, an over-cap connection storm, and
# journal compaction — each phase asserting the daemon's hardening
# invariants:
#
#   * warm restarts serve byte-identical payloads (cmp against a
#     direct campaign's report.json), no matter where the kill landed
#   * SIGTERM drains in-flight work, exits 3, drops nothing
#   * an over-cap storm is shed with BUSY; the daemon never crashes
#   * compaction shrinks cache.jsonl while warm-starting the
#     identical cache (cmp-asserted)
#
# Usage: tests/chaos/chaos_smoke.sh [workdir]
# Env:   CLI, BENCH, PROXY, SEED override the defaults below.
set -euo pipefail

CLI=${CLI:-./build/tools/powerchop}
BENCH=${BENCH:-./build/bench/bench_serve}
PROXY=${PROXY:-tests/chaos/faulty_proxy.py}
SEED=${SEED:-1234}
WORK=${1:-chaos_work}

MATRIX_W="perlbench"
MATRIX_M="full-power,powerchop"
INSNS=50000
CARGS="--workloads $MATRIX_W --machine server --modes $MATRIX_M \
       --insns $INSNS"
BSPEC="--workloads $MATRIX_W --machines server --modes $MATRIX_M \
       --insns $INSNS"

rm -rf "$WORK"
mkdir -p "$WORK"
# bench_serve's runner rows stay in the work dir, never in the
# checkout's pinned BENCH_runner.json.
export POWERCHOP_RUNNER_JSON="$WORK/runner.json"

dpid=""
ppid_proxy=""
cleanup() {
    [ -n "$dpid" ] && kill -9 "$dpid" 2>/dev/null || true
    [ -n "$ppid_proxy" ] && kill -9 "$ppid_proxy" 2>/dev/null || true
    wait 2>/dev/null || true
}
trap cleanup EXIT

wait_sock() { # path
    for _ in $(seq 100); do
        test -S "$1" && return 0
        sleep 0.1
    done
    echo "FAIL: socket $1 never appeared" >&2
    return 1
}

start_daemon() { # dir [extra flags...]
    local dir="$1"; shift
    # A SIGKILLed daemon leaves its socket file behind; remove it so
    # wait_sock sees the *new* daemon's bind, not the corpse's.
    rm -f "$dir/powerchopd.sock"
    "$CLI" serve "$dir" "$@" >> "$WORK/daemon.log" 2>&1 &
    dpid=$!
    wait_sock "$dir/powerchopd.sock"
}

echo "== phase 0: reference report (direct campaign) =="
"$CLI" campaign "$WORK/ref" $CARGS > /dev/null
test -s "$WORK/ref/report.json"

echo "== phase 1: SIGKILL at random points, warm restarts identical =="
# Each round: daemon under live bench load, SIGKILL after a seeded
# random delay, restart over the same dir, then the served report
# must still be byte-identical to the direct campaign's.
DELAYS=$(python3 -c "
import random
r = random.Random($SEED)
print(' '.join(f'{r.uniform(0.2, 0.9):.2f}' for _ in range(4)))")
round=0
for delay in $DELAYS; do
    round=$((round + 1))
    start_daemon "$WORK/kill9"
    "$BENCH" --socket "$WORK/kill9/powerchopd.sock" --threads 4 \
        --requests 1000000 --retries 2 $BSPEC > /dev/null 2>&1 &
    bpid=$!
    sleep "$delay"
    kill -9 "$dpid"
    wait "$dpid" 2>/dev/null || true
    dpid=""
    kill "$bpid" 2>/dev/null || true
    wait "$bpid" 2>/dev/null || true
    start_daemon "$WORK/kill9"
    "$CLI" client --socket "$WORK/kill9/powerchopd.sock" $CARGS \
        > "$WORK/kill9_report.json"
    cmp "$WORK/ref/report.json" "$WORK/kill9_report.json"
    kill -9 "$dpid" 2>/dev/null || true
    wait "$dpid" 2>/dev/null || true
    dpid=""
    echo "   round $round (killed at ${delay}s): byte-identical"
done

echo "== phase 2: faulty proxy (delays, bitflips, torn frames) =="
start_daemon "$WORK/proxy" --read-timeout-seconds 1 \
    --idle-timeout-seconds 5
python3 "$PROXY" --listen "$WORK/proxy/proxy.sock" \
    --target "$WORK/proxy/powerchopd.sock" --seed "$SEED" \
    >> "$WORK/proxy.log" 2>&1 &
ppid_proxy=$!
wait_sock "$WORK/proxy/proxy.sock"
ok=0
for i in $(seq 30); do
    if "$CLI" client --socket "$WORK/proxy/proxy.sock" \
        --retries 5 --timeout-seconds 3 $CARGS \
        > "$WORK/proxy_reply.json" 2>> "$WORK/proxy.log"; then
        if cmp -s "$WORK/ref/report.json" "$WORK/proxy_reply.json"
        then
            ok=$((ok + 1))
        fi
    fi
    kill -0 "$dpid" || {
        echo "FAIL: daemon died under proxy chaos" >&2; exit 1; }
done
kill -9 "$ppid_proxy" 2>/dev/null || true
wait "$ppid_proxy" 2>/dev/null || true
ppid_proxy=""
echo "   $ok/30 proxied requests served byte-identical through chaos"
test "$ok" -ge 1
# The daemon itself is unharmed: a clean-path request still matches.
"$CLI" client --socket "$WORK/proxy/powerchopd.sock" $CARGS \
    > "$WORK/proxy_clean.json"
cmp "$WORK/ref/report.json" "$WORK/proxy_clean.json"
"$CLI" client --socket "$WORK/proxy/powerchopd.sock" --stats \
    > "$WORK/proxy_stats.json"
python3 - "$WORK/proxy_stats.json" << 'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
assert st["schema"] == "powerchop-serve-stats-v1", st
print(f"   daemon stats after chaos: requests={st['requests']} "
      f"errors={st['errors']} read_timeouts={st['read_timeouts']} "
      f"idle_reaped={st['idle_reaped']}")
EOF
kill -9 "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
dpid=""

echo "== phase 3: SIGTERM drain exits 3, drops nothing, bench rides through =="
start_daemon "$WORK/drain"
# Bench rides through the restart on its retry policy.
"$BENCH" --socket "$WORK/drain/powerchopd.sock" --threads 2 \
    --requests 100000 --retries 8 $BSPEC \
    > "$WORK/drain_bench.out" 2>&1 &
bpid=$!
sleep 0.3
kill -TERM "$dpid"
rc=0; wait "$dpid" || rc=$?
dpid=""
test "$rc" -eq 3 || {
    echo "FAIL: drained daemon exited $rc, want 3" >&2; exit 1; }
grep -q ", 0 dropped in flight" "$WORK/daemon.log" || {
    echo "FAIL: drain dropped in-flight requests" >&2
    tail -5 "$WORK/daemon.log" >&2; exit 1; }
# Restart immediately: the bench's retries bridge the gap.
start_daemon "$WORK/drain"
rc=0; wait "$bpid" || rc=$?
test "$rc" -eq 0 || {
    echo "FAIL: bench did not ride through the restart (rc=$rc)" >&2
    tail -5 "$WORK/drain_bench.out" >&2; exit 1; }
grep -H "retries=" "$WORK/drain_bench.out"
kill -9 "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
dpid=""
echo "   drain: exit 3, zero dropped, bench completed through restart"

echo "== phase 4: over-cap connection storm shed with BUSY =="
start_daemon "$WORK/storm" --max-conns 4 --sim-queue 2
python3 - "$WORK/storm/powerchopd.sock" << 'EOF'
import socket, sys
path = sys.argv[1]
busy = served = 0
conns = []
# Open far more connections than the cap, keeping earlier ones open:
# excess accepts must be answered BUSY and closed, unprompted.
for i in range(32):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(1)
    s.connect(path)
    conns.append(s)
for s in conns:
    try:
        head = s.recv(64)
    except socket.timeout:
        head = b""
    if head.startswith(b"BUSY "):
        busy += 1
        continue
    # No unsolicited frame: an admitted connection. Prove it serves.
    assert head == b"", head
    s.sendall(b"STATS\n")
    reply = s.recv(16)
    assert reply.startswith(b"OK "), reply
    served += 1
for s in conns:
    s.close()
print(f"   storm: {served} served, {busy} shed with BUSY")
assert busy >= 1, "no connection was shed"
assert served >= 1, "no connection was served"
EOF
kill -0 "$dpid" || {
    echo "FAIL: daemon died in the storm" >&2; exit 1; }
"$CLI" client --socket "$WORK/storm/powerchopd.sock" --stats \
    > "$WORK/storm_stats.json"
python3 - "$WORK/storm_stats.json" << 'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
assert st["shed_connections"] >= 1, st
print(f"   daemon alive: shed_connections={st['shed_connections']}")
EOF
kill -9 "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
dpid=""

echo "== phase 5: journal compaction, warm start identical =="
# A deliberately tiny cache (10 KiB) over many distinct keys: most
# journal records die by eviction, compaction must rewrite the file,
# and a warm restart must still serve the survivors byte-identically.
start_daemon "$WORK/compact" --cache-mb 0.01 --compact-ratio 0.4 \
    --compact-min-records 20
python3 - "$WORK/compact/powerchopd.sock" "$WORK" << 'EOF'
import json, socket, sys

def request(path, line):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(30)
    s.connect(path)
    s.sendall(line.encode() + b"\n")
    buf = b""
    while b"\n" not in buf:
        chunk = s.recv(65536)
        assert chunk, "daemon hung up mid-reply"
        buf += chunk
    head, _, rest = buf.partition(b"\n")
    status, length = head.split(b" ", 1)
    want = int(length)
    while len(rest) < want:
        chunk = s.recv(65536)
        assert chunk, "daemon hung up mid-payload"
        rest += chunk
    s.close()
    return status.decode(), rest

path, work = sys.argv[1], sys.argv[2]
spec = ('{{"workloads":["perlbench"],"machines":["server"],'
        '"modes":["full-power"],"insns":{}}}')
# 60 distinct keys x ~830 B payloads vs a 10 KiB budget: ~48
# evictions, far past the 0.4 dead ratio.
for i in range(60):
    status, _ = request(path, "SIM " + spec.format(20000 + i))
    assert status == "OK", (i, status)
status, last = request(path, "SIM " + spec.format(20000 + 59))
assert status == "HIT", status
open(f"{work}/compact_last.json", "wb").write(last)
status, stats = request(path, "STATS")
st = json.loads(stats)
assert st["compactions"] >= 1, st
assert st["journal_records"] < 60, st
assert st["evictions"] > 0, st
print(f"   compactions={st['compactions']} "
      f"journal_records={st['journal_records']} "
      f"dead={st['journal_dead_records']} (60 inserted)")
EOF
# SIGKILL (no graceful flush), then prove the compacted journal
# warm-starts the identical cache: the same SIM is a pure HIT with
# byte-identical payload.
kill -9 "$dpid"
wait "$dpid" 2>/dev/null || true
dpid=""
JLINES=$(wc -l < "$WORK/compact/cache.jsonl")
test "$JLINES" -lt 60 || {
    echo "FAIL: journal has $JLINES lines, compaction never ran" >&2
    exit 1; }
start_daemon "$WORK/compact" --cache-mb 0.01 --compact-ratio 0.4 \
    --compact-min-records 20
python3 - "$WORK/compact/powerchopd.sock" "$WORK" << 'EOF'
import json, socket, sys

def request(path, line):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(30)
    s.connect(path)
    s.sendall(line.encode() + b"\n")
    buf = b""
    while b"\n" not in buf:
        chunk = s.recv(65536)
        assert chunk, "daemon hung up mid-reply"
        buf += chunk
    head, _, rest = buf.partition(b"\n")
    status, length = head.split(b" ", 1)
    want = int(length)
    while len(rest) < want:
        chunk = s.recv(65536)
        assert chunk, "daemon hung up mid-payload"
        rest += chunk
    s.close()
    return status.decode(), rest

path, work = sys.argv[1], sys.argv[2]
spec = ('{"workloads":["perlbench"],"machines":["server"],'
        '"modes":["full-power"],"insns":20059}')
status, payload = request(path, "SIM " + spec)
assert status == "HIT", f"warm start lost the cache: {status}"
want = open(f"{work}/compact_last.json", "rb").read()
assert payload == want, "warm-started payload differs"
status, stats = request(path, "STATS")
st = json.loads(stats)
assert st["warm_started"] > 0, st
assert st["simulated_jobs"] == 0, st
print(f"   warm start: {st['warm_started']} entries, HIT "
      f"byte-identical after compaction + SIGKILL")
EOF
kill -9 "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
dpid=""

echo "chaos smoke OK (seed $SEED)"
