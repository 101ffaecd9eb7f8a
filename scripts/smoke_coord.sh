#!/usr/bin/env bash
# Smoke test for coordinated sweeps, run by the CI `smoke-coord` job and
# runnable locally: build the CLI and the server, take a single-process
# sweep as the reference output, then (1) start a coordinated sweep with
# a checkpoint file, SIGKILL it mid-flight once at least one range has
# completed, assert the checkpoint holds a resumable partial state,
# re-run the identical invocation and check the resumed output is
# byte-identical to the reference; (2) run a coordinated sweep that
# enlists a live setconsensusd via -join and check that distributed
# output is byte-identical too, with the server's /metrics reflecting
# the range jobs it ran.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
daemon=""
coordpid=""
cleanup() {
    [ -n "$daemon" ] && kill "$daemon" 2>/dev/null || true
    [ -n "$coordpid" ] && kill -KILL "$coordpid" 2>/dev/null || true
    # Whatever failure path got us here, nothing this shell spawned may
    # outlive it: sweep the job table, then reap before removing state.
    stray=$(jobs -p)
    [ -n "$stray" ] && kill $stray 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/setconsensus" ./cmd/setconsensus
go build -o "$workdir/setconsensusd" ./cmd/setconsensusd

# Split across ~64 ranges, so a SIGKILL polled every ~10ms lands on a
# partial checkpoint; small enough to stay friendly to CI.
workload="space:n=5,t=2,r=2,v=0..1"
protocols="optmin,upmin"
range_size=2048
ckpt="$workdir/sweep.ckpt"

echo "== single-process reference sweep"
"$workdir/setconsensus" -protocol "$protocols" -workload "$workload" \
    >"$workdir/mono.txt"

echo "== coordinated sweep, SIGKILL mid-flight"
"$workdir/setconsensus" -coordinate -workers 2 -range-size "$range_size" \
    -checkpoint "$ckpt" -protocol "$protocols" -workload "$workload" \
    >"$workdir/killed.txt" 2>&1 &
coordpid=$!
killed=""
for _ in $(seq 1 500); do
    if ! kill -0 "$coordpid" 2>/dev/null; then
        break # finished before we could kill it: resume still must work
    fi
    # A grep, not a JSON parse: the whole sweep takes a few hundred ms,
    # less than one interpreter start, so the poll must be cheap to land
    # mid-flight. The checkpoint is replaced by rename, so a read sees a
    # whole file; the assertions below parse it properly after the kill.
    if grep -q '"done":\[{' "$ckpt" 2>/dev/null; then
        kill -KILL "$coordpid"
        killed=yes
        break
    fi
    sleep 0.01
done
wait "$coordpid" 2>/dev/null || true
coordpid=""
if [ -z "$killed" ]; then
    echo "WARN: sweep finished before SIGKILL landed; resume will be a no-op merge"
else
    echo "   killed with $(python3 -c "
import json
print(len(json.load(open('$ckpt'))['done']))") ranges done"
    python3 -c "
import json, sys
d = json.load(open('$ckpt'))
assert d['version'] == 2, d['version']
assert d.get('checksum'), 'checkpoint carries no integrity checksum'
assert len(d['done']) >= 1, 'no completed ranges in checkpoint'
assert d['pending'] or not d['exhausted'], 'checkpoint already complete; kill landed too late'
print('   checkpoint is a resumable partial state')
"
fi

echo "== resume from checkpoint"
"$workdir/setconsensus" -coordinate -workers 2 -range-size "$range_size" \
    -checkpoint "$ckpt" -protocol "$protocols" -workload "$workload" \
    >"$workdir/resumed.txt"
diff -u "$workdir/mono.txt" "$workdir/resumed.txt"
echo "   resumed output identical to single-process run"

echo "== start setconsensusd for the -join leg"
base=""
for attempt in 1 2 3; do
    port=$(( (RANDOM % 20000) + 20000 ))
    addr="127.0.0.1:$port"
    "$workdir/setconsensusd" -addr "$addr" -workers 2 -deadline 2m \
        >"$workdir/daemon.log" 2>&1 &
    daemon=$!
    for _ in $(seq 1 50); do
        if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
            base="http://$addr"
            break 2
        fi
        if ! kill -0 "$daemon" 2>/dev/null; then
            daemon=""
            break # bind failure (port taken): try another port
        fi
        sleep 0.1
    done
    [ -n "$daemon" ] && kill "$daemon" 2>/dev/null && wait "$daemon" 2>/dev/null || true
    daemon=""
done
if [ -z "$base" ]; then
    echo "FAIL: server did not come up"
    cat "$workdir/daemon.log"
    exit 1
fi
echo "   listening on $base"

echo "== coordinated sweep with remote workers"
"$workdir/setconsensus" -coordinate -workers 1 -join "$base" \
    -range-size "$range_size" -protocol "$protocols" -workload "$workload" \
    >"$workdir/joined.txt"
diff -u "$workdir/mono.txt" "$workdir/joined.txt"
echo "   distributed output identical to single-process run"

echo "== server /metrics saw the range jobs"
curl -fsS "$base/metrics" >"$workdir/metrics.txt"
grep -q '^setconsensusd_jobs_done [1-9]' "$workdir/metrics.txt" || {
    echo "FAIL: /metrics shows no completed jobs"
    cat "$workdir/metrics.txt"
    exit 1
}
grep -q '^# TYPE setconsensusd_runs_total counter$' "$workdir/metrics.txt"
echo "   $(grep '^setconsensusd_jobs_done' "$workdir/metrics.txt")"

kill "$daemon" 2>/dev/null || true
wait "$daemon" 2>/dev/null || true
daemon=""
echo "smoke ok"
