#!/bin/sh
# Distributed-sweep smoke: start sbgpd -dist on an ephemeral port,
# attach two sbgpworker processes, submit a grid job, SIGKILL one
# worker mid-grid (its leases expire and re-issue to the survivor),
# and byte-diff the finished grid against a one-shot bgpsim -job run
# of the same spec. Any divergence — lost shard, double count, merge
# order — fails the cmp; the coordinator's stats must then show every
# shard accepted once and no duplicate transfer, and the daemon's
# /status "sweep" the engine work the workers sent on their submits.
set -eu

workdir=$(mktemp -d)
daemon_pid=
worker_a=
worker_b=
cleanup() {
    for p in "$daemon_pid" "$worker_a" "$worker_b"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/sbgpd" ./cmd/sbgpd
go build -o "$workdir/sbgpworker" ./cmd/sbgpworker
go build -o "$workdir/bgpsim" ./cmd/bgpsim

# Small shards make plenty of leases, so the kill below reliably
# strands at least one mid-grid.
cat >"$workdir/spec.json" <<'JSON'
{
  "version": 1,
  "topology": {"n": 300, "seed": 7},
  "deployments": [{"named": "t1t2"}],
  "pairs": {"max_m": 6, "max_d": 8},
  "shard_size": 4,
  "workers": 2
}
JSON

# The one-shot reference grid, evaluated on a single box.
"$workdir/bgpsim" -job "$workdir/spec.json" >"$workdir/ref.json"

"$workdir/sbgpd" -dist -lease-ttl 2s -lease-shards 3 -addr 127.0.0.1:0 -data "$workdir/data" >"$workdir/log" 2>&1 &
daemon_pid=$!

addr=
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^sbgpd listening on \([^ ]*\).*/\1/p' "$workdir/log")
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "sbgpd exited early:"; cat "$workdir/log"; exit 1; }
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr" ] || { echo "sbgpd did not report an address:"; cat "$workdir/log"; exit 1; }

# The doomed worker starts alone (so it certainly owns the early
# leases) and throttled (so the kill below reliably lands while it
# holds one).
"$workdir/sbgpworker" -coordinator "http://$addr" -id smoke-doomed -poll 100ms -throttle 100ms >"$workdir/worker-a.log" 2>&1 &
worker_a=$!

printf '{"spec": %s}' "$(cat "$workdir/spec.json")" >"$workdir/submit.json"
id=$(curl -sS -X POST "http://$addr/jobs" --data-binary @"$workdir/submit.json" |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "submit did not return a job id"; exit 1; }

# Wait until shards are landing, then SIGKILL the sole worker
# mid-grid: no goodbye, no final submit — the lease it holds strands,
# and the coordinator must re-issue it after the heartbeat deadline.
i=0
while [ $i -lt 300 ]; do
    done_shards=$(curl -sS "http://$addr/jobs/$id" | sed -n 's/.*"shards_done": \([0-9]*\).*/\1/p')
    [ -n "$done_shards" ] && [ "$done_shards" -ge 2 ] && break
    i=$((i + 1))
    sleep 0.1
done
[ -n "$done_shards" ] && [ "$done_shards" -ge 2 ] || {
    echo "grid never started landing shards:"; cat "$workdir/log"; exit 1; }
state=$(curl -sS "http://$addr/jobs/$id" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
[ "$state" = "running" ] || { echo "job is '$state' before the kill; too fast to test"; exit 1; }
kill -9 "$worker_a"
wait "$worker_a" 2>/dev/null || true
worker_a=

# The survivor arrives after the kill and finishes the grid, the
# re-leased shards included.
"$workdir/sbgpworker" -coordinator "http://$addr" -id smoke-survivor -poll 100ms >"$workdir/worker-b.log" 2>&1 &
worker_b=$!

curl -sS "http://$addr/jobs/$id/wait" >"$workdir/final.json"
grep -q '"state": "done"' "$workdir/final.json" || {
    echo "distributed job did not complete:"; cat "$workdir/final.json"
    echo "--- daemon log:"; cat "$workdir/log"
    echo "--- survivor log:"; cat "$workdir/worker-b.log"; exit 1; }

curl -sS "http://$addr/jobs/$id/result" >"$workdir/result.json"
cmp "$workdir/ref.json" "$workdir/result.json" || {
    echo "distributed grid differs from one-shot reference"; exit 1; }

stats=$(curl -sS "http://$addr/dist/v1/stats")
echo "coordinator stats: $stats"
expired=$(printf '%s' "$stats" | sed -n 's/.*"leases_expired":\([0-9]*\).*/\1/p')
[ -n "$expired" ] && [ "$expired" -ge 1 ] || {
    echo "no lease expired: the kill never stranded a lease"; exit 1; }

# The kill costs re-evaluation, never a duplicate transfer: the
# coordinator accepted each of the job's shards once and nothing twice.
shards=$(sed -n 's/.*"shards_total": \([0-9]*\).*/\1/p' "$workdir/final.json")
accepted=$(printf '%s' "$stats" | sed -n 's/.*"shards_accepted":\([0-9]*\).*/\1/p')
duplicates=$(printf '%s' "$stats" | sed -n 's/.*"duplicates":\([0-9]*\).*/\1/p')
[ -n "$shards" ] && [ "$accepted" = "$shards" ] || {
    echo "coordinator accepted '$accepted' shards, the job has '$shards'"; exit 1; }
[ "$duplicates" = 0 ] || {
    echo "coordinator counted '$duplicates' duplicate shards"; exit 1; }

# The workers' counters reach /status as a local job's would.
status=$(curl -sS "http://$addr/status")
runs=$(printf '%s' "$status" | sed -n 's/.*"runs": \([0-9]*\).*/\1/p')
units=$(printf '%s' "$status" | sed -n 's/.*"units": \([0-9]*\).*/\1/p')
[ -n "$runs" ] && [ "$runs" -ge 1 ] && [ -n "$units" ] && [ "$units" -ge 1 ] || {
    echo "/status sweep counts runs '$runs' and units '$units', want at least 1 each:"; echo "$status"; exit 1; }

kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=
grep -q "stopped" "$workdir/log" || { echo "no clean shutdown:"; cat "$workdir/log"; exit 1; }
echo "dist smoke OK ($addr, job $id, killed worker re-leased, $shards shards each accepted once, bytes identical, $runs runs in $units units)"
