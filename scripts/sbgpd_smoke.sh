#!/bin/sh
# Endpoint smoke for the resident daemon: build sbgpd, start it on an
# ephemeral port, submit a small headline grid job over HTTP, wait for
# completion, fetch the result grid, and shut down cleanly — promptly,
# even with a progress stream attached to a job that is still running.
set -eu

workdir=$(mktemp -d)
pid=
cpid=
cleanup() {
    [ -n "$cpid" ] && kill "$cpid" 2>/dev/null || true
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/sbgpd" ./cmd/sbgpd

"$workdir/sbgpd" -addr 127.0.0.1:0 -data "$workdir/data" >"$workdir/log" 2>&1 &
pid=$!

# The daemon prints its resolved address on stdout; wait for it.
addr=
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^sbgpd listening on \([^ ]*\).*/\1/p' "$workdir/log")
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "sbgpd exited early:"; cat "$workdir/log"; exit 1; }
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr" ] || { echo "sbgpd did not report an address:"; cat "$workdir/log"; exit 1; }

cat >"$workdir/job.json" <<'JSON'
{
  "spec": {
    "version": 1,
    "topology": {"n": 400, "seed": 1},
    "deployments": [{"named": "t1t2"}, {"named": "t2"}, {"named": "nonstubs"}],
    "pairs": {"max_m": 6, "max_d": 8},
    "shard_size": 64
  }
}
JSON

id=$(curl -sS -X POST "http://$addr/jobs" --data-binary @"$workdir/job.json" |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "submit did not return a job id"; exit 1; }

curl -sS "http://$addr/jobs/$id/wait" >"$workdir/final.json"
grep -q '"state": "done"' "$workdir/final.json" || {
    echo "job did not complete:"; cat "$workdir/final.json"; exit 1; }

curl -sS "http://$addr/jobs/$id/result" >"$workdir/result.json"
grep -q '"graph_n"' "$workdir/result.json" || {
    echo "result grid looks wrong:"; head -c 400 "$workdir/result.json"; exit 1; }

# The job left one warm topology, and its engines in the daemon's one
# pool (so /status has no pool count to report).
curl -sS "http://$addr/status" >"$workdir/status.json"
grep -q '"topologies": 1,' "$workdir/status.json" &&
    grep -q '"warm_engines": [1-9]' "$workdir/status.json" &&
    ! grep -q 'engine_pools' "$workdir/status.json" || {
    echo "status after one job looks wrong:"; cat "$workdir/status.json"; exit 1; }

# A second job, far too large to finish here, keeps an events stream
# open: SIGTERM must still end the daemon at once (it interrupts the job
# and leaves it resumable), not after the HTTP grace period.
cat >"$workdir/long.json" <<'JSON'
{
  "spec": {
    "version": 1,
    "topology": {"n": 4000, "seed": 1},
    "deployments": [{"named": "t1t2"}, {"named": "t2"}, {"named": "nonstubs"}],
    "pairs": {"full": true}
  }
}
JSON
long=$(curl -sS -X POST "http://$addr/jobs" --data-binary @"$workdir/long.json" |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$long" ] || { echo "submit of the long job did not return a job id"; exit 1; }
curl -sS -N "http://$addr/jobs/$long/events" >"$workdir/events" 2>/dev/null &
cpid=$!
i=0
until grep -q '^event: job' "$workdir/events" 2>/dev/null; do
    i=$((i + 1))
    [ $i -lt 100 ] || { echo "events stream delivered nothing"; exit 1; }
    sleep 0.1
done

start=$(date +%s)
kill -TERM "$pid"
wait "$pid"
pid=
took=$(($(date +%s) - start))
[ "$took" -le 2 ] || { echo "shutdown with an events client attached took ${took}s (want <= 2):"; cat "$workdir/log"; exit 1; }
grep -q "stopped" "$workdir/log" || { echo "no clean shutdown:"; cat "$workdir/log"; exit 1; }
echo "sbgpd smoke OK ($addr, job $id)"
