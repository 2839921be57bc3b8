#!/bin/sh
# End-to-end smoke for the resident daemon: build sbgpd, start it on an
# ephemeral port, submit a small headline grid job over HTTP, wait for
# completion and fetch the result grid. Then kill the daemon for real:
# SIGKILL it mid-job on a multi-shard spec, and again right after the
# submit of a one-shard spec; each time restart it on the same data
# directory, wait for the job and byte-diff its result against a one-shot
# bgpsim -job run of the same spec. Last, shut down cleanly — promptly,
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
go build -o "$workdir/bgpsim" ./cmd/bgpsim

# start_daemon LOG starts sbgpd on the one data directory, logging to
# LOG, and sets pid and addr: the daemon prints its resolved address on
# stdout.
start_daemon() {
    "$workdir/sbgpd" -addr 127.0.0.1:0 -data "$workdir/data" >"$1" 2>&1 &
    pid=$!
    addr=
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's/^sbgpd listening on \([^ ]*\).*/\1/p' "$1")
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "sbgpd exited early:"; cat "$1"; exit 1; }
        i=$((i + 1))
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "sbgpd did not report an address:"; cat "$1"; exit 1; }
}

# submit SPEC prints the ID of a job submitted with the spec in file SPEC.
submit() {
    printf '{"spec": %s}' "$(cat "$1")" |
        curl -sS -X POST "http://$addr/jobs" --data-binary @- |
        sed -n 's/.*"id": "\([^"]*\)".*/\1/p'
}

# kill_daemon SIGKILLs the daemon: no shutdown path runs.
kill_daemon() {
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    pid=
}

# expect_golden ID SPEC waits for job ID, which must finish done with the
# bytes a one-shot bgpsim -job run of SPEC prints.
expect_golden() {
    curl -sS "http://$addr/jobs/$1/wait" >"$workdir/final.json"
    grep -q '"state": "done"' "$workdir/final.json" || {
        echo "job $1 did not complete after the restart:"; cat "$workdir/final.json"; exit 1; }
    "$workdir/bgpsim" -job "$2" >"$workdir/ref.json"
    curl -sS "http://$addr/jobs/$1/result" >"$workdir/result.json"
    cmp "$workdir/ref.json" "$workdir/result.json" || {
        echo "job $1 differs from the one-shot run of $2"; exit 1; }
}

start_daemon "$workdir/log"

cat >"$workdir/job.json" <<'JSON'
{
  "version": 1,
  "topology": {"n": 400, "seed": 1},
  "deployments": [{"named": "t1t2"}, {"named": "t2"}, {"named": "nonstubs"}],
  "pairs": {"max_m": 6, "max_d": 8},
  "shard_size": 64
}
JSON
id=$(submit "$workdir/job.json")
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

# SIGKILL mid-job on a multi-shard spec: small shards, each fsync'd, and
# one worker keep the job running long enough to land the kill while
# shards are committing. The restarted daemon resumes it from its
# checkpoint.
cat >"$workdir/multi.json" <<'JSON'
{
  "version": 1,
  "topology": {"n": 1000, "seed": 3},
  "deployments": [{"named": "t1t2"}, {"named": "t2"}],
  "pairs": {"max_m": 32, "max_d": 32},
  "shard_size": 8,
  "workers": 1
}
JSON
multi=$(submit "$workdir/multi.json")
[ -n "$multi" ] || { echo "submit of the multi-shard job did not return a job id"; exit 1; }
i=0
while [ $i -lt 300 ]; do
    done_shards=$(curl -sS "http://$addr/jobs/$multi" | sed -n 's/.*"shards_done": \([0-9]*\).*/\1/p')
    [ -n "$done_shards" ] && [ "$done_shards" -ge 2 ] && break
    i=$((i + 1))
    sleep 0.05
done
state=$(curl -sS "http://$addr/jobs/$multi" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
[ "$state" = "running" ] && [ "${done_shards:-0}" -ge 2 ] || {
    echo "multi-shard job is '$state' at '${done_shards:-}' shards before the kill; want running mid-grid"; exit 1; }
kill_daemon
start_daemon "$workdir/log-restart"
expect_golden "$multi" "$workdir/multi.json"

# SIGKILL right after the submit of a one-shard spec (the default shard
# size): the job has no checkpoint, and the restarted daemon runs it again.
cat >"$workdir/one.json" <<'JSON'
{
  "version": 1,
  "topology": {"n": 400, "seed": 5},
  "deployments": [{"named": "t1t2"}],
  "pairs": {"max_m": 6, "max_d": 8}
}
JSON
one=$(submit "$workdir/one.json")
[ -n "$one" ] || { echo "submit of the one-shard job did not return a job id"; exit 1; }
kill_daemon
start_daemon "$workdir/log-restart2"
expect_golden "$one" "$workdir/one.json"
grep -q '"shards_total": 1,' "$workdir/final.json" || {
    echo "the one-shard job is not one shard:"; cat "$workdir/final.json"; exit 1; }
[ -z "$(ls "$workdir/data/checkpoints")" ] || {
    echo "checkpoints left after both jobs finished:"; ls "$workdir/data/checkpoints"; exit 1; }

# A last job, far too large to finish here, keeps an events stream
# open: SIGTERM must still end the daemon at once (it interrupts the job
# and leaves it resumable), not after the HTTP grace period.
cat >"$workdir/long.json" <<'JSON'
{
  "version": 1,
  "topology": {"n": 4000, "seed": 1},
  "deployments": [{"named": "t1t2"}, {"named": "t2"}, {"named": "nonstubs"}],
  "pairs": {"full": true}
}
JSON
long=$(submit "$workdir/long.json")
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
[ "$took" -le 2 ] || { echo "shutdown with an events client attached took ${took}s (want <= 2):"; cat "$workdir/log-restart2"; exit 1; }
grep -q "stopped" "$workdir/log-restart2" || { echo "no clean shutdown:"; cat "$workdir/log-restart2"; exit 1; }
echo "sbgpd smoke OK ($addr, job $id; killed mid-job $multi and after submit $one, both byte-identical after restart)"
