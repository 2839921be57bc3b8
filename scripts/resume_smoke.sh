#!/bin/sh
# Resumable one-shot smoke: run a 400-AS JobSpec with 16-cell shards
# and a checkpoint under bgpsim -job, cut the checkpoint back to its
# header plus 4 shard records (an interrupted run), rerun the spec with
# "resume": true, and byte-diff both grids against a checkpoint-free
# run of the same job. The resumed run must dispatch fewer units than
# the fresh one (it skipped the recorded shards) and leave a checkpoint
# as long as the fresh run's.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/bgpsim" ./cmd/bgpsim

job='"version": 1, "topology": {"n": 400, "seed": 1}, "deployments": [{"named": "t1t2"}], "pairs": {}'
ckpt="\"shard_size\": 16, \"checkpoint\": \"$workdir/grid.ckpt\""
echo "{$job}" >"$workdir/plain.json"
echo "{$job, $ckpt}" >"$workdir/fresh.json"
echo "{$job, $ckpt, \"resume\": true}" >"$workdir/resume.json"

# units runs one spec with -v, keeps its grid, and prints the number of
# units the evaluation dispatched.
units() {
    "$workdir/bgpsim" -v -job "$workdir/$1.json" 2>"$workdir/$1.log" >"$workdir/$1.out"
    sed -n 's/.*dispatch: \([0-9]*\) units.*/\1/p' "$workdir/$1.log"
}

units plain >/dev/null
fresh=$(units fresh)
cmp "$workdir/plain.out" "$workdir/fresh.out"

lines=$(wc -l <"$workdir/grid.ckpt")
head -n 5 "$workdir/grid.ckpt" >"$workdir/cut.ckpt"
mv "$workdir/cut.ckpt" "$workdir/grid.ckpt"
resumed=$(units resume)
cmp "$workdir/plain.out" "$workdir/resume.out"

if [ "$resumed" -ge "$fresh" ]; then
    echo "resumed run dispatched $resumed units, fresh run $fresh: nothing was skipped" >&2
    exit 1
fi
if [ "$(wc -l <"$workdir/grid.ckpt")" -ne "$lines" ]; then
    echo "resumed checkpoint has $(wc -l <"$workdir/grid.ckpt") lines, want $lines" >&2
    exit 1
fi
echo "resume OK: $resumed of $fresh units rerun, grids byte-identical"
