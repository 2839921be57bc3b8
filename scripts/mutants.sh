#!/usr/bin/env bash
# Mutation table: copy a source tree to a temporary directory, apply each
# hand-seeded mutation below to the copy by an exact-match substitution
# (a pattern that does not match exactly once fails the script), run
# `go test -count=1 ./...` on each mutant, and print which tests kill it
# as the markdown table DESIGN.md records ("One sweep matrix").
#
# usage: scripts/mutants.sh [tree]    (default: this repository)
#
# One whole test run per mutation: minutes, so `make mutants` is not
# part of `make ci`. The mutations only touch non-test files, so the same
# list runs against an older checkout of the tree for a before/after
# comparison.
set -euo pipefail

src=$(cd "${1:-$(dirname "$0")/..}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tar -C "$src" --exclude=./.git -cf - . | tar -C "$work" -xf -

rows=()

# mutant NAME FILE OLD NEW: run the suite with OLD replaced by NEW in FILE
# (relative to the tree) and record the tests that fail.
mutant() {
    local name=$1 file=$work/$2 out killers
    cp "$file" "$work/.orig"
    OLD=$3 NEW=$4 perl -0777 -i -ne '
        my ($old, $new) = ($ENV{OLD}, $ENV{NEW});
        my $n = () = /\Q$old\E/g;
        die "pattern matches $n times, want once\n" unless $n == 1;
        substr($_, index($_, $old), length $old) = $new;
        print;' "$file" || { echo "mutants: $name: $2: pattern no longer matches" >&2; exit 1; }
    echo "mutants: $name" >&2
    out=$(cd "$work" && go test -count=1 -timeout 2m ./... 2>&1 || true)
    mv "$work/.orig" "$file"
    # A package's failing top-level tests precede its FAIL line, and so do
    # the tests a timeout caught running; a package that fails without
    # naming a test crashed or did not build.
    killers=$(printf '%s\n' "$out" | awk '
        /^[ \t]*--- FAIL: / && $3 !~ /\// { tests[++n] = $3 }
        /^panic: test timed out/ { timeout = 1 }
        timeout && /^\t\tTest/ && $1 !~ /\// { tests[++n] = $1 "(timeout)" }
        /^FAIL[ \t]+sbgp/ {
            pkg = $2; sub(/.*\//, "", pkg)
            if (n == 0) print pkg ".(" ($3 == "[build" ? "build failed" : "crashed") ")"
            for (i = 1; i <= n; i++) print pkg "." tests[i]
            n = timeout = 0
        }
        /^ok[ \t]/ { n = 0 }' | sort -u | paste -sd, - | sed 's/,/, /g')
    local count=0
    [ -n "$killers" ] && count=$(($(printf '%s' "$killers" | tr -cd , | wc -c) + 1))
    rows+=("| $name | ${count}: ${killers:-survived} |")
}

mutant "1 nextFree treats r > 1 as free" internal/sweep/scheduler.go \
    'if r := (p - s.blockStart[ci]) % clen; r != 0 {' \
    'if r := (p - s.blockStart[ci]) % clen; r > 1 {'
mutant "2 the carry's offer dropped" internal/sweep/scheduler.go \
    'c.offer(p1, prev)' \
    '_ = prev'
mutant "3 a slice fold skipped" internal/sweep/plan.go \
    'pd.acc.fold(slice)' \
    '_ = slice'
mutant "4 memo loaded for a non-free head" internal/sweep/scheduler.go \
    'if free {' \
    'if true {'
mutant "5 Result ignores a missing shard" internal/sweep/plan.go \
    'for s, ok := range store.have {' \
    'for s, ok := range store.have[:0] {'
mutant "6 settle hands the sink a shard whose fsync failed" internal/sweep/shard.go \
    $'\tif err != nil || p == nil {\n\t\treturn err\n\t}\n\treturn c.sink(p)' \
    $'\tif p == nil {\n\t\treturn err\n\t}\n\tif serr := c.sink(p); err == nil {\n\t\terr = serr\n\t}\n\treturn err'
mutant "7 forest step's added and removed swapped" internal/sweep/chain.go \
    'step.added, step.removed = core.DeploymentDelta(deps[prev].Dep, deps[v].Dep)' \
    'step.removed, step.added = core.DeploymentDelta(deps[prev].Dep, deps[v].Dep)'
mutant "8 runStrip's shard end one past the boundary" internal/sweep/plan.go \
    'shardEnd := min(shardStart+l.ShardSize, l.Cells)' \
    'shardEnd := min(shardStart+l.ShardSize+1, l.Cells)'
mutant "9 units cut at a non-free boundary" internal/sweep/plan.go \
    'if s == r.End || pl.sched.handoffFree(s*size) {' \
    'if s == r.End || pl.sched.handoffFree(s*size) || s%2 == 0 {'
mutant "10 add accepts a duplicate shard" internal/sweep/checkpoint_writer.go \
    'if w.have[p.Shard] {' \
    'if w.have[p.Shard] && p.Shard < 0 {'
mutant "11 resume keeps the torn tail" internal/sweep/checkpoint_writer.go \
    'if valid < len(data) {' \
    'if valid < 0 {'
mutant "12 memoFor ignores the graph and LP" internal/sweep/pool.go \
    'if w.g == key.g && w.lp == key.lp && w.attack == key.attack &&' \
    'if w.attack == key.attack &&'

echo "| mutation | killed by |"
echo "|---|---|"
printf '%s\n' "${rows[@]}"
