#!/usr/bin/env bash
# Kill table: copy a source tree to a temporary directory, check that
# each hand-seeded mutation below matches exactly once in its file, then
# apply each to the copy in turn, run `go test -count=1 ./...` on it, and
# print which tests kill it as the markdown table DESIGN.md records ("The
# kill table"): per package the number of killers, and their names where
# a row has three or fewer. stderr names every killer.
#
# usage: scripts/mutants.sh [tree]    (default: this repository)
#
# One whole test run per mutation, so `make mutants` is not part of
# `make ci`. The mutations only touch non-test files, so the same list
# runs against an older checkout of the tree for a before/after
# comparison.
set -euo pipefail

src=$(cd "${1:-$(dirname "$0")/..}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tar -C "$src" --exclude=./.git -cf - . | tar -C "$work" -xf -

layers=() names=() files=() olds=() news=()

# mutant NAME FILE OLD NEW: a mutation of $layer replacing OLD by NEW in
# FILE (relative to the tree).
mutant() { layers+=("$layer"); names+=("$1"); files+=("$2"); olds+=("$3"); news+=("$4"); }

layer=sweep # the schedule, the shard loop and the store
mutant "nextFree treats r > 1 as free" internal/sweep/scheduler.go \
    'if r := (p - s.blockStart[ci]) % clen; r != 0 {' \
    'if r := (p - s.blockStart[ci]) % clen; r > 1 {'
mutant "the carry's offer dropped" internal/sweep/scheduler.go \
    'c.offer(p1, prev)' \
    '_ = prev'
mutant "a slice fold skipped" internal/sweep/plan.go \
    'pd.acc.fold(slice)' \
    '_ = slice'
mutant "memo loaded for a non-free head" internal/sweep/scheduler.go \
    'if free {' \
    'if true {'
mutant "Result ignores a missing shard" internal/sweep/plan.go \
    'for s, ok := range store.have {' \
    'for s, ok := range store.have[:0] {'
mutant "settle hands the sink a shard whose fsync failed" internal/sweep/shard.go \
    $'\tif err != nil || p == nil {\n\t\treturn err\n\t}\n\treturn c.sink(p)' \
    $'\tif p == nil {\n\t\treturn err\n\t}\n\tif serr := c.sink(p); err == nil {\n\t\terr = serr\n\t}\n\treturn err'
mutant "forest step's added and removed swapped" internal/sweep/chain.go \
    'step.added, step.removed = core.DeploymentDelta(deps[prev].Dep, deps[v].Dep)' \
    'step.removed, step.added = core.DeploymentDelta(deps[prev].Dep, deps[v].Dep)'
mutant "runStrip's shard end one past the boundary" internal/sweep/plan.go \
    'shardEnd := min(shardStart+l.ShardSize, l.Cells)' \
    'shardEnd := min(shardStart+l.ShardSize+1, l.Cells)'
mutant "units cut at a non-free boundary" internal/sweep/plan.go \
    'if s == r.End || pl.sched.handoffFree(s*size) {' \
    'if s == r.End || pl.sched.handoffFree(s*size) || s%2 == 0 {'
mutant "add accepts a duplicate shard" internal/sweep/checkpoint_writer.go \
    'if w.have[p.Shard] {' \
    'if w.have[p.Shard] && p.Shard < 0 {'
mutant "resume keeps the torn tail" internal/sweep/checkpoint_writer.go \
    'if valid < len(data) {' \
    'if valid < 0 {'
mutant "memoFor ignores the graph and LP" internal/sweep/pool.go \
    'if w.g == key.g && w.lp == key.lp && w.attack == key.attack &&' \
    'if w.attack == key.attack &&'

layer=core # the engine
mutant "RunDelta skips seedSecureReverse" internal/core/delta.go \
    'e.seedSecureReverse(prev, removed)' \
    '_ = removed'
mutant "markVanished marks nothing" internal/core/delta.go \
    $'func (e *Engine) markVanished(prev *Outcome, v asgraph.AS) {\n' \
    $'func (e *Engine) markVanished(prev *Outcome, v asgraph.AS) {\n\tif prev != nil {\n\t\treturn\n\t}\n'
mutant "RunDelta skips the happyLo update" internal/core/delta.go \
    'e.happyLo += nlo - plo' \
    '_ = nlo - plo'
mutant "rollback leaves Next" internal/core/engine.go \
    $'\t\to.Next[v] = asgraph.None\n\t}\n}\n\n// bumpStageEpoch' \
    $'\t}\n}\n\n// bumpStageEpoch'
mutant "a simplex destination called security-free" internal/core/delta.go \
    $'Dep: dep}\n\tatk.Seed(&e.seeder)\n' \
    $'Dep: dep}\n\tatk.Seed(&e.seeder)\n\tif dep.OriginSecure(d) && !dep.Full.Has(d) {\n\t\treturn true\n\t}\n'
mutant "Rebind keeps stale degrees" internal/core/engine.go \
    'if g != nil && e.deg != nil {' \
    'if g != nil && e.deg == nil {'
mutant "security 1st immune rule flipped" internal/core/perceive.go \
    'case !p.mReach[v]:' \
    'case p.mReach[v]:'
mutant "ties break toward the highest index" internal/core/engine.go \
    'if w < acc.next {' \
    'if w > acc.next {'
mutant "the origin spoof passes RPKI" internal/core/attack.go \
    'func (OriginSpoof) Seed(s *Seeder) { s.OriginateDest() }' \
    'func (OriginSpoof) Seed(s *Seeder) { s.OriginateDest(); s.AnnounceBogus(1) }'
mutant "installPrev skips Next" internal/core/delta.go \
    'copy(o.Next, prev.Next)' \
    '_ = prev.Next'

layer=dist # the coordinator
mutant "pruneLocked never expires a lease" internal/dist/coordinator.go \
    'if now.After(l.expires) {' \
    'if now.After(l.expires) && l == nil {'
mutant "the grant carries no Have" internal/dist/coordinator.go \
    'grant := &LeaseGrant{Have: aj.cw.HaveRanges()}' \
    'grant := &LeaseGrant{}'
mutant "the Duplicates count dropped" internal/dist/coordinator.go \
    'c.stats.Duplicates += duplicates' \
    '_ = duplicates'
mutant "Submit sinks the valid batch, not what AddBatch added" internal/dist/coordinator.go \
    'for _, p := range added {' \
    'for _, p := range partials[:valid] {'

layer=daemon # internal/service's run loop
mutant "a shutdown-cancelled job recorded failed" internal/service/runner.go \
    $'// resumes the job from its checkpoint.\n\t\t\tj.State = StateQueued' \
    $'// resumes the job from its checkpoint.\n\t\t\tj.State = StateFailed'
mutant "Open skips the requeue" internal/service/service.go \
    $'if !j.State.Terminal() {\n\t\t\t// Queued again' \
    $'if false {\n\t\t\t// Queued again'
mutant "/wait answers 200 at shutdown" internal/service/http.go \
    'writeError(w, http.StatusServiceUnavailable, fmt.Errorf("job %s is not finished' \
    'writeError(w, http.StatusOK, fmt.Errorf("job %s is not finished'
mutant "the checkpoint kept after the result" internal/service/runner.go \
    'os.Remove(s.CheckpointPath(id))' \
    '_ = s.CheckpointPath(id)'

layer=asgraph # Builder.Build
mutant "a peering counted as customer-provider" internal/asgraph/graph.go \
    $'g.numP2P++\n\t\t} else {' \
    $'g.numC2P++\n\t\t} else {'
mutant "an edge's two ends swap lists" internal/asgraph/graph.go \
    $'= la\n\t\tfill[e.b]++\n\t\tends[off[3*int(e.a)]+fill[e.a]] = lb' \
    $'= lb\n\t\tfill[e.b]++\n\t\tends[off[3*int(e.a)]+fill[e.a]] = la'
mutant "the list starts not restored" internal/asgraph/graph.go \
    $'copy(off[1:], off)\n\toff[0] = 0' \
    $'off[0] = 0'
mutant "a repeated edge not refused" internal/asgraph/graph.go \
    'if hasRepeat(g.Customers(v), g.Peers(v), g.Providers(v)) {' \
    'if v < 0 && hasRepeat(g.Customers(v), g.Peers(v), g.Providers(v)) {'

layer=checkpoint # internal/sweep's record parser
mutant "trailing data after a record accepted" internal/sweep/checkpoint.go \
    'if dec.More() {' \
    'if dec.More() && data == nil {'
mutant "the header's shard count unchecked" internal/sweep/checkpoint.go \
    'if ln.Cells <= 0 || ln.ShardSize <= 0 || ln.Shards != numShards(ln.Cells, ln.ShardSize) {' \
    'if ln.Cells <= 0 || ln.ShardSize <= 0 {'
mutant "a corrupt record mid-file read as a torn tail" internal/sweep/checkpoint_writer.go \
    'if last && i > 0 {' \
    'if i > 0 {'
mutant "a second header skipped" internal/sweep/checkpoint_writer.go \
    $'if hdr != nil {\n\t\t\treturn 0, fmt.Errorf("line %d: duplicate header", i+1)' \
    $'if hdr != nil {\n\t\t\tcontinue'
mutant "a shard one past the range accepted" internal/sweep/checkpoint_writer.go \
    'if p.Shard >= l.Shards {' \
    'if p.Shard > l.Shards {'

layer=dist # the coordinator and the worker, beside the daemon
mutant "the coordinator drops a submit's stats" internal/dist/coordinator.go \
    'aj.job.Stats.Fold(*stats)' \
    '_ = stats'
mutant "the worker skips the failure report" internal/dist/worker.go \
    '_, _ = w.submit(ctx, submitRequest{Fingerprint: fingerprint, Error: evalErr.Error()})' \
    '_ = evalErr'

# Pre-flight: every pattern matches exactly once.
for i in "${!names[@]}"; do
    n=$(OLD=${olds[i]} perl -0777 -ne 'print scalar(() = /\Q$ENV{OLD}\E/g)' "$work/${files[i]}")
    [ "$n" = 1 ] || { echo "mutants: $((i + 1)) ${names[i]}: ${files[i]}: pattern matches $n times, want once" >&2; stale=1; }
done
[ -z "${stale:-}" ] || exit 1

echo "| # | layer | mutation | killed by |"
echo "|---|---|---|---|"
for i in "${!names[@]}"; do
    file=$work/${files[i]}
    cp "$file" "$work/.orig"
    OLD=${olds[i]} NEW=${news[i]} perl -0777 -i -pe \
        'substr($_, index($_, $ENV{OLD}), length $ENV{OLD}) = $ENV{NEW}' "$file"
    out=$(cd "$work" && go test -count=1 -timeout 2m ./... 2>&1 || true)
    mv "$work/.orig" "$file"
    # A package's failing top-level tests precede its FAIL line, and so do
    # the tests a timeout caught running; a package that fails without
    # naming a test crashed or did not build.
    cell=$(printf '%s\n' "$out" | awk -v row="mutants: $((i + 1)) ${names[i]}:" '
        /^[ \t]*--- FAIL: / && $3 !~ /\// { tests[++n] = $3 }
        /^panic: test timed out/ { timeout = 1 }
        timeout && /^\t\tTest/ && $1 !~ /\// { tests[++n] = $1 "(timeout)" }
        /^FAIL[ \t]+sbgp/ {
            pkg = $2; sub(/.*\//, "", pkg)
            if (n == 0) tests[++n] = "(" ($3 == "[build" ? "build failed" : "crashed") ")"
            for (i = 1; i <= n; i++) if (!seen[pkg, tests[i]]++) {
                if (!(pkg in c)) pkgs[++np] = pkg
                names[pkg] = names[pkg] (c[pkg]++ ? ", " : "") "`" tests[i] "`"
                row = row " " pkg "." tests[i]; k++
            }
            n = timeout = 0
        }
        /^ok[ \t]/ { n = 0 }
        END {
            print row > "/dev/stderr"
            if (k == 0) { print "survived"; exit }
            s = k " — "
            for (i = 1; i <= np; i++)
                s = s (i > 1 ? "; " : "") pkgs[i] (k <= 3 ? ": " names[pkgs[i]] : " " c[pkgs[i]])
            print s
        }')
    echo "| $((i + 1)) | ${layers[i]} | ${names[i]} | $cell |"
done
