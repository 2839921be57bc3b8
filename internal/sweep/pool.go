package sweep

import (
	"slices"
	"sync"
	"weak"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
)

// EnginePool recycles the per-worker engine state of grid evaluation
// across evaluations, so a resident service (cmd/sbgpd, a dist worker)
// skips engine construction — stage-plan compilation plus the per-AS
// state slabs — on every job instead of paying it per evaluation. It
// recycles the sharded loop's dispatch scratch (shardRun) the same way,
// and it keeps the baseline memos of recent plans warm (memoFor), so a
// later plan on the same graph and pairs never re-runs a baseline.
//
// A pool is valid for every evaluation: each worker state holds one
// engine and it follows the job — rebound to another graph of the same
// size and switched between security models in place, rebuilt when the
// AS count or the LP variant changes (workerState.engine) — so one pool
// serves any mix of jobs with one engine per worker. Results are
// unaffected by pooling: engines fully reset per run, and a memo slot is
// a pure function of its key, so a pooled evaluation is byte-identical
// to a fresh one.
//
// get hands states out under a mutex and records the loan; Release
// returns every outstanding loan to the free list, and must only be
// called after the evaluation using the pool has returned (worker
// goroutines hold their state until then). A pool may be shared by
// concurrent evaluations — each worker gets a distinct state — but
// Release then returns the union of their loans, so serialize Release
// with evaluation completion.
type EnginePool struct {
	mu     sync.Mutex
	free   []*workerState
	loaned []*workerState
	runs   []*shardRun // idle RunShards scratch
	memos  []*warmMemo // least recently used first, at most maxWarmMemos
}

// NewEnginePool returns an empty pool; so is the zero EnginePool.
func NewEnginePool() *EnginePool { return &EnginePool{} }

func (p *EnginePool) get() *workerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ws *workerState
	if n := len(p.free); n > 0 {
		ws = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		ws = &workerState{}
	}
	p.loaned = append(p.loaned, ws)
	return ws
}

// Release returns every state handed out since the last Release to the
// free list, its engine let go of the graph (an idle pool keeps engines
// warm, not its last job's topology alive). Call it once the evaluation
// that used the pool has returned.
func (p *EnginePool) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ws := range p.loaned {
		if ws.eng != nil {
			ws.eng.Rebind(nil)
		}
	}
	p.free = append(p.free, p.loaned...)
	// Keep the loan ledger's capacity: a resident service calls
	// get/Release once per job, and re-growing the slice every cycle
	// would be the pool's only steady-state allocation.
	p.loaned = p.loaned[:0]
}

// Size reports how many worker states the pool currently retains
// (free + loaned) — warm-engine accounting for status endpoints.
func (p *EnginePool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free) + len(p.loaned)
}

// getRun hands out recycled (or fresh) scratch for one RunShards call.
func (p *EnginePool) getRun() *shardRun {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.runs); n > 0 {
		r := p.runs[n-1]
		p.runs = p.runs[:n-1]
		return r
	}
	return &shardRun{}
}

// putRun takes a finished RunShards call's scratch back, retiring the
// shards an aborted run left half-folded.
func (p *EnginePool) putRun(r *shardRun) {
	r.spare = append(r.spare, r.pending...)
	r.pending = r.pending[:0]
	r.commitErr, r.stats = nil, ShardStats{}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs = append(p.runs, r)
}

// maxWarmMemos bounds the baseline memos a pool keeps for later plans:
// with maxMemoPairs slots each, at most 4 MiB however many jobs pass.
const maxWarmMemos = 8

// warmMemo is a baseline memo a pool keeps, with the key every slot is a
// function of: the graph object, the LP variant, the built-in attack,
// and the attacker and destination axes, element by element, so slot
// di·na+ai names the same pair for every plan that finds it. The graph
// is held weakly: a pool must not keep dead topologies alive, and a weak
// pointer never equals one made for a later graph at a reused address.
type warmMemo struct {
	g      weak.Pointer[asgraph.Graph]
	lp     policy.LocalPref
	attack string
	m, d   []asgraph.AS
	memo   baselineMemo
}

// memoFor returns the baseline memo of pl's first evaluation on this
// pool: the warm memo of an earlier plan with pl's key, or a new one it
// registers, evicting the least recently used past maxWarmMemos and every
// entry whose graph is gone. Sharing is sound because a slot holds the
// pair's security-free outcome — the baseline run, the same under every
// deployment and model — and is written only after a complete run, with
// the same word by every writer. A nil pool (an evaluation without one)
// and a custom attack get a memo of their own: only a built-in
// strategy's name says what it does.
func (p *EnginePool) memoFor(pl *Plan) baselineMemo {
	gr := &pl.gr
	size := min(pl.ax.nd*pl.ax.na, maxMemoPairs)
	if p == nil || !gr.builtinAttack() {
		return make(baselineMemo, size)
	}
	key := warmMemo{g: weak.Make(pl.g), lp: gr.LP, attack: gr.attackName()}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, w := range p.memos {
		if w.g == key.g && w.lp == key.lp && w.attack == key.attack &&
			slices.Equal(w.m, gr.Attackers) && slices.Equal(w.d, gr.Destinations) {
			copy(p.memos[i:], p.memos[i+1:])
			p.memos[len(p.memos)-1] = w
			return w.memo
		}
	}
	p.memos = slices.DeleteFunc(p.memos, func(w *warmMemo) bool { return w.g.Value() == nil })
	if len(p.memos) == maxWarmMemos {
		p.memos = slices.Delete(p.memos, 0, 1)
	}
	// Copies: the key outlives the plan, and a caller may reuse its axis
	// slices for a later grid.
	key.m, key.d = slices.Clone(gr.Attackers), slices.Clone(gr.Destinations)
	key.memo = make(baselineMemo, size)
	p.memos = append(p.memos, &key)
	return key.memo
}

// builtinAttack reports whether the grid's attack is the nil default or
// the very strategy core.ParseAttack returns for its name.
func (gr *Grid) builtinAttack() bool {
	if gr.Attack == nil {
		return true
	}
	a, err := core.ParseAttack(gr.Attack.Name())
	return err == nil && a == gr.Attack
}
