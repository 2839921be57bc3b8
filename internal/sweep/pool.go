package sweep

import "sync"

// EnginePool recycles the per-worker engine state of grid evaluation
// across evaluations, so a resident service (cmd/sbgpd, a dist worker)
// skips engine construction — stage-plan compilation plus the per-AS
// state slabs — on every job instead of paying it per evaluation. It
// recycles the sharded loop's dispatch scratch (shardRun) the same way.
//
// A pool is valid for every evaluation: each worker state holds one
// engine and it follows the job — rebound to another graph of the same
// size and switched between security models in place, rebuilt when the
// AS count or the LP variant changes (workerState.engine) — so one pool
// serves any mix of jobs with one engine per worker. Results are
// unaffected by pooling: engines fully reset per run, so a pooled
// evaluation is byte-identical to a fresh one.
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
	r.commitErr, r.hits, r.misses = nil, 0, 0
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs = append(p.runs, r)
}
