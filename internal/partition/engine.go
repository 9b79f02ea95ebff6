package partition

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
	"uagpnm/internal/workpool"
)

// Engine is the distance substrate of UA-GPNM, in one of two shapes
// decided once, in NewEngine, and never changed afterwards.
//
// The ball plane — no WithShards, no WithStitchedQueries — is the data
// graph, the horizon and two tables of materialised ball rows, each row
// a bounded BFS over the graph, read only as deep as the reads that
// reach it ask (ball). It holds no
// Partitioning, no shard and no overlay, cannot lose a worker, and its
// mutations only move the graph and clear the change log's rows
// (dropRows: the rest stay, however many epochs pass). It is what every
// in-process session and hub, every fork and every clone of a remote
// engine run on: the matcher asks for bounded balls and nothing else.
//
// The §V plane — a fleet (WithShards) or WithStitchedQueries — is the
// paper's partition-based SLen: per-partition intra distances plus the
// bridge overlay, with a ball row assembled by stitching
//
//	d(x,y) = min( d_intra(x,y) [same partition],
//	              min_{u ∈ exits(x), b ∈ entries(y)}
//	                  d_intra(x,u) + d_overlay(u,b) + d_intra(b,y) ),
//
// which is exact: any path decomposes into intra segments joined by
// cross edges, and the overlay's Dijkstra minimises over all such
// compositions. Updates stay local: an intra-partition change touches
// one partition engine (and the overlay only when bridge-node distances
// move); a cross edge touches only the overlay. The plane is eager, like
// the workers of a fleet: Build leaves every intra engine and the
// overlay built, every op advances the engines, and each batch
// reconciles the overlay inside its own failover boundary — a read never
// builds or reconciles anything but its own row. Here the engine is the
// *coordinator*: it owns the data graph, the partition bookkeeping
// (membership, bridge-node counters, subgraph mirrors), the overlay and
// the row tables; the intra engines — the superlinear part of the state
// — live behind the shard.Shard seam, in one in-process shard.Local or
// in remote workers (cmd/gpnm-shard over HTTP). Affected balls are the
// coordinator's on both shapes: bounded BFS over the graph it owns.
//
// Both shapes answer the same oracle, and the three point methods (Dist,
// WithinHops, Reachable) are one ForwardBall scan on either.
//
// Concurrency contract: mutations are single-goroutine like every other
// DistanceEngine — callers never invoke two mutating methods (Build,
// ApplyDataBatch, EnsureHorizon) concurrently, nor a
// mutation concurrently with anything else. The engine itself fans
// embarrassingly parallel phases (per-partition intra builds, per-source
// overlay Dijkstras, per-update affected balls) across the workpool,
// as wide as GOMAXPROCS (and across shard processes when remote);
// every parallel phase only reads shared structures and keeps its
// mutable state in pooled per-worker scratch, with results installed
// from a single goroutine.
//
// Read epochs: between mutations the query side (Dist, WithinHops,
// Reachable, Forward/ReverseBall, CloneFor) is safe for any number of
// concurrent goroutines — queries read structures that are immutable
// until the next mutation, per-query scratch is pooled, and the one lazy
// fill needs no caller-side locking: a ball row missing from its table,
// or too shallow for a read, is built or deepened on read and published
// atomically into its slot (no lock; see rowTable). The standing-query hub
// (internal/hub) leans on exactly this: one writer advances the engine
// per batch, then many per-pattern readers amend against the frozen
// post-batch state. Shard implementations honour the same contract
// (concurrent reads between mutations).
//
// Engine implements shortest.DistanceEngine; affected sets are the
// conservative ball supersets documented on ApplyDataBatch.
type Engine struct {
	g       *graph.Graph
	horizon int

	// sectionV is nil on the ball plane; its fields are promoted, so
	// code that touches §V state on a ball-plane engine faults at once.
	*sectionV

	gballPool sync.Pool // *shortest.GraphBall, per-worker adjacency BFS

	// Materialised ball rows, indexed by direction (0 forward, 1
	// reverse) and source node, built on the first read that goes past
	// the source: on the ball plane to that read's depth and rebuilt
	// deeper when a later read goes further, on the §V plane at the full
	// horizon. The matching fixpoint queries the same sources many times
	// per amendment; a materialised row makes every repeat a prefix scan,
	// as it would be on a materialised global SLen. A row stays until its
	// source moves: a mutation clears only its change log's slots
	// (dropRows), so the tables hold at most one row per (id, direction),
	// and a fork starts with its parent's rows (CloneFor).
	rows         [2]rowTable
	rowsBuilt    [2]*obs.Counter // first builds, forward and reverse
	rowsDeepened [2]*obs.Counter // open rows read deeper, forward and reverse

	// metrics receives the engine's telemetry (batch phase latencies,
	// recovery counters); never nil — obs.Default unless WithMetrics.
	// trace, when non-nil, additionally collects each completed phase
	// span into the current batch's trace. It is set by the single
	// mutation writer (SetTraceSink) and only ever read from the
	// mutation goroutine, so it needs no lock.
	metrics *obs.Registry
	trace   *obs.Trace
}

// sectionV is everything only the §V plane holds: the partitioning, the
// overlay, the shard table and the failover state around it.
type sectionV struct {
	part *Partitioning
	ov   *overlay

	// shards host the per-partition intra engines — one shard.Local, or
	// the remote fleet; shardOf maps a partition index to its owning
	// slot (round-robin over the alive slots for partitions created
	// after construction). remote is set when the shards are
	// out-of-process (every op flush then goes to every alive shard
	// under one epoch fence; each worker skips the ops it does not own).
	//
	// shardAlive quarantines lost slots: a dead slot's partitions are
	// reassigned by the failover controller (recovery.go) and the slot
	// either receives a promoted spare (same index, so in-flight ops'
	// Op.Shard routing stays meaningful) or stays dead. spares are the
	// standby workers -spare-shards configured, promoted in order.
	shards     []shard.Shard
	shardOf    []int32
	shardAlive []bool
	spares     []shard.Shard
	remote     bool

	// Failover state. recoveryBudget is what remains of failoverBudget
	// inside the current failover boundary. opEpoch fences the op
	// stream: every remote flush carries a strictly increasing epoch, so
	// a failover retry of the same flush is idempotent on survivors.
	// recoverable is set while a failover-protected phase runs — shard
	// faults then unwind as repairable *shardFault panics instead of
	// poisoning.
	recoveryBudget int
	opEpoch        uint64
	recoverable    atomic.Bool
	recoveringFlag atomic.Bool
	recoveredN     atomic.Uint64

	ballPool sync.Pool // *ballScratch, per-worker stitched-ball state

	// lost poisons the engine after an unrecoverable shard failure —
	// failover found no surviving or spare worker, or the per-mutation
	// budget was spent: the substrate may be half-synchronised relative
	// to the data graph, so every further answer could be silently
	// wrong. Guarded by lostMu (shard calls happen on pool workers);
	// once set it never clears.
	lostMu sync.Mutex
	lost   error
}

// SetTraceSink directs the engine's per-phase spans (batch phases,
// recovery spans) into t in addition to the metrics registry — the hub
// sets one per batch so GET /v1/trace can show a batch's full phase
// breakdown. Pass nil to detach. Caller contract: only the single
// mutation writer may set or clear the sink, and the sink must stay
// attached for the whole mutation (spans are appended from the
// mutation goroutine only).
func (e *Engine) SetTraceSink(t *obs.Trace) { e.trace = t }

// span records one completed phase: a latency observation in the
// shared gpnm_batch_phase_seconds histogram family and, when a trace
// sink is attached, a span in the current batch's trace.
func (e *Engine) span(name string, start time.Time) {
	d := time.Since(start)
	e.metrics.Histogram("gpnm_batch_phase_seconds", "phase", name).Observe(d)
	if e.trace != nil {
		e.trace.AddSpan(name, d)
	}
}

// Err reports the sticky substrate-loss error (nil while healthy, and
// always on the ball plane, which has no substrate to lose). Once
// non-nil the engine refuses further work: reads and mutations raise
// the same error, which boundary methods convert via
// RecoverSubstrateLoss.
func (e *Engine) Err() error {
	if e.sectionV == nil {
		return nil
	}
	e.lostMu.Lock()
	defer e.lostMu.Unlock()
	return e.lost
}

// shardFault is the repairable form of a shard loss: it identifies the
// failing slot so the failover controller can quarantine it, and wraps
// the transport error so a terminal poison still surfaces it.
type shardFault struct {
	idx int
	err error
}

func (f *shardFault) Error() string { return fmt.Sprintf("shard %d: %v", f.idx, f.err) }
func (f *shardFault) Unwrap() error { return f.err }

// shardFail raises a failure of shard slot idx. Inside a
// failover-protected phase (withFailover) it panics with a repairable
// *shardFault — workpool.ForEach re-raises worker panics on the phase's
// caller, where the failover controller quarantines the slot, rebuilds
// its partitions from the coordinator's subgraph mirrors on survivors
// or spares, and retries the phase. Outside such a phase (the
// error-less DistanceEngine query surface, read between mutations) the
// old discipline holds: record the sticky loss and panic with it until
// a boundary method (ApplyDataBatch here, ApplyBatch/Register in
// internal/hub) converts it back into a return value with
// RecoverSubstrateLoss. The raw shard error stays wrapped either way,
// so errors.As still surfaces the *shard.TransportError.
func (e *Engine) shardFail(idx int, err error) {
	if e.recoverable.Load() {
		//lint:allow panic this panic IS the failover seam: withFailover recovers the *shardFault and repairs the fleet
		panic(&shardFault{idx: idx, err: err})
	}
	e.poison(err)
}

// poison records err as the engine's terminal substrate loss (first
// failure wins) and panics with the sticky error.
func (e *Engine) poison(err error) {
	e.lostMu.Lock()
	if e.lost == nil {
		e.lost = fmt.Errorf("partition: %w: %w", shard.ErrSubstrateLost, err)
	}
	err = e.lost
	e.lostMu.Unlock()
	//lint:allow panic sticky-loss unwind; boundary methods convert it back to an error via RecoverSubstrateLoss
	panic(err)
}

// ensureUsable panics with the sticky loss so a poisoned engine can
// never advance (or answer from) a diverged substrate.
func (e *Engine) ensureUsable() {
	if err := e.Err(); err != nil {
		//lint:allow panic sticky-loss unwind; boundary methods convert it back to an error via RecoverSubstrateLoss
		panic(err)
	}
}

// RecoverSubstrateLoss converts a substrate-loss panic into *err; any
// other panic is re-raised. Boundary methods defer it to turn the
// engine's internal unwinding into an ordinary error return:
//
//	func (e *Engine) ApplyDataBatch(...) (..., err error) {
//		defer RecoverSubstrateLoss(&err)
//		...
//	}
//
// Callers detect the condition with errors.Is(err, shard.ErrSubstrateLost).
func RecoverSubstrateLoss(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if e, ok := r.(error); ok && errors.Is(e, shard.ErrSubstrateLost) {
		*err = e
		return
	}
	//lint:allow panic re-raise of a foreign panic; only substrate-loss panics belong to this recovery seam
	panic(r)
}

// invalidate drops every materialised row — for the mutations that can
// move any row: a build, a horizon widening, a fleet repair — and leaves
// empty tables over the graph's id space as it now stands, with the
// quarter of headroom dropRows grows by, so the node inserts of the next
// batches do not regrow them.
func (e *Engine) invalidate() {
	n := e.g.NumIDs()
	n += n / 4
	e.rows = [2]rowTable{make(rowTable, n), make(rowTable, n)}
}

// dropRows ends a mutation by clearing the slots of its change log in
// place. Every other row is still exact — a row is d(x,·) within the
// horizon on either shape, and it moves only if some pair (x,·) moves,
// which puts x in that mutation's change log — so it stays for the next
// read epoch and every one after it until its source moves. When the
// graph's ids outgrew a table it grows by a quarter of headroom, slot
// by slot, so the copying is amortised over the node inserts.
func (e *Engine) dropRows(changed nodeset.Set) {
	n := e.g.NumIDs()
	for d, t := range e.rows {
		for _, x := range changed {
			// Most changed sources were never read: a load is a plain
			// read, a store a locked exchange.
			if int(x) < len(t) && t[x].Load() != nil {
				t[x].Store(nil)
			}
		}
		if n > len(t) {
			grown := make(rowTable, n+n/4)
			grown.copyFrom(t)
			e.rows[d] = grown
		}
	}
}

// Option configures the partition engine.
type Option func(*Engine)

// WithStitchedQueries selects the in-process §V plane: the intra engines
// live in one shard.Local, built and maintained eagerly with the overlay,
// and cache-miss ball rows assemble through them instead of a direct
// bounded BFS. Results are identical; this exists to exercise and
// measure the literal §V computation (a fleet given by WithShards
// implies it, with the intra state held by the workers).
func WithStitchedQueries() Option {
	return func(e *Engine) {
		if len(e.shards) == 0 {
			e.shards = []shard.Shard{shard.NewLocal(e.subOf)}
		}
	}
}

// WithShards selects the §V plane served by the given remote shard
// workers, which hold the per-partition intra engines. Partitions are
// assigned round-robin. No shards selects nothing.
func WithShards(shs ...shard.Shard) Option {
	return func(e *Engine) {
		if len(shs) > 0 {
			e.shards = append([]shard.Shard(nil), shs...)
		}
	}
}

// WithSpares holds the given remote shards in standby: when a serving
// shard is lost, the failover controller promotes the next live spare
// into the dead slot (full build from the coordinator's mirrors) before
// falling back to packing the lost partitions onto survivors. Only
// meaningful with remote shards.
func WithSpares(shs ...shard.Shard) Option {
	return func(e *Engine) { e.spares = append(e.spares, shs...) }
}

// WithMetrics directs the engine's telemetry (phase latency
// histograms, recovery counters, trace spans) into reg instead of the
// process-global obs.Default — the hub hands its Config.Metrics
// through this way.
func WithMetrics(reg *obs.Registry) Option {
	return func(e *Engine) {
		if reg != nil {
			e.metrics = reg
		}
	}
}

// NewEngine creates an engine over g with the given hop horizon
// (0 = exact) and fixes its shape: the §V plane when the options name a
// fleet or stitched queries, the ball plane otherwise. Call Build before
// querying.
func NewEngine(g *graph.Graph, horizon int, opts ...Option) *Engine {
	e := &Engine{g: g, horizon: horizon, metrics: obs.Default, sectionV: &sectionV{}}
	for _, o := range opts {
		o(e)
	}
	e.initPools()
	remotes := 0
	for _, sh := range e.shards {
		if sh.Remote() {
			remotes++
		}
	}
	if remotes != 0 && remotes != len(e.shards) {
		//lint:allow panic constructor misuse invariant; a mixed fleet cannot exist after configuration validation
		panic("partition: mixed in-process and remote shards")
	}
	if len(e.spares) > 0 && remotes == 0 {
		//lint:allow panic constructor misuse invariant; spare promotion only makes sense for remote fleets
		panic("partition: spare shards require a remote shard fleet")
	}
	if len(e.shards) == 0 {
		e.sectionV = nil // the ball plane
		return e
	}
	e.remote = remotes > 0
	e.ballPool.New = func() interface{} { return new(ballScratch) }
	e.part = newPartitioning(g)
	e.shardAlive = make([]bool, len(e.shards))
	for i := range e.shardAlive {
		e.shardAlive[i] = true
	}
	e.ov = newOverlay(e)
	return e
}

// initPools sets up the scratch pools and resolves the read-side
// counters once: a registry lookup takes its lock, which a row build on
// every pool worker must not.
func (e *Engine) initPools() {
	e.gballPool.New = func() interface{} { return shortest.NewGraphBall() }
	for d, dir := range []string{"fwd", "rev"} {
		e.rowsBuilt[d] = e.metrics.Counter("gpnm_ball_rows_built_total", "dir", dir)
		e.rowsDeepened[d] = e.metrics.Counter("gpnm_ball_rows_deepened_total", "dir", dir)
	}
}

// subOf is the subgraph accessor handed to the in-process shard.
func (e *Engine) subOf(part int) *graph.Graph { return e.part.parts[part].sub }

// Workers reports the width of the pool the engine's phases fan across:
// runtime.GOMAXPROCS(0), read now. It is kept for benchmark/layers.go
// (ROADMAP 1 (g)).
func (e *Engine) Workers() int { return runtime.GOMAXPROCS(0) }

// Remote reports whether the engine is served by out-of-process workers.
func (e *Engine) Remote() bool { return e.sectionV != nil && e.remote }

// Recovered reports how many shard losses the engine has absorbed
// through failover over its lifetime. The hub folds the per-batch delta
// into BatchStats.Recovered.
func (e *Engine) Recovered() uint64 {
	if e.sectionV == nil {
		return 0
	}
	return e.recoveredN.Load()
}

// Recovering reports whether a failover is in flight right now — the
// degraded-not-dead state health endpoints surface without blocking on
// the mutation in progress.
func (e *Engine) Recovering() bool { return e.sectionV != nil && e.recoveringFlag.Load() }

// shardConfig snapshots the parameters every shard builds with,
// including the current op-stream fence (coordinator staging always
// precedes the flush, so a snapshot taken now reflects every op of the
// current epoch).
func (e *Engine) shardConfig() shard.Config {
	return shard.Config{Horizon: e.horizon, Epoch: e.opEpoch}
}

// aliveIndices lists the shard slots currently serving.
func (e *Engine) aliveIndices() []int {
	out := make([]int, 0, len(e.shards))
	for i, ok := range e.shardAlive {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// nextAliveShard picks the alive slot at or round-robin after hint.
func (e *Engine) nextAliveShard(hint int) int32 {
	n := len(e.shards)
	for k := 0; k < n; k++ {
		if s := (hint + k) % n; e.shardAlive[s] {
			return int32(s)
		}
	}
	//lint:allow panic recovery never leaves zero alive slots behind; reaching this is a broken controller invariant
	panic("partition: no alive shard to assign")
}

// assignShards extends the partition → shard map round-robin over any
// partitions created since the last call (skipping quarantined slots).
func (e *Engine) assignShards() {
	for len(e.shardOf) < len(e.part.parts) {
		e.shardOf = append(e.shardOf, e.nextAliveShard(len(e.shardOf)))
	}
}

// groupByShard buckets every partition under its owning slot in one
// pass over shardOf.
func (e *Engine) groupByShard() [][]int {
	owned := make([][]int, len(e.shards))
	for p, s := range e.shardOf {
		owned[s] = append(owned[s], p)
	}
	return owned
}

// nextOpEpoch issues the fence for one remote op flush (single-writer).
func (e *Engine) nextOpEpoch() uint64 {
	e.opEpoch++
	return e.opEpoch
}

// failoverBudget is how many distinct shard losses one failover
// boundary — a data batch's phases, a build, a horizon widening, one
// WithReadFailover fan — may absorb before the engine poisons itself
// with shard.ErrSubstrateLost: each faulted phase is retried once
// against the repaired assignment. The budget re-arms per boundary, so
// it bounds losses per operation, not per process.
const failoverBudget = 1

// resetFailoverBudget re-arms the recovery budget at each failover
// boundary.
func (e *Engine) resetFailoverBudget() { e.recoveryBudget = failoverBudget }

// engineSource hands the coordinator's partition mirrors to shard
// builds (shard.Source).
type engineSource struct{ e *Engine }

func (s engineSource) PartSnapshot(i int) shard.Snapshot {
	return shard.Snap(i, s.e.part.parts[i].sub)
}

// Build (re)derives the substrate from the data graph. On the ball plane
// that is empty row tables; on the §V plane the partitions are assigned
// to shards, every intra engine is built — fanned across the shards,
// each fanning across its own pool — and the overlay over them, so
// nothing is left for a reader. A worker lost during a remote build is
// failed over like any other loss: its partitions move to survivors or
// spares and the build retries.
func (e *Engine) Build() {
	if e.sectionV != nil {
		e.ensureUsable()
		e.resetFailoverBudget()
		e.assignShards()
		start := time.Now()
		e.withFailover(nil, func() {
			cfg := e.shardConfig()
			src := engineSource{e}
			owned := e.groupByShard()
			alive := e.aliveIndices()
			// Remote builds block on the worker; overlap them.
			workpool.ForEachBlocking(len(alive), func(k int) {
				i := alive[k]
				if err := e.shards[i].Build(cfg, i, owned[i], src); err != nil {
					e.shardFail(i, err)
				}
			})
		})
		e.span("intra_build", start)
		e.withFailover(nil, e.ov.build)
	}
	e.invalidate()
}

// planOverlayRows bulk-prefetches every partition's bridge rows ahead
// of a full overlay (re)build — its adjacency fill and the stitched
// rows after it read exactly those rows, so without the plan each one
// would cost a first-miss RPC.
// It runs inside the build's failover boundary (so a retry re-derives
// the demand: recovery reassigns partitions) and records a row_plan
// span so the prefetch cost is visible next to the phases it feeds.
// In-process fleets skip it without a span — there is no RPC to batch.
func (e *Engine) planOverlayRows() {
	if !e.remote {
		return
	}
	start := time.Now()
	e.prefetchPlannedRows(e.bridgeRowReqs(e.allPartIndices()))
	e.span("row_plan", start)
}

// Close releases the shards and any unpromoted spares (remote: closes
// idle connections); the ball plane has nothing to release. The engine
// is unusable afterwards.
func (e *Engine) Close() error {
	if e.sectionV == nil {
		return nil
	}
	var first error
	for _, sh := range e.shards {
		//lint:allow faultseam teardown path: failover is already dismantled, the first close error goes to the caller
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, sh := range e.spares {
		//lint:allow faultseam teardown path: failover is already dismantled, the first close error goes to the caller
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Graph returns the engine's data graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Partitioning exposes the partition structure (stats, bridge nodes) of
// the §V plane; the ball plane has none and reports nil.
func (e *Engine) Partitioning() *Partitioning {
	if e.sectionV == nil {
		return nil
	}
	return e.part
}

// Horizon reports the hop cap (0 = exact).
func (e *Engine) Horizon() int { return e.horizon }

// Exact reports whether the engine represents unbounded distances.
func (e *Engine) Exact() bool { return e.horizon == 0 }

func (e *Engine) capHops() int {
	if e.horizon == 0 {
		return int(shortest.Inf) - 1
	}
	return e.horizon
}

// intraBall visits the intra ball of a partition-local node through the
// owning shard, in whatever order that shard keeps its rows.
func (e *Engine) intraBall(pi int32, local uint32, maxD int, reverse bool, fn func(local uint32, d shortest.Dist) bool) {
	idx := int(e.shardOf[pi])
	if err := e.shards[idx].Ball(int(pi), local, maxD, reverse, fn); err != nil {
		e.shardFail(idx, err)
	}
}

// exitsOf visits the exit bridge nodes within maxD intra hops of x
// (x itself included at 0 when it is an exit).
func (e *Engine) exitsOf(x uint32, maxD int, fn func(u uint32, d shortest.Dist)) {
	if maxD < 0 {
		return
	}
	pi := e.part.partIndex(x)
	if pi == none {
		return
	}
	pt := e.part.parts[pi]
	e.intraBall(pi, e.part.localOf[x], maxD, false, func(local uint32, d shortest.Dist) bool {
		gid := pt.globals[local]
		if e.part.isExit(gid) {
			fn(gid, d)
		}
		return true
	})
}

// entriesTo visits the entry bridge nodes from which y is within maxD
// intra hops (y itself included at 0 when it is an entry).
func (e *Engine) entriesTo(y uint32, maxD int, fn func(b uint32, d shortest.Dist)) {
	if maxD < 0 {
		return
	}
	pi := e.part.partIndex(y)
	if pi == none {
		return
	}
	pt := e.part.parts[pi]
	e.intraBall(pi, e.part.localOf[y], maxD, true, func(local uint32, d shortest.Dist) bool {
		gid := pt.globals[local]
		if e.part.isEntry(gid) {
			fn(gid, d)
		}
		return true
	})
}

// Dist returns the shortest path length from x to y within the horizon:
// a scan of x's forward row.
func (e *Engine) Dist(x, y uint32) shortest.Dist {
	found := shortest.Inf
	e.ForwardBall(x, e.capHops(), func(v uint32, d shortest.Dist) bool {
		if v == y {
			found = d
		}
		return v != y
	})
	return found
}

// WithinHops reports d(x,y) ≤ k (k must be ≤ Horizon when capped).
func (e *Engine) WithinHops(x, y uint32, k int) bool {
	if e.horizon != 0 && k > e.horizon {
		//lint:allow panic API contract: k ≤ Horizon is documented; callers derive k from the same config that set the horizon
		panic(fmt.Sprintf("partition: WithinHops(%d) beyond horizon %d", k, e.horizon))
	}
	d := e.Dist(x, y)
	return d != shortest.Inf && int(d) <= k
}

// Reachable reports whether y is reachable from x within the horizon.
func (e *Engine) Reachable(x, y uint32) bool { return e.Dist(x, y) != shortest.Inf }

// ForwardBall visits {v : d(x,v) ≤ k}, nearest first.
func (e *Engine) ForwardBall(x uint32, k int, fn func(v uint32, d shortest.Dist) bool) {
	e.ball(0, x, k, ballRead{fn: fn})
}

// ReverseBall visits {s : d(s,y) ≤ k}, nearest first.
func (e *Engine) ReverseBall(y uint32, k int, fn func(s uint32, d shortest.Dist) bool) {
	e.ball(1, y, k, ballRead{fn: fn})
}

// ForwardBallIn visits the members of set within k of x, nearest first.
func (e *Engine) ForwardBallIn(x uint32, k int, set *nodeset.Bits, fn func(v uint32) bool) {
	e.ball(0, x, k, ballRead{set: set, in: fn})
}

// ReverseBallIn visits the members of set within k hops to y, nearest
// first.
func (e *Engine) ReverseBallIn(y uint32, k int, set *nodeset.Bits, fn func(s uint32) bool) {
	e.ball(1, y, k, ballRead{set: set, in: fn})
}

// ballRow is one materialised row — shard.Row, the layered form the
// shards serve their intra rows in, here over global ids — and whether
// it may go deeper. An open row was read off the graph to the depth its
// last read asked for, below the cap, and its last layer sits at that
// depth, so nodes may lie beyond it; a closed row is the whole ball
// within the horizon (every §V row, and a BFS that ran out of nodes).
type ballRow struct {
	shard.Row
	open bool
}

// covers reports whether the row holds every entry within k.
func (r *ballRow) covers(k int) bool { return !r.open || k < r.Layers() }

// deeper reports whether r holds more of its ball than than does.
func (r *ballRow) deeper(than *ballRow) bool {
	return than.open && (!r.open || r.Layers() > than.Layers())
}

// rowTable holds one direction's materialised rows, indexed by source
// id. A slot is filled with an atomic publish and read with an atomic
// load, so concurrent readers of one frozen engine state need no lock:
// two goroutines that build the same row publish rows that
// agree on every layer both hold, and publish keeps the deeper. Only a
// mutation empties a slot (dropRows, invalidate).
type rowTable []atomic.Pointer[ballRow]

// copyFrom stores every row src holds into the same slot of t, as far as
// both reach. Rows are immutable, so t shares them but not src's slots.
func (t rowTable) copyFrom(src rowTable) {
	for i := range min(len(t), len(src)) {
		if row := src[i].Load(); row != nil {
			t[i].Store(row)
		}
	}
}

// publish stores row in slot unless the slot already holds a row at
// least as deep: a deeper row is never replaced by a shallower one.
func publish(slot *atomic.Pointer[ballRow], row *ballRow) {
	for {
		cur := slot.Load()
		if cur != nil && !row.deeper(cur) {
			return
		}
		if slot.CompareAndSwap(cur, row) {
			return
		}
	}
}

// ballRead is what one ball read asks for: every entry with its distance
// (fn), or only the members of set (in). The two differ in their inner
// scan and nowhere else.
type ballRead struct {
	fn  func(v uint32, d shortest.Dist) bool
	set *nodeset.Bits
	in  func(v uint32) bool
}

// source yields the read's source at distance 0 and reports whether the
// read goes on.
func (r ballRead) source(x uint32) bool {
	if r.set != nil {
		return !r.set.Contains(x) || r.in(x)
	}
	return r.fn(x, 0)
}

// scan runs the read over layers from through to of row and reports
// whether the read goes on past them.
func (r ballRead) scan(row *ballRow, from, to int) bool {
	if r.set != nil {
		return row.ScanIn(from, to, r.set, r.in)
	}
	return row.Scan(from, to, r.fn)
}

// ball serves a read of radius k around x from the materialised rows of
// direction dir. The source comes first, at distance 0, and a read that
// stops there (or asks for k = 0) loads no row. A miss builds the row to
// the read's depth and publishes it; a read that goes past the last
// layer of an open row rebuilds it to its own k and publishes the deeper
// row. The rebuild walks the engine's own graph, so it is exact on a fork
// too, which carries its parent's rows: a published row's source has
// been in no change log since the row was built. Every mutation leaves
// the tables covering the graph's ids, so a live x has a slot.
func (e *Engine) ball(dir int, x uint32, k int, r ballRead) {
	if k < 0 || !e.g.Alive(x) || !r.source(x) || k == 0 {
		return
	}
	depth := min(k, e.capHops())
	slot := &e.rows[dir][x]
	row := slot.Load()
	if row == nil {
		row = e.buildRow(x, depth, dir == 1)
		e.rowsBuilt[dir].Inc()
		publish(slot, row)
	}
	if !r.scan(row, 1, k) || row.covers(k) {
		return
	}
	from := row.Layers()
	row = e.buildRow(x, depth, dir == 1)
	e.rowsDeepened[dir].Inc()
	publish(slot, row)
	r.scan(row, from, k)
}

// buildRow materialises the row of x to the given depth. On the ball
// plane the row comes from a bounded BFS over the data graph — exact,
// already in layer order, and the cheapest way to materialise one row of
// the capped SLen; the §V plane assembles the full-horizon row from its
// structures (intra distances + bridge overlay), closed whatever the
// depth. The two hold the same (id, distance) pairs (enforced by tests).
// buildRow only reads shared state (scratch is pooled), so rows for
// distinct sources assemble concurrently.
func (e *Engine) buildRow(x uint32, depth int, reverse bool) *ballRow {
	if e.sectionV != nil {
		return &ballRow{Row: e.stitchRow(x, reverse)}
	}
	gb := e.gballPool.Get().(*shortest.GraphBall)
	row := &ballRow{Row: shard.NewRow(gb.Row(e.g, x, depth, reverse))}
	e.gballPool.Put(gb)
	// Open when the BFS may have stopped short of nodes within the cap:
	// its last layer sits at depth, and depth is below the cap.
	row.open = depth < e.capHops() && row.Layers() == depth+1
	return row
}

// ballScratch is epoch-stamped scratch for stitched row builds:
// visiting is O(touched), not O(|N|), with no per-call maps. Instances
// are pooled so concurrent stitched-row builds never share one.
type ballScratch struct {
	dist  []shortest.Dist
	stamp []uint32
	epoch uint32
	ids   []uint32
	dists []shortest.Dist // dist of ids[i], compacted for shard.NewRow
}

func (s *ballScratch) begin(n int) {
	for len(s.dist) < n {
		s.dist = append(s.dist, 0)
		s.stamp = append(s.stamp, 0)
	}
	nextEpoch(&s.epoch, s.stamp)
	s.ids = s.ids[:0]
}

func (s *ballScratch) merge(id uint32, d shortest.Dist) {
	if int(id) >= len(s.stamp) {
		grow := int(id) + 1 - len(s.stamp)
		s.dist = append(s.dist, make([]shortest.Dist, grow)...)
		s.stamp = append(s.stamp, make([]uint32, grow)...)
	}
	if s.stamp[id] != s.epoch {
		s.stamp[id] = s.epoch
		s.dist[id] = d
		s.ids = append(s.ids, id)
	} else if d < s.dist[id] {
		s.dist[id] = d
	}
}

// stitchRow assembles x's full-horizon row from the §V structures: its
// own intra ball, then for every bridge within reach the overlay row of
// that bridge and the intra balls of the far ends.
func (e *Engine) stitchRow(x uint32, reverse bool) shard.Row {
	k := e.capHops()
	sc := e.ballPool.Get().(*ballScratch)
	sc.begin(e.g.NumIDs())
	merge := sc.merge
	// Intra segment.
	pi := e.part.partIndex(x)
	pt := e.part.parts[pi]
	e.intraBall(pi, e.part.localOf[x], k, reverse, func(local uint32, d shortest.Dist) bool {
		merge(pt.globals[local], d)
		return true
	})
	// Overlay-mediated segments.
	bridgesNear := e.exitsOf
	ovRow := e.ov.fwd
	farEnd := e.part.isEntry
	if reverse {
		bridgesNear = e.entriesTo
		ovRow = e.ov.rev
		farEnd = e.part.isExit
	}
	bridgesNear(x, k-1, func(u uint32, du shortest.Dist) {
		ovRow.Row(u, func(b uint32, dov shortest.Dist) bool {
			rem := k - int(du) - int(dov)
			if rem < 0 || !farEnd(b) {
				return true
			}
			bpi := e.part.partIndex(b)
			bp := e.part.parts[bpi]
			e.intraBall(bpi, e.part.localOf[b], rem, reverse, func(local uint32, d shortest.Dist) bool {
				merge(bp.globals[local], du+dov+d)
				return true
			})
			return true
		})
	})
	sc.dists = sc.dists[:0]
	for _, id := range sc.ids {
		sc.dists = append(sc.dists, sc.dist[id])
	}
	row := shard.NewRow(sc.ids, sc.dists)
	e.ballPool.Put(sc)
	return row
}

// conservativeEdgeAffected is the ball superset used as the affected set
// of an edge update: everything that reaches u within H-1 hops plus
// everything within H-1 hops of v (plus the endpoints). For insertions
// these balls are identical before and after the update (a new path to u
// via (u,v) would cycle through u); for deletions they are evaluated in
// the pre-delete state, which covers every pair whose old shortest path
// used the edge. The balls come from a direct BFS over the data graph —
// the graph always reflects the same state as the oracle, and adjacency
// BFS is far cheaper than stitching. Read-only with pooled scratch: safe
// to evaluate for many updates concurrently.
func (e *Engine) conservativeEdgeAffected(u, v uint32) nodeset.Set {
	gb := e.gballPool.Get().(*shortest.GraphBall)
	defer e.gballPool.Put(gb)
	H := e.capHops()
	var b nodeset.Builder
	b.Add(u)
	b.Add(v)
	b.AddAll(gb.Ball(e.g, u, H-1, true))
	b.AddAll(gb.Ball(e.g, v, H-1, false))
	return b.Set()
}

// stage records one applied update in the coordinator's partition
// structures, accumulating the overlay anchors it dirtied, and returns
// the op its owning shard must apply.
func (e *Engine) stage(u updates.Update, removed []graph.Edge, dirty *nodeset.Builder) shard.Op {
	switch u.Kind {
	case updates.DataEdgeInsert:
		return e.stageInsertEdge(u.From, u.To, dirty)
	case updates.DataEdgeDelete:
		return e.stageDeleteEdge(u.From, u.To, dirty)
	case updates.DataNodeInsert:
		return e.stageInsertNode(u.Node)
	default:
		return e.stageDeleteNode(u.Node, removed, dirty)
	}
}

// reconcileOverlay brings the overlay up to date with a mutation that
// dirtied the given anchors, before the mutation returns: the reads that
// follow stitch their rows from it.
func (e *Engine) reconcileOverlay(dirty nodeset.Set) {
	e.withFailover(nil, func() { e.ov.reconcile(dirty) })
}

// stageInsertEdge records edge (u,v) in the coordinator's partition
// structures (the graph must already contain it), accumulating dirty
// overlay anchors for the cross case, and returns the op the owning
// shard must apply.
func (e *Engine) stageInsertEdge(u, v uint32, dirty *nodeset.Builder) shard.Op {
	op := shard.Op{Kind: shard.OpEdgeInsert, From: u, To: v, Part: -1, Shard: -1}
	pu, pv := e.part.partIndex(u), e.part.partIndex(v)
	if pu == pv {
		pt := e.part.parts[pu]
		lu, lv := e.part.localOf[u], e.part.localOf[v]
		pt.sub.AddEdge(lu, lv)
		op.Part, op.Shard, op.LFrom, op.LTo = int(pu), int(e.shardOf[pu]), lu, lv
	} else {
		e.part.noteCross(u, v, +1)
		dirty.Add(u)
		dirty.Add(v)
	}
	return op
}

// dirtyBridges translates a partition-local affected set into the global
// bridge nodes whose overlay rows must be refreshed.
func (e *Engine) dirtyBridges(pt *part, localAff nodeset.Set, dirty *nodeset.Builder) {
	for _, local := range localAff {
		gid := pt.globals[local]
		if e.part.isOverlay(gid) {
			dirty.Add(gid)
		}
	}
}

// settleOp folds one op's shard-side affected set into the dirty
// overlay anchors.
func (e *Engine) settleOp(op shard.Op, aff []uint32, dirty *nodeset.Builder) {
	if op.Part < 0 || op.Kind == shard.OpNodeInsert {
		return
	}
	e.dirtyBridges(e.part.parts[op.Part], aff, dirty)
}

// applyOps hands staged ops to the shards and settles their affected
// sets. The in-process shard receives the ops it owns one by one in op
// order. Remote shards each receive the full stream (ops they do not own
// included, which they skip) in one epoch-fenced RPC, issued to all
// shards in parallel.
// The remote flush is failover-protected: a worker lost mid-flush is
// quarantined, its partitions rebuilt from the coordinator's mirrors,
// and the same epoch re-flushed — survivors that already applied it
// answer their recorded sets, so nothing double-applies.
func (e *Engine) applyOps(ops []shard.Op, dirty *nodeset.Builder) {
	if len(ops) == 0 {
		return
	}
	if !e.remote {
		// The single-op fast path keeps phase 2 allocation-free like the
		// monolith.
		local := e.shards[0].(*shard.Local)
		for _, op := range ops {
			if op.Shard >= 0 {
				e.settleOp(op, local.ApplyOp(op), dirty)
			}
		}
		return
	}
	epoch := e.nextOpEpoch()
	// The warm demand is planned inside the failover boundary: a retry
	// after recovery re-plans against the repaired shard assignment.
	e.withFailover(dirty, func() { e.flushOps(epoch, ops, e.opsRowDemand(ops), dirty) })
}

// flushOps sends one epoch's ops to every alive remote shard and
// settles the returned affected sets into dirty. Settling is idempotent
// (dirty has set semantics), so a failover retry of the same epoch is
// safe; ops whose owning slot is dead settle nothing — the recovery
// compensates by dirtying the reassigned partitions' bridge anchors
// conservatively.
//
// warm is the row demand piggybacked on the RPC — the bridge and
// source rows the phases right after the flush will read, so the flush
// response refills the rows it invalidated.
func (e *Engine) flushOps(epoch uint64, ops []shard.Op, warm [][]shard.RowReq, dirty *nodeset.Builder) {
	affs := make([][][]uint32, len(e.shards))
	alive := e.aliveIndices()
	workpool.ForEachBlocking(len(alive), func(k int) {
		s := alive[k]
		var w []shard.RowReq
		if s < len(warm) {
			w = warm[s]
		}
		aff, err := e.shards[s].ApplyOps(epoch, ops, w)
		if err != nil {
			e.shardFail(s, err)
		}
		affs[s] = aff
	})
	for i, op := range ops {
		if op.Shard >= 0 && affs[op.Shard] != nil && affs[op.Shard][i] != nil {
			e.settleOp(op, affs[op.Shard][i], dirty)
		}
	}
}

// stageDeleteEdge removes edge (u,v) from the coordinator's partition
// structures (the graph must already have dropped it), accumulating
// dirty anchors, and returns the op for the owning shard.
func (e *Engine) stageDeleteEdge(u, v uint32, dirty *nodeset.Builder) shard.Op {
	op := shard.Op{Kind: shard.OpEdgeDelete, From: u, To: v, Part: -1, Shard: -1}
	pu, pv := e.part.partIndex(u), e.part.partIndex(v)
	if pu == pv {
		pt := e.part.parts[pu]
		lu, lv := e.part.localOf[u], e.part.localOf[v]
		pt.sub.RemoveEdge(lu, lv)
		op.Part, op.Shard, op.LFrom, op.LTo = int(pu), int(e.shardOf[pu]), lu, lv
		dirty.Add(u)
		dirty.Add(v)
	} else {
		e.part.noteCross(u, v, -1)
		dirty.Add(u)
		dirty.Add(v)
	}
	return op
}

// stageInsertNode registers id in its label's partition (creating the
// partition — and its shard assignment — if needed) and returns the op
// for the owning shard.
func (e *Engine) stageInsertNode(id uint32) shard.Op {
	pi := e.part.addToPart(id)
	e.assignShards()
	return shard.Op{
		Kind: shard.OpNodeInsert, Node: id,
		Part: int(pi), Shard: int(e.shardOf[pi]), Local: e.part.localOf[id],
	}
}

// nodeAffected is the conservative ball superset for deleting node id
// with out-neighbours outs and in-neighbours ins, evaluated in the
// pre-delete state: both balls around id at H, plus the forward balls of
// its successors and the reverse balls of its predecessors at H-1.
// Read-only with pooled scratch, like conservativeEdgeAffected.
func (e *Engine) nodeAffected(id uint32, outs, ins []uint32) nodeset.Set {
	gb := e.gballPool.Get().(*shortest.GraphBall)
	defer e.gballPool.Put(gb)
	H := e.capHops()
	var b nodeset.Builder
	b.Add(id)
	b.AddAll(gb.Ball(e.g, id, H, false))
	b.AddAll(gb.Ball(e.g, id, H, true))
	for _, v := range outs {
		b.AddAll(gb.Ball(e.g, v, H-1, false))
	}
	for _, u := range ins {
		b.AddAll(gb.Ball(e.g, u, H-1, true))
	}
	return b.Set()
}

// stageDeleteNode removes node id from the coordinator's partition
// structures (the graph must already have dropped it and its incident
// edges, passed as removed), accumulating dirty anchors, and returns
// the op for the owning shard.
func (e *Engine) stageDeleteNode(id uint32, removed []graph.Edge, dirty *nodeset.Builder) shard.Op {
	pi := e.part.partIndex(id)
	pt := e.part.parts[pi]
	dirty.Add(id)
	for _, ed := range removed {
		if e.part.partIndex(ed.From) == e.part.partIndex(ed.To) {
			continue // intra edges fall with RemoveNode below
		}
		e.part.noteCross(ed.From, ed.To, -1)
		dirty.Add(ed.From)
		dirty.Add(ed.To)
	}
	local := e.part.localOf[id]
	removedLocal, _ := pt.sub.RemoveNode(local)
	e.part.partOf[id] = none
	rl := make([]shard.Edge, len(removedLocal))
	for i, ed := range removedLocal {
		rl[i] = shard.Edge{From: ed.From, To: ed.To}
	}
	return shard.Op{
		Kind: shard.OpNodeDelete, Node: id,
		Part: int(pi), Shard: int(e.shardOf[pi]), Local: local, RemovedLocal: rl,
	}
}

// EnsureHorizon widens a capped engine to cover bound k. Every row stops
// at the old horizon, so all are dropped — on the
// ball plane that is all there is to do; the §V plane also widens the
// per-partition engines (shard-side) and rebuilds the overlay over them.
func (e *Engine) EnsureHorizon(k int) {
	if e.horizon == 0 || k <= e.horizon {
		return
	}
	e.ensureUsable()
	e.horizon = k
	if e.sectionV != nil {
		e.resetFailoverBudget()
		e.withFailover(nil, func() {
			alive := e.aliveIndices()
			workpool.ForEachBlocking(len(alive), func(j int) {
				i := alive[j]
				if err := e.shards[i].EnsureHorizon(k); err != nil {
					e.shardFail(i, err)
				}
			})
		})
		e.withFailover(nil, e.ov.build)
	}
	e.invalidate()
}

// CloneFor returns an independent engine of the same shape operating on
// g2, a clone of the engine's graph: an in-process §V plane is built
// afresh over g2. The clone of a remote engine is a ball plane — the
// workers hold the §V state and cannot be cloned — and answers the same
// distances. On every shape the clone starts with the parent's rows,
// copied slot by slot into its own tables: rows are immutable and hold
// the same pairs on either shape, and g2 is the parent's graph, so each
// carried row is exact for the clone until its own change log names the
// source. The clone shares the parent's registry but not its trace
// sink: a forked engine's batches are their own, not the parent
// batch's.
func (e *Engine) CloneFor(g2 *graph.Graph) shortest.DistanceEngine {
	opts := []Option{WithMetrics(e.metrics)}
	if e.sectionV != nil && !e.remote {
		opts = append(opts, WithStitchedQueries())
	}
	c := NewEngine(g2, e.horizon, opts...)
	c.Build()
	for d := range c.rows {
		c.rows[d].copyFrom(e.rows[d])
	}
	return c
}
