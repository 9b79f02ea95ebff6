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
)

// Engine is the partition-based SLen substrate (§V): per-partition intra
// distances plus the bridge overlay, answering global distance queries by
// stitching
//
//	d(x,y) = min( d_intra(x,y) [same partition],
//	              min_{u ∈ exits(x), b ∈ entries(y)}
//	                  d_intra(x,u) + d_overlay(u,b) + d_intra(b,y) ),
//
// which is exact: any path decomposes into intra segments
// joined by cross edges, and the overlay's Dijkstra minimises over all
// such compositions. Updates stay local: an intra-partition change
// touches one partition engine (and the overlay only when bridge-node
// distances move); a cross edge touches only the overlay. Both halves
// exist on demand. The readers of the §V structures are Dist (with
// WithinHops and Reachable), stitched ball rows and the overlay's own
// Dijkstras, and nothing else: balls default to a BFS over the data graph
// and affected sets always come from one. The intra engines are built by
// the first of those reads (materialiseIntra) from the subgraph mirrors,
// which every mutation keeps current, and maintained op by op from then
// on; the overlay is marked by mutations and synced by its next reader.
// An in-process engine that is only batched and ball-read therefore
// builds and maintains neither; an engine whose rows are stitched
// (WithStitchedQueries, every remote fleet) meets its first reader
// inside Build.
//
// Layering: the engine is the *coordinator* of the substrate. It owns
// the data graph, the partition bookkeeping (membership, bridge-node
// counters, subgraph mirrors), the bridge overlay and the stitched-row
// caches; the per-partition SLen engines — the superlinear part of the
// state — live behind the shard.Shard seam. The default configuration
// wraps everything in one in-process shard (shard.Local), which from its
// first read on is the monolithic engine re-expressed; WithShards
// substitutes remote shard workers (cmd/gpnm-shard over HTTP),
// fanning intra builds, row queries and batch affected-ball phases
// across processes while the coordinator keeps the phase discipline
// unchanged.
//
// Concurrency contract: mutations are single-goroutine like every other
// DistanceEngine — callers never invoke two mutating methods (Build,
// Insert*/Delete*, ApplyDataBatch, EnsureHorizon) concurrently, nor a
// mutation concurrently with anything else. The engine itself fans
// embarrassingly parallel phases (per-partition intra builds, per-source
// overlay Dijkstras, per-update affected balls) across a bounded worker
// pool sized by WithWorkers (and across shard
// processes when remote); every parallel phase only reads shared
// structures and keeps its mutable state in pooled per-worker scratch,
// with results installed from a single goroutine.
//
// Read epochs: between mutations the query side (Dist, WithinHops,
// Reachable, Forward/ReverseBall, CloneFor) is safe for any
// number of concurrent goroutines — queries read structures that are
// immutable until the next mutation, per-query scratch is pooled, and
// the three lazy fills need no caller-side locking: ball rows are built
// on first read and published atomically into their table slot (no
// lock; see rowTable), and the intra engines and the overlay, which the
// first Dist may have to build and the first Dist after a mutation may
// have to sync, each serialise that internally (one reader does it, the
// others wait; see materialiseIntra and overlay). The standing-query
// hub (internal/hub) leans on exactly this: one writer advances the
// engine per batch, then many per-pattern readers amend against the
// frozen post-batch state. Shard implementations honour the same
// contract (concurrent reads between mutations).
//
// Engine implements shortest.DistanceEngine; affected sets are the
// conservative ball supersets documented on each method.
type Engine struct {
	part    *Partitioning
	ov      *overlay
	horizon int

	stitched bool // assemble cached rows via §V stitching
	workers  int  // worker pool bound (1 = serial)
	nLocal   int  // WithLocalShards count (0 = one)

	// shards host the per-partition intra engines; shardOf maps a
	// partition index to its owning shard (round-robin over the alive
	// slots for partitions created after construction). remote is set
	// when the shards are out-of-process (every op is then also
	// streamed to non-owning shards for data-graph replica maintenance,
	// and conservative affected balls are computed shard-side).
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

	// intraReady is set once the shards hold an engine for every
	// partition; intraMu serialises the build that sets it (see
	// materialiseIntra). Build clears it.
	intraMu     sync.Mutex
	intraReady  atomic.Bool
	intraBuilds *obs.Counter

	// Failover state. failoverRetries is the per-mutation recovery
	// budget (how many distinct losses one batch may absorb before the
	// terminal poison); recoveryBudget is what remains of it inside the
	// current mutation boundary. opEpoch fences the op stream: every
	// remote flush carries a strictly increasing epoch, so a failover
	// retry of the same flush is idempotent on survivors. recoverable
	// is set while a failover-protected phase runs — shard faults then
	// unwind as repairable *shardFault panics instead of poisoning.
	failoverRetries int
	recoveryBudget  int
	opEpoch         uint64
	recoverable     atomic.Bool
	recoveringFlag  atomic.Bool
	recoveredN      atomic.Uint64

	gballPool sync.Pool // *shortest.GraphBall, per-worker adjacency BFS
	ballPool  sync.Pool // *ballScratch, per-worker stitched-ball state

	// Materialised ball rows, indexed by source node, built lazily at
	// the full horizon on first query and dropped on any mutation. The
	// matching fixpoint queries the same sources many times per
	// amendment; a materialised row makes every repeat a prefix scan, as
	// it would be on a materialised global SLen, while maintenance keeps
	// the partition-local cost profile.
	fwdRows, revRows rowTable
	rowsBuilt        [2]*obs.Counter // cold row builds, forward and reverse

	// lost poisons the engine after an unrecoverable shard failure —
	// failover found no surviving or spare worker, or the per-mutation
	// budget was spent: the substrate may be half-synchronised relative
	// to the data graph, so every further answer could be silently
	// wrong. Guarded by lostMu (shard calls happen on pool workers);
	// once set it never clears.
	lostMu sync.Mutex
	lost   error

	// metrics receives the engine's telemetry (batch phase latencies,
	// recovery counters); never nil — obs.Default unless WithMetrics.
	// trace, when non-nil, additionally collects each completed phase
	// span into the current batch's trace. It is set by the single
	// mutation writer (SetTraceSink) and only ever read from the
	// mutation goroutine, so it needs no lock.
	metrics *obs.Registry
	trace   *obs.Trace
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

// Err reports the sticky substrate-loss error (nil while healthy). Once
// non-nil the engine refuses further work: reads and mutations raise
// the same error, which boundary methods convert via
// RecoverSubstrateLoss.
func (e *Engine) Err() error {
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

// invalidate drops the materialised rows after any mutation by swapping
// in empty tables over the partitioning's id space as it now stands:
// every id the oracle answers for (oracleAlive) has a slot.
func (e *Engine) invalidate() {
	n := len(e.part.partOf)
	e.fwdRows, e.revRows = make(rowTable, n), make(rowTable, n)
}

// Option configures the partition engine.
type Option func(*Engine)

// WithStitchedQueries makes cache-miss ball rows assemble through the
// partition structures (intra + overlay) instead of a direct bounded
// BFS. Results are identical; this exists to exercise and measure the
// literal §V computation (and is forced on for remote shards, whose
// intra state the coordinator does not hold).
func WithStitchedQueries() Option { return func(e *Engine) { e.stitched = true } }

// WithWorkers bounds the engine's internal worker pool: per-partition
// builds, overlay Dijkstras and batch affected-set balls all fan across
// up to n goroutines. n ≤ 0 selects GOMAXPROCS; 1 runs
// every phase serially (the UA-GPNM-NoPar-comparable baseline).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithShards serves the per-partition intra engines from the given
// shards instead of the default single in-process shard. Partitions
// are assigned round-robin. Shards must be homogeneous: either all
// in-process or all remote (remote shards need every op for replica
// maintenance, which a mixed fleet would miss).
func WithShards(shs ...shard.Shard) Option {
	return func(e *Engine) { e.shards = append([]shard.Shard(nil), shs...) }
}

// WithLocalShards splits the partitions round-robin across n in-process
// shards instead of the default single one. Results are identical by
// construction; this exists to exercise the multi-shard routing without
// processes (the differential suite runs it alongside the RPC path).
func WithLocalShards(n int) Option { return func(e *Engine) { e.nLocal = n } }

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

// WithFailoverRetries bounds how many distinct shard losses one
// failover boundary — a data batch's phases, a build, a horizon
// widening, one WithReadFailover fan — may absorb before the engine
// gives up and poisons itself with shard.ErrSubstrateLost. The budget
// re-arms per boundary (a hub batch crosses a few: the detection fans
// around the batch and the batch itself), so it bounds losses per
// operation, not per process. The default is 1 — each faulted phase is
// retried exactly once against the repaired assignment; n ≤ 0 disables
// failover entirely (every loss poisons, the pre-failover behaviour).
func WithFailoverRetries(n int) Option {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.failoverRetries = n
	}
}

// The per-partition engines run the hybrid sparse backend even for small
// partitions (dense threshold 0): stitched queries iterate intra rows
// constantly, and hybrid rows cost O(ball) per scan where dense rows cost
// O(|Pi|).
const (
	intraDenseThreshold = 0
	intraELLWidth       = 8
)

// NewEngine creates a partition-based SLen engine over g with the given
// hop horizon (0 = exact). Call Build before querying.
func NewEngine(g *graph.Graph, horizon int, opts ...Option) *Engine {
	e := &Engine{horizon: horizon, failoverRetries: 1, metrics: obs.Default}
	for _, o := range opts {
		o(e)
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.initPools()
	e.part = newPartitioning(g, horizon)
	if len(e.shards) == 0 {
		n := e.nLocal
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			e.shards = append(e.shards, shard.NewLocal(e.subOf))
		}
	}
	remotes := 0
	for _, sh := range e.shards {
		if sh.Remote() {
			remotes++
		}
	}
	if remotes > 0 {
		if remotes != len(e.shards) {
			//lint:allow panic constructor misuse invariant; a mixed fleet cannot exist after configuration validation
			panic("partition: mixed in-process and remote shards")
		}
		e.remote = true
		// The coordinator holds no intra matrices for remote shards;
		// cache-miss rows must assemble through the §V structures.
		e.stitched = true
	}
	if len(e.spares) > 0 && !e.remote {
		//lint:allow panic constructor misuse invariant; spare promotion only makes sense for remote fleets
		panic("partition: spare shards require a remote shard fleet")
	}
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
	e.ballPool.New = func() interface{} { return new(ballScratch) }
	e.gballPool.New = func() interface{} { return shortest.NewGraphBall() }
	e.rowsBuilt[0] = e.metrics.Counter("gpnm_ball_rows_built_total", "dir", "fwd")
	e.rowsBuilt[1] = e.metrics.Counter("gpnm_ball_rows_built_total", "dir", "rev")
	e.intraBuilds = e.metrics.Counter("gpnm_intra_builds_total")
}

// subOf is the subgraph accessor handed to in-process shards.
func (e *Engine) subOf(part int) *graph.Graph { return e.part.parts[part].sub }

// Workers reports the engine's worker pool bound.
func (e *Engine) Workers() int { return e.workers }

// Shards reports how many shard slots serve the partitions
// (1 = in-process); quarantined slots are included.
func (e *Engine) Shards() int { return len(e.shards) }

// AliveShards reports how many shard slots are currently serving.
func (e *Engine) AliveShards() int { return len(e.aliveIndices()) }

// Remote reports whether the shards are out-of-process workers.
func (e *Engine) Remote() bool { return e.remote }

// Recovered reports how many shard losses the engine has absorbed
// through failover over its lifetime. The hub folds the per-batch delta
// into BatchStats.Recovered.
func (e *Engine) Recovered() uint64 { return e.recoveredN.Load() }

// Recovering reports whether a failover is in flight right now — the
// degraded-not-dead state health endpoints surface without blocking on
// the mutation in progress.
func (e *Engine) Recovering() bool { return e.recoveringFlag.Load() }

// shardConfig snapshots the parameters every shard builds with,
// including the current op-stream fence (coordinator staging always
// precedes the flush, so a snapshot taken now reflects every op of the
// current epoch).
func (e *Engine) shardConfig() shard.Config {
	return shard.Config{
		Horizon:        e.horizon,
		DenseThreshold: intraDenseThreshold,
		ELLWidth:       intraELLWidth,
		Workers:        e.workers,
		Epoch:          e.opEpoch,
	}
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

// resetFailoverBudget re-arms the recovery budget at each mutation
// boundary: one batch (or build, or widening) may absorb up to
// failoverRetries distinct shard losses before poisoning.
func (e *Engine) resetFailoverBudget() { e.recoveryBudget = e.failoverRetries }

// engineSource exposes coordinator state for shard builds (shard.Source).
// The full-graph snapshot is computed at most once per Build — every
// remote shard asks for it, and re-walking a sharding-scale edge list
// N times (holding N copies) would dominate build cost.
type engineSource struct {
	e    *Engine
	once sync.Once
	g    shard.Snapshot
}

func (s *engineSource) NumParts() int { return len(s.e.part.parts) }
func (s *engineSource) PartSnapshot(i int) shard.Snapshot {
	return shard.Snap(i, s.e.part.parts[i].sub)
}
func (s *engineSource) GraphSnapshot() shard.Snapshot {
	s.once.Do(func() { s.g = shard.Snap(-1, s.e.part.g) })
	return s.g
}

// Build (re)derives the substrate from the data graph: it assigns the
// partitions to shards and marks the overlay, and leaves the intra
// engines to their first reader. For an engine whose rows are stitched
// that reader is the overlay build right here, so its engines (and every
// remote worker's) exist when Build returns; any other engine has built
// nothing yet.
func (e *Engine) Build() {
	e.ensureUsable()
	e.resetFailoverBudget()
	e.assignShards()
	// Engines of an earlier Build stay behind until the next
	// materialisation overwrites them; nothing reads them meanwhile.
	e.intraReady.Store(false)
	e.overlayMoved(true, nil)
	e.invalidate()
}

// materialiseIntra is the gate every read of an intra distance passes
// (intraBall, intraDist): the first one builds every partition's engine
// from the subgraph mirrors, fanned across the shards, each fanning
// across its own pool, while concurrent readers of the same read epoch
// wait; afterwards it is one atomic load. It reports whether this call
// did the build. A worker lost during a remote build is failed over like
// any other loss: its partitions move to survivors or spares and the
// build retries.
func (e *Engine) materialiseIntra() bool {
	if e.intraReady.Load() {
		return false
	}
	e.intraMu.Lock()
	defer e.intraMu.Unlock() // a remote build may unwind as a shard fault
	if e.intraReady.Load() {
		return false
	}
	e.withFailover(nil, func() {
		cfg := e.shardConfig()
		src := &engineSource{e: e}
		owned := e.groupByShard()
		if e.remote {
			alive := e.aliveIndices()
			// Remote builds block on the worker; overlap them.
			parallelFor(len(alive), len(alive), func(k int) {
				i := alive[k]
				if err := e.shards[i].Build(cfg, i, owned[i], src); err != nil {
					e.shardFail(i, err)
				}
			})
			return
		}
		// In-process shards fan partitions across the full pool
		// themselves; building them one after another avoids
		// oversubscribing it.
		for i, sh := range e.shards {
			if err := sh.Build(cfg, i, owned[i], src); err != nil {
				e.shardFail(i, err)
			}
		}
	})
	e.intraBuilds.Inc()
	e.intraReady.Store(true)
	return true
}

// overlayMoved is the one place a mutation tells the bridge overlay what
// it changed: everything (the first build, a widened horizon) or the
// dirty anchors of a batch. An engine whose rows are stitched from the
// overlay reads it on every cache miss of the fan that follows, so it
// reconciles here, inside the mutation's failover boundary, and the
// first time after a Build passes the intra gate here too — on the
// mutation goroutine, where the build can be recorded as a span; any
// other engine answers balls by BFS, and leaves the work to the first
// Dist that needs it — which may never come.
func (e *Engine) overlayMoved(all bool, dirty nodeset.Set) {
	if all {
		e.ov.markAll()
	} else {
		e.ov.mark(dirty)
	}
	if e.stitched {
		if start := time.Now(); e.materialiseIntra() {
			e.span("intra_build", start)
		}
		e.withFailover(nil, e.ov.sync)
	} else if all || len(dirty) > 0 {
		e.metrics.Counter("gpnm_overlay_deferred_total").Inc()
	}
}

// planOverlayRows bulk-prefetches every partition's bridge rows ahead
// of a full overlay (re)build — the Dijkstra fan reads exactly those
// rows, so without the plan each one would cost a first-miss RPC.
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
// idle connections). The engine is unusable afterwards.
func (e *Engine) Close() error {
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
func (e *Engine) Graph() *graph.Graph { return e.part.g }

// Partitioning exposes the partition structure (stats, bridge nodes).
func (e *Engine) Partitioning() *Partitioning { return e.part }

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

// oracleAlive reports whether id is represented in the partition
// structure (it may briefly diverge from graph liveness mid-update;
// the oracle's own state is authoritative for distance queries).
func (e *Engine) oracleAlive(id uint32) bool { return e.part.partIndex(id) != none }

// intraBall visits the intra ball of a partition-local node through the
// owning shard, in whatever order that shard keeps its rows.
func (e *Engine) intraBall(pi int32, local uint32, maxD int, reverse bool, fn func(local uint32, d shortest.Dist) bool) {
	e.materialiseIntra()
	idx := int(e.shardOf[pi])
	if err := e.shards[idx].Ball(int(pi), local, maxD, reverse, fn); err != nil {
		e.shardFail(idx, err)
	}
}

// intraDist returns the shortest path length from x to y using only
// edges inside their (shared) partition; Inf when they differ.
func (e *Engine) intraDist(x, y uint32) shortest.Dist {
	pi := e.part.partIndex(x)
	if pi == none || pi != e.part.partIndex(y) {
		return shortest.Inf
	}
	e.materialiseIntra()
	idx := int(e.shardOf[pi])
	d, err := e.shards[idx].Dist(int(pi), e.part.localOf[x], e.part.localOf[y])
	if err != nil {
		e.shardFail(idx, err)
	}
	return d
}

// Dist returns the stitched shortest path length from x to y.
func (e *Engine) Dist(x, y uint32) shortest.Dist {
	if !e.oracleAlive(x) || !e.oracleAlive(y) {
		return shortest.Inf
	}
	if x == y {
		return 0
	}
	H := e.capHops()
	best := int(shortest.Inf)
	if e.part.partIndex(x) == e.part.partIndex(y) {
		if d := e.intraDist(x, y); d != shortest.Inf {
			best = int(d)
		}
	}
	e.ov.sync()
	e.exitsOf(x, H-1, func(u uint32, du shortest.Dist) {
		e.ov.fwd.Row(u, func(b uint32, dov shortest.Dist) bool {
			if int(du)+int(dov) >= best {
				return true
			}
			if !e.part.isEntry(b) {
				return true
			}
			// d_intra(b, y): only same-partition b help.
			if e.part.partIndex(b) != e.part.partIndex(y) {
				return true
			}
			if db := e.intraDist(b, y); db != shortest.Inf {
				if t := int(du) + int(dov) + int(db); t < best {
					best = t
				}
			}
			return true
		})
		// b == u is not in u's overlay row; the case "exit u, then 0
		// overlay hops" is the intra case already covered.
	})
	if best > H {
		return shortest.Inf
	}
	return shortest.Dist(best)
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
	e.ball(e.fwdRows, x, k, false, fn)
}

// ReverseBall visits {s : d(s,y) ≤ k}, nearest first.
func (e *Engine) ReverseBall(y uint32, k int, fn func(s uint32, d shortest.Dist) bool) {
	e.ball(e.revRows, y, k, true, fn)
}

// rowTable holds one direction's materialised rows — shard.Row, the
// layered form the shards serve their intra rows in, here over global
// ids — indexed by source id. A slot is written once per read epoch with
// an atomic publish and read with an atomic load, so concurrent readers
// of one frozen engine state need no lock: two goroutines missing on the
// same source build identical rows and either publish is as good as the
// other.
type rowTable []atomic.Pointer[shard.Row]

// ball serves a ball query from the materialised rows, building and
// publishing the full-horizon row on a miss.
func (e *Engine) ball(rows rowTable, x uint32, k int, reverse bool, fn func(v uint32, d shortest.Dist) bool) {
	if k < 0 || !e.oracleAlive(x) {
		return
	}
	row := rows[x].Load()
	if row == nil {
		row = e.buildRow(x, reverse)
		rows[x].Store(row)
	}
	row.Visit(k, fn)
}

// buildRow materialises the full-horizon row of x. By default the row
// comes from a bounded BFS over the data graph — exact, already in
// layer order, and the cheapest way to materialise one row of the capped
// SLen. WithStitchedQueries (forced on for remote shards) switches to
// assembling the row from the §V structures (intra distances + bridge
// overlay); the two hold the same (id, distance) pairs (enforced by
// tests), the stitched path being what Dist uses for point queries
// either way. buildRow only reads shared state (scratch is pooled), so
// rows for distinct sources assemble concurrently.
func (e *Engine) buildRow(x uint32, reverse bool) *shard.Row {
	if reverse {
		e.rowsBuilt[1].Inc()
	} else {
		e.rowsBuilt[0].Inc()
	}
	if e.stitched {
		return e.stitchRow(x, reverse)
	}
	gb := e.gballPool.Get().(*shortest.GraphBall)
	row := shard.NewRow(gb.Row(e.part.g, x, e.horizon, reverse)) // horizon 0 = unbounded
	e.gballPool.Put(gb)
	return &row
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
	s.epoch++
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
func (e *Engine) stitchRow(x uint32, reverse bool) *shard.Row {
	k := e.capHops()
	sc := e.ballPool.Get().(*ballScratch)
	sc.begin(e.part.g.NumIDs())
	merge := sc.merge
	// Intra segment.
	pi := e.part.partIndex(x)
	pt := e.part.parts[pi]
	e.intraBall(pi, e.part.localOf[x], k, reverse, func(local uint32, d shortest.Dist) bool {
		merge(pt.globals[local], d)
		return true
	})
	// Overlay-mediated segments.
	e.ov.sync()
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
	return &row
}

// conservativeEdgeAffected is the ball superset used as the affected set
// of an edge update (shard.EdgeAffected with pooled scratch). The balls
// come from a direct BFS over the data graph — the graph always reflects
// the same state as the oracle, and adjacency BFS is far cheaper than
// stitching. Read-only: safe to evaluate for many updates concurrently.
func (e *Engine) conservativeEdgeAffected(u, v uint32) nodeset.Set {
	gb := e.gballPool.Get().(*shortest.GraphBall)
	s := shard.EdgeAffected(gb, e.part.g, u, v, e.horizon)
	e.gballPool.Put(gb)
	return s
}

// InsertEdge synchronises the substrate after edge (u,v) was added to
// the graph and returns the affected superset.
func (e *Engine) InsertEdge(u, v uint32) nodeset.Set {
	e.ensureUsable()
	e.resetFailoverBudget()
	var dirty nodeset.Builder
	e.applyOps([]shard.Op{e.stageInsertEdge(u, v, &dirty)}, &dirty)
	e.overlayMoved(false, dirty.Set())
	e.invalidate()
	return e.conservativeEdgeAffected(u, v)
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
// sets. In-process shards receive only the ops they own, one by one in
// op order — once their engines exist: until then there is nothing to
// advance (the gate builds from the mirrors staging has just edited) and
// nothing to settle, because every overlay build reads intra rows, so an
// overlay over absent engines still owes its full build. Remote shards
// each receive the full stream (replica-only ops included) in one
// epoch-fenced RPC, issued to all shards in parallel. The remote flush is
// failover-protected: a worker lost mid-flush is quarantined, its
// partitions rebuilt from the coordinator's mirrors, and the same epoch
// re-flushed — survivors that already applied it answer their recorded
// sets, so nothing double-applies.
func (e *Engine) applyOps(ops []shard.Op, dirty *nodeset.Builder) {
	if len(ops) == 0 {
		return
	}
	if !e.remote {
		if !e.intraReady.Load() {
			if !e.ov.full {
				e.ov.markAll() // held by construction; not left to it
			}
			return
		}
		for _, op := range ops {
			if op.Shard < 0 {
				continue
			}
			// In-process shards are always *shard.Local; the single-op
			// fast path keeps phase 2 allocation-free like the monolith.
			if l, ok := e.shards[op.Shard].(*shard.Local); ok {
				e.settleOp(op, l.ApplyOp(op), dirty)
				continue
			}
			aff, err := e.shards[op.Shard].ApplyOps(0, []shard.Op{op}, nil)
			if err != nil {
				e.shardFail(op.Shard, err)
			}
			e.settleOp(op, aff[0], dirty)
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
	parallelFor(len(alive), len(alive), func(k int) {
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

// DeleteEdge synchronises the substrate after edge (u,v) was removed
// from the graph and returns the affected superset (evaluated in the
// pre-delete state).
func (e *Engine) DeleteEdge(u, v uint32) nodeset.Set {
	e.ensureUsable()
	e.resetFailoverBudget()
	aff := e.conservativeEdgeAffected(u, v)
	var dirty nodeset.Builder
	e.applyOps([]shard.Op{e.stageDeleteEdge(u, v, &dirty)}, &dirty)
	e.overlayMoved(false, dirty.Set())
	e.invalidate()
	return aff
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

// InsertNode registers a freshly added (isolated) node.
func (e *Engine) InsertNode(id uint32) nodeset.Set {
	e.ensureUsable()
	e.resetFailoverBudget()
	var dirty nodeset.Builder
	e.applyOps([]shard.Op{e.stageInsertNode(id)}, &dirty)
	e.invalidate()
	return nodeset.New(id)
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

// nodeAffected is read-only with pooled scratch, like
// conservativeEdgeAffected (shard.NodeAffected).
func (e *Engine) nodeAffected(id uint32, outs, ins []uint32) nodeset.Set {
	gb := e.gballPool.Get().(*shortest.GraphBall)
	s := shard.NodeAffected(gb, e.part.g, id, outs, ins, e.horizon)
	e.gballPool.Put(gb)
	return s
}

// DeleteNode synchronises the substrate after node id (with incident
// edges removed, as returned by graph.RemoveNode) was deleted.
func (e *Engine) DeleteNode(id uint32, removed []graph.Edge) nodeset.Set {
	e.ensureUsable()
	e.resetFailoverBudget()
	var outs, ins []uint32
	for _, ed := range removed {
		if ed.From == id {
			outs = append(outs, ed.To)
		} else {
			ins = append(ins, ed.From)
		}
	}
	aff := e.nodeAffected(id, outs, ins)
	var dirty nodeset.Builder
	e.applyOps([]shard.Op{e.stageDeleteNode(id, removed, &dirty)}, &dirty)
	e.overlayMoved(false, dirty.Set())
	e.invalidate()
	return aff
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

// EnsureHorizon widens a capped engine to cover bound k, rebuilding the
// per-partition engines (shard-side) where they exist — absent ones are
// built at the horizon of their first read — and marking the overlay.
func (e *Engine) EnsureHorizon(k int) {
	if e.horizon == 0 || k <= e.horizon {
		return
	}
	e.ensureUsable()
	e.resetFailoverBudget()
	e.horizon = k
	e.part.horizon = k
	e.withFailover(nil, func() {
		if !e.intraReady.Load() {
			return
		}
		if e.remote {
			alive := e.aliveIndices()
			parallelFor(len(alive), len(alive), func(j int) {
				i := alive[j]
				if err := e.shards[i].EnsureHorizon(k); err != nil {
					e.shardFail(i, err)
				}
			})
			return
		}
		for i, sh := range e.shards {
			if err := sh.EnsureHorizon(k); err != nil {
				e.shardFail(i, err)
			}
		}
	})
	e.overlayMoved(true, nil)
	e.invalidate()
}

// CloneFor returns an independent copy of the engine operating on g2,
// a clone of the engine's graph. In-process engines that exist are
// deep-copied together with the overlay; absent ones stay absent in the
// clone, which gets empty in-process shards and an overlay that owes its
// full build. So does the clone of a remote engine — the workers hold
// that state and cannot be cloned — which serves locally and therefore
// answers its balls by BFS like any in-process engine: same distances,
// built from the coordinator's subgraph mirrors if a Dist ever asks.
func (e *Engine) CloneFor(g2 *graph.Graph) shortest.DistanceEngine {
	c := &Engine{
		horizon:         e.horizon,
		stitched:        e.stitched && !e.remote,
		workers:         e.workers,
		failoverRetries: e.failoverRetries,
		// The clone shares the parent's registry but not its trace sink:
		// a forked engine's batches are their own, not the parent batch's.
		metrics: e.metrics,
	}
	c.initPools()
	p := e.part
	cp := &Partitioning{
		g:        g2,
		horizon:  p.horizon,
		partOf:   append([]int32(nil), p.partOf...),
		localOf:  append([]uint32(nil), p.localOf...),
		byLabel:  make(map[graph.LabelID]int32, len(p.byLabel)),
		crossOut: append([]int32(nil), p.crossOut...),
		crossIn:  append([]int32(nil), p.crossIn...),
	}
	for k, v := range p.byLabel {
		cp.byLabel[k] = v
	}
	for _, pt := range p.parts {
		cp.parts = append(cp.parts, &part{
			label:   pt.label,
			sub:     pt.sub.Clone(),
			globals: append([]uint32(nil), pt.globals...),
			exits:   append([]uint32(nil), pt.exits...),
			entries: append([]uint32(nil), pt.entries...),
		})
	}
	c.part = cp
	c.invalidate()
	// The routing carries over slot for slot (partitions only ever sit on
	// alive slots, and every slot of the clone is a live Local).
	c.shardOf = append([]int32(nil), e.shardOf...)
	c.shardAlive = make([]bool, len(e.shards))
	ready := !e.remote && e.intraReady.Load()
	for i, sh := range e.shards {
		c.shardAlive[i] = true
		if ready {
			c.shards = append(c.shards, sh.(*shard.Local).Clone(c.subOf))
		} else {
			c.shards = append(c.shards, shard.NewLocal(c.subOf))
		}
	}
	c.intraReady.Store(ready)
	c.ov = newOverlay(c)
	if ready {
		e.ov.cloneInto(c.ov)
	}
	return c
}

// remoteAffected computes the batch's conservative affected balls on
// the remote shards' data-graph replicas. It follows the same bulk
// contract as the row plane: the whole phase issues exactly ONE
// /affected RPC per alive shard (requests sliced round-robin across the
// fleet), the per-shard calls run concurrently on the coordinator, and
// each worker fans its slice across its own pool — so phase latency is
// one round trip plus the slowest slice, never a per-update loop.
// phase4 selects the insertion (post-state) pass; otherwise the
// deletion (pre-state) pass runs.
func (e *Engine) remoteAffected(ds []updates.Update, g *graph.Graph, phase4 bool, applied []bool, perUpdate []nodeset.Set) {
	var reqs []shard.AffectedReq
	var idx []int
	for i, u := range ds {
		if !phase4 {
			switch u.Kind {
			case updates.DataEdgeDelete:
				if g.HasEdge(u.From, u.To) {
					reqs = append(reqs, shard.AffectedReq{Kind: shard.OpEdgeDelete, From: u.From, To: u.To})
					idx = append(idx, i)
				}
			case updates.DataNodeDelete:
				if g.Alive(u.Node) {
					reqs = append(reqs, shard.AffectedReq{Kind: shard.OpNodeDelete, Node: u.Node})
					idx = append(idx, i)
				}
			}
			continue
		}
		if !applied[i] {
			continue
		}
		switch u.Kind {
		case updates.DataEdgeInsert:
			reqs = append(reqs, shard.AffectedReq{Kind: shard.OpEdgeInsert, From: u.From, To: u.To})
			idx = append(idx, i)
		case updates.DataNodeInsert:
			perUpdate[i] = nodeset.New(u.Node)
		}
	}
	if len(reqs) == 0 {
		return
	}
	// Slice round-robin over the alive slots only: after a failover the
	// retried phase re-slices against the repaired fleet.
	alive := e.aliveIndices()
	ns := len(alive)
	slices := make([][]shard.AffectedReq, ns)
	sliceIdx := make([][]int, ns)
	for j := range reqs {
		s := j % ns
		slices[s] = append(slices[s], reqs[j])
		sliceIdx[s] = append(sliceIdx[s], idx[j])
	}
	parallelFor(ns, ns, func(s int) {
		if len(slices[s]) == 0 {
			return
		}
		sets, err := e.shards[alive[s]].Affected(slices[s])
		if err != nil {
			e.shardFail(alive[s], err)
		}
		for k, set := range sets {
			perUpdate[sliceIdx[s][k]] = set
		}
	})
}
