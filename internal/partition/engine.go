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

// Engine is the distance substrate of UA-GPNM: the data graph, the hop
// horizon and two tables of materialised ball rows, one per direction,
// from which every read is served (ball). What builds a missing row, and
// what a build, a horizon widening or a batch does beyond moving the
// graph and clearing rows, is the engine's substrate, chosen once by
// NewEngine and never changed: the ball plane (ballPlane) or the paper's
// §V label partition (sectionV). Both answer the same oracle, and the
// three point methods (Dist, WithinHops, Reachable) are one ForwardBall
// scan on either. The change logs are the engine's own on both:
// multi-source shortest.Sweep runs over the graph it owns.
//
// Concurrency contract: mutations are single-goroutine like every other
// DistanceEngine — callers never invoke two mutating methods (Build,
// ApplyData, EnsureHorizon) concurrently, nor a
// mutation concurrently with anything else. A batch's ball phases are
// four serial sweeps on the mutating goroutine (ApplyData); only §V fans
// its embarrassingly parallel phases (per-partition intra builds and
// per-source overlay Dijkstras) across the workpool, as wide as
// GOMAXPROCS (and across shard processes when remote). Every parallel
// phase only reads shared structures and keeps its mutable state in
// pooled per-worker scratch, with results installed from a single
// goroutine.
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
// Engine implements shortest.DistanceEngine; its change logs are the
// conservative ball supersets documented on ApplyData, and AffectedSets
// splits them per update.
type Engine struct {
	g       *graph.Graph
	horizon int
	sub     substrate // never nil

	// Materialised ball rows, indexed by direction (0 forward, 1
	// reverse) and source node, built by the substrate on the first read
	// that goes past the source. The matching fixpoint queries the same
	// sources many times per amendment; a materialised row makes every
	// repeat a prefix scan, as it would be on a materialised global SLen.
	// A row stays until its source moves: a mutation clears only the
	// slots its log of that direction names (dropRows), so the tables
	// hold at most one row per (id, direction), and a fork starts with
	// its parent's rows (CloneFor).
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

// substrate is the half of an Engine its shape decides. On the read path
// only a row miss reaches it (buildRow); a batch hands it each update the
// graph took (stage), then ends phase 2 (flush) and runs phase 3
// (reconcile); the rest backs the exported methods they are named after.
type substrate interface {
	buildRow(x uint32, depth int, reverse bool) *ballRow
	build()      // Build, before the rows are dropped
	widen(k int) // EnsureHorizon, after the horizon moved to k
	stage(u updates.Update, removed []graph.Edge)
	flush()
	reconcile()
	err() error
	isRemote() bool
	recovered() uint64
	recovering() bool
	close() error
	partitioning() *Partitioning
	readFailover(fn func())
	prefetch(ids nodeset.Set)
	forkOption() Option // how a CloneFor of the engine picks the clone's substrate
}

// ballPlane is the substrate without §V — no WithShards, no
// WithStitchedQueries — that every in-process session and hub, every fork
// and every clone of a remote engine runs on: the matcher asks for
// bounded balls and nothing else. A row is a GraphBall read off the data
// graph (one shortest.Sweep), exact, already in layer order, and only as
// deep as the read that misses on it (ball rebuilds it deeper when a
// later read goes further). There is no partition, shard or overlay:
// every other step is empty, and nothing can be lost.
type ballPlane struct{ *Engine }

func (b ballPlane) buildRow(x uint32, depth int, reverse bool) *ballRow {
	gb := graphBalls.Get().(*shortest.GraphBall)
	row := &ballRow{Row: shard.NewRow(gb.Row(b.g, x, depth, reverse))}
	graphBalls.Put(gb)
	// Open when the sweep may have stopped short of nodes within the cap:
	// its last layer sits at depth, and depth is below the cap.
	row.open = depth < b.capHops() && row.Layers() == depth+1
	return row
}

func (ballPlane) build()                             {}
func (ballPlane) widen(int)                          {}
func (ballPlane) stage(updates.Update, []graph.Edge) {}
func (ballPlane) flush()                             {}
func (ballPlane) reconcile()                         {}
func (ballPlane) err() error                         { return nil }
func (ballPlane) isRemote() bool                     { return false }
func (ballPlane) recovered() uint64                  { return 0 }
func (ballPlane) recovering() bool                   { return false }
func (ballPlane) close() error                       { return nil }
func (ballPlane) partitioning() *Partitioning        { return nil }
func (ballPlane) readFailover(fn func())             { fn() }
func (ballPlane) prefetch(nodeset.Set)               {}
func (ballPlane) forkOption() Option                 { return func(*config) {} }

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
func (e *Engine) Err() error { return e.sub.err() }

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
//	func (e *Engine) ApplyData(...) (..., err error) {
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

// dropRows ends a mutation by clearing, in place, the forward rows of
// its forward log and the reverse rows of its reverse log. Every other
// row is still exact — a row is d(x,·) (reverse: d(·,x)) within the
// horizon on either shape, and it moves only if some pair (x,·) (reverse:
// (·,x)) moves, which puts x in that direction's log — so it stays for
// the next read epoch and every one after it until its source moves.
// When the graph's ids outgrew a table it grows by a quarter of
// headroom, slot by slot, so the copying is amortised over the node
// inserts.
func (e *Engine) dropRows(logs [2]nodeset.Set) {
	n := e.g.NumIDs()
	for d, t := range e.rows {
		for _, x := range logs[d] {
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

// config is what the options set and NewEngine reads.
type config struct {
	stitched       bool
	shards, spares []shard.Shard
	metrics        *obs.Registry
}

// Option configures the partition engine.
type Option func(*config)

// WithStitchedQueries selects the in-process §V plane: the partitions
// live in one shard.Local, built and maintained eagerly with the overlay,
// and cache-miss ball rows assemble through them instead of a direct
// sweep of the graph. Results are identical; this exists to exercise and
// measure the literal §V computation (a fleet given by WithShards
// implies it, with the intra state held by the workers).
func WithStitchedQueries() Option {
	return func(c *config) { c.stitched = true }
}

// WithShards selects the §V plane served by the given shards — the
// fleet: remote workers, which hold the partitions, their losses failed
// over. Partitions are assigned round-robin. No shards selects nothing.
func WithShards(shs ...shard.Shard) Option {
	return func(c *config) {
		if len(shs) > 0 {
			c.shards = append([]shard.Shard(nil), shs...)
		}
	}
}

// WithSpares holds the given remote shards in standby: when a serving
// shard is lost, the failover controller promotes the next live spare
// into the dead slot (full build from the data graph) before
// falling back to packing the lost partitions onto survivors. Only
// meaningful with remote shards.
func WithSpares(shs ...shard.Shard) Option {
	return func(c *config) { c.spares = append(c.spares, shs...) }
}

// WithMetrics directs the engine's telemetry (phase latency
// histograms, recovery counters, trace spans) into reg instead of the
// process-global obs.Default — the hub hands its Config.Metrics
// through this way.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) {
		if reg != nil {
			c.metrics = reg
		}
	}
}

// NewEngine creates an engine over g with the given hop horizon
// (0 = exact) and fixes its substrate: §V when the options name a fleet
// or stitched queries, the ball plane otherwise. Call Build before
// querying.
func NewEngine(g *graph.Graph, horizon int, opts ...Option) *Engine {
	cfg := config{metrics: obs.Default}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.spares) > 0 && len(cfg.shards) == 0 {
		//lint:allow panic constructor misuse invariant; spare promotion only makes sense for remote fleets
		panic("partition: spare shards require a remote shard fleet")
	}
	e := &Engine{g: g, horizon: horizon, metrics: cfg.metrics}
	// The read-side counters are resolved once: a registry lookup takes
	// its lock, which a row build on every pool worker must not.
	for d, dir := range []string{"fwd", "rev"} {
		e.rowsBuilt[d] = e.metrics.Counter("gpnm_ball_rows_built_total", "dir", dir)
		e.rowsDeepened[d] = e.metrics.Counter("gpnm_ball_rows_deepened_total", "dir", dir)
	}
	if len(cfg.shards) == 0 && !cfg.stitched {
		e.sub = ballPlane{e}
		return e
	}
	sv := &sectionV{Engine: e, shards: cfg.shards, spares: cfg.spares, remote: len(cfg.shards) > 0}
	if !sv.remote {
		sv.shards = []shard.Shard{shard.NewLocal()}
	}
	sv.ballPool.New = func() interface{} { return new(ballScratch) }
	sv.part = newPartitioning(g)
	sv.shardAlive = make([]bool, len(sv.shards))
	for i := range sv.shardAlive {
		sv.shardAlive[i] = true
	}
	sv.ov = newOverlay(sv)
	e.sub = sv
	return e
}

// Workers reports the width of the pool the engine's phases fan across:
// runtime.GOMAXPROCS(0), read now. It is kept for benchmark/layers.go
// (ROADMAP 1 (g)).
func (e *Engine) Workers() int { return runtime.GOMAXPROCS(0) }

// Remote reports whether the engine is served by out-of-process workers.
func (e *Engine) Remote() bool { return e.sub.isRemote() }

// Recovered reports how many shard losses the engine has absorbed
// through failover over its lifetime. The hub folds the per-batch delta
// into BatchStats.Recovered.
func (e *Engine) Recovered() uint64 { return e.sub.recovered() }

// Recovering reports whether a failover is in flight right now — the
// degraded-not-dead state health endpoints surface without blocking on
// the mutation in progress.
func (e *Engine) Recovering() bool { return e.sub.recovering() }

// Build (re)derives the substrate from the data graph and leaves empty
// row tables: on the ball plane that is all; §V builds every intra
// engine and the overlay first, so nothing is left for a reader.
func (e *Engine) Build() {
	e.ensureUsable()
	e.sub.build()
	e.invalidate()
}

// Close releases the shards and any unpromoted spares (remote: closes
// idle connections); the ball plane has nothing to release. The engine
// is unusable afterwards.
func (e *Engine) Close() error { return e.sub.close() }

// Graph returns the engine's data graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Partitioning exposes the partition structure (stats, bridge nodes) of
// the §V plane; the ball plane has none and reports nil.
func (e *Engine) Partitioning() *Partitioning { return e.sub.partitioning() }

// Horizon reports the hop cap (0 = exact).
func (e *Engine) Horizon() int { return e.horizon }

// Exact reports whether the engine represents unbounded distances.
func (e *Engine) Exact() bool { return e.horizon == 0 }

func (e *Engine) capHops() int { return shortest.CapHops(e.horizon) }

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
// within the horizon (every §V row, and a sweep that ran out of nodes).
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
// been on no log of the row's direction since the row was built. Every
// mutation leaves the tables covering the graph's ids, so a live x has a
// slot.
func (e *Engine) ball(dir int, x uint32, k int, r ballRead) {
	if k < 0 || !e.g.Alive(x) || !r.source(x) || k == 0 {
		return
	}
	depth := min(k, e.capHops())
	slot := &e.rows[dir][x]
	row := slot.Load()
	if row == nil {
		row = e.sub.buildRow(x, depth, dir == 1)
		e.rowsBuilt[dir].Inc()
		publish(slot, row)
	}
	if !r.scan(row, 1, k) || row.covers(k) {
		return
	}
	from := row.Layers()
	row = e.sub.buildRow(x, depth, dir == 1)
	e.rowsDeepened[dir].Inc()
	publish(slot, row)
	r.scan(row, from, k)
}

// graphBalls holds the ball readers of every engine, one per concurrent
// read: a reader's sweep serves any graph, so a fork's first batch
// reuses what its parent grew.
var graphBalls = sync.Pool{New: func() any { return shortest.NewGraphBall() }}

// EnsureHorizon widens a capped engine to cover bound k. Every row stops
// at the old horizon, so all are dropped — on the ball plane that is all
// there is to do; §V also widens its intra engines and rebuilds the
// overlay over them.
func (e *Engine) EnsureHorizon(k int) {
	if e.horizon == 0 || k <= e.horizon {
		return
	}
	e.ensureUsable()
	e.horizon = k
	e.sub.widen(k)
	e.invalidate()
}

// CloneFor returns an independent engine of the same shape operating on
// g2, a clone of the engine's graph: an in-process §V plane is built
// afresh over g2. The clone of a remote engine is a ball plane — the
// workers hold the §V state and cannot be cloned — and answers the same
// distances. On every shape the clone starts with the parent's rows,
// copied slot by slot into its own tables: rows are immutable and hold
// the same pairs on either shape, and g2 is the parent's graph, so each
// carried row is exact for the clone until its own log of the row's
// direction names the source. A poisoned engine has no such rows to hand
// out — its last batch may have moved the graph without clearing them —
// so it raises its loss, like Build. The clone shares the parent's registry but not
// its trace sink: a forked engine's batches are their own, not the
// parent batch's.
func (e *Engine) CloneFor(g2 *graph.Graph) shortest.DistanceEngine {
	e.ensureUsable()
	c := NewEngine(g2, e.horizon, WithMetrics(e.metrics), e.sub.forkOption())
	c.Build()
	for d := range c.rows {
		c.rows[d].copyFrom(e.rows[d])
	}
	return c
}
