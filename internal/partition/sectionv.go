package partition

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
	"uagpnm/internal/workpool"
)

// sectionV is the substrate of an engine given a fleet (WithShards) or
// WithStitchedQueries: the paper's partition-based SLen, per-partition
// intra distances plus the bridge overlay, with a ball row assembled by
// stitching
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
// builds or reconciles anything but its own row, which is whole (closed)
// whatever depth the read asked for. Here the engine is the
// *coordinator*: it owns the data graph, the partition bookkeeping
// (membership, bridge-node counters), the overlay and the row tables;
// each partition's induced subgraph and intra engine — the superlinear
// part of the state — live behind the shard.Shard seam, in one
// in-process shard.Local or in remote workers (cmd/gpnm-shard over
// HTTP), which can be lost and are failed over (recovery.go). Either
// way a shard builds a partition from the induced subgraph read off the
// data graph (engineSource) and is reached by one path: the batch's op
// log, flushed once per batch under an epoch fence.
type sectionV struct {
	*Engine // the engine this is the substrate of

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

	// The batch in flight, between phase 2's first stage and phase 3:
	// the overlay anchors its updates dirtied, and its op log, flushed
	// once at the end of phase 2.
	dirty  nodeset.Builder
	staged []shard.Op

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

// buildRow stitches x's whole row, closed whatever the depth.
func (sv *sectionV) buildRow(x uint32, _ int, reverse bool) *ballRow {
	return &ballRow{Row: sv.stitchRow(x, reverse)}
}

// build assigns the partitions to shards and builds every intra engine —
// fanned across the shards, each fanning across its own pool — then the
// overlay over them. A worker lost during a remote build is failed over
// like any other loss: its partitions move to survivors or spares and the
// build retries.
func (sv *sectionV) build() {
	sv.resetFailoverBudget()
	sv.assignShards()
	start := time.Now()
	sv.withFailover(nil, func() {
		cfg := sv.shardConfig()
		src := engineSource{sv}
		owned := sv.groupByShard()
		alive := sv.aliveIndices()
		// Remote builds block on the worker; overlap them.
		workpool.ForEachBlocking(len(alive), func(k int) {
			i := alive[k]
			if err := sv.shards[i].Build(cfg, i, owned[i], src); err != nil {
				sv.shardFail(i, err)
			}
		})
	})
	sv.span("intra_build", start)
	sv.withFailover(nil, sv.ov.build)
}

// widen widens every intra engine to the new horizon k (shard-side) and
// rebuilds the overlay over them.
func (sv *sectionV) widen(k int) {
	sv.resetFailoverBudget()
	sv.withFailover(nil, func() {
		alive := sv.aliveIndices()
		workpool.ForEachBlocking(len(alive), func(j int) {
			i := alive[j]
			if err := sv.shards[i].EnsureHorizon(k); err != nil {
				sv.shardFail(i, err)
			}
		})
	})
	sv.withFailover(nil, sv.ov.build)
}

// stage records one update the graph took in the coordinator's partition
// structures, dirtying the overlay anchors it moved, and appends its op
// to the batch's op log.
func (sv *sectionV) stage(u updates.Update, removed []graph.Edge) {
	var op shard.Op
	switch u.Kind {
	case updates.DataEdgeInsert:
		op = sv.stageInsertEdge(u.From, u.To)
	case updates.DataEdgeDelete:
		op = sv.stageDeleteEdge(u.From, u.To)
	case updates.DataNodeInsert:
		op = sv.stageInsertNode(u.Node)
	default:
		op = sv.stageDeleteNode(u.Node, removed)
	}
	sv.staged = append(sv.staged, op)
}

// flush is the one path into the shards: it opens the batch's failover
// boundary and sends the whole ordered op log in one epoch-fenced flush
// to every alive shard, in parallel; each applies the ops it owns in
// order. A fleet's flush also carries the row demand of the phases
// after it (opsRowDemand: the bridge and source rows they will read, so
// the answer refills the rows the flush invalidated), planned inside
// the boundary so a retry after recovery re-plans against the repaired
// assignment. The shard-side affected sets settle into the dirty
// anchors (a superset of the per-op translation, since every
// bridge-status change already dirties its endpoints directly).
// Settling is idempotent (dirty has set semantics), so the failover
// retry of the same epoch is safe: survivors that already applied it
// answer their recorded sets, nothing double-applies, and ops whose
// owning slot died settle nothing — the recovery compensates by
// dirtying the reassigned partitions' bridge anchors conservatively.
func (sv *sectionV) flush() {
	sv.resetFailoverBudget()
	ops := sv.staged
	sv.staged = nil
	if len(ops) == 0 {
		return
	}
	epoch := sv.nextOpEpoch()
	sv.withFailover(&sv.dirty, func() {
		var warm [][]shard.RowReq
		if sv.remote {
			warm = sv.opsRowDemand(ops)
		}
		affs := make([][][]uint32, len(sv.shards))
		alive := sv.aliveIndices()
		workpool.ForEachBlocking(len(alive), func(k int) {
			s := alive[k]
			var w []shard.RowReq
			if s < len(warm) {
				w = warm[s]
			}
			aff, err := sv.shards[s].ApplyOps(epoch, ops, w)
			if err != nil {
				sv.shardFail(s, err)
			}
			affs[s] = aff
		})
		for i, op := range ops {
			if op.Shard >= 0 && affs[op.Shard] != nil && affs[op.Shard][i] != nil {
				sv.settleOp(op, affs[op.Shard][i])
			}
		}
	})
}

// reconcile brings the overlay up to date with the batch's dirty anchors,
// once for the whole batch, at a fraction of the per-update maintenance
// cost, which is what UA-GPNM's batching buys (§VI): the reads that
// follow stitch their rows from it.
func (sv *sectionV) reconcile() {
	dirty := sv.dirty.Set()
	sv.dirty = nodeset.Builder{}
	sv.withFailover(nil, func() { sv.ov.reconcile(dirty) })
}

func (sv *sectionV) err() error {
	sv.lostMu.Lock()
	defer sv.lostMu.Unlock()
	return sv.lost
}

func (sv *sectionV) isRemote() bool              { return sv.remote }
func (sv *sectionV) recovered() uint64           { return sv.recoveredN.Load() }
func (sv *sectionV) recovering() bool            { return sv.recoveringFlag.Load() }
func (sv *sectionV) partitioning() *Partitioning { return sv.part }

// forkOption keeps an in-process §V fork on §V; a fleet's workers hold
// the §V state and cannot be cloned, so its fork is a ball plane.
func (sv *sectionV) forkOption() Option {
	if sv.remote {
		return func(*config) {}
	}
	return WithStitchedQueries()
}

// close releases the shards and any unpromoted spares.
func (sv *sectionV) close() error {
	var first error
	for _, sh := range slices.Concat(sv.shards, sv.spares) {
		//lint:allow faultseam teardown path: failover is already dismantled, the first close error goes to the caller
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
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
// its partitions from the data graph on survivors or spares, and
// retries the phase. Outside such a phase (the
// error-less DistanceEngine query surface, read between mutations) the
// old discipline holds: record the sticky loss and panic with it until
// a boundary method (ApplyData here, ApplyBatch/Register in
// internal/hub) converts it back into a return value with
// RecoverSubstrateLoss. The raw shard error stays wrapped either way,
// so errors.As still surfaces the *shard.TransportError.
func (sv *sectionV) shardFail(idx int, err error) {
	if sv.recoverable.Load() {
		//lint:allow panic this panic IS the failover seam: withFailover recovers the *shardFault and repairs the fleet
		panic(&shardFault{idx: idx, err: err})
	}
	sv.poison(err)
}

// poison records err as the engine's terminal substrate loss (first
// failure wins) and panics with the sticky error.
func (sv *sectionV) poison(err error) {
	sv.lostMu.Lock()
	if sv.lost == nil {
		sv.lost = fmt.Errorf("partition: %w: %w", shard.ErrSubstrateLost, err)
	}
	err = sv.lost
	sv.lostMu.Unlock()
	//lint:allow panic sticky-loss unwind; boundary methods convert it back to an error via RecoverSubstrateLoss
	panic(err)
}

// shardConfig snapshots the parameters every shard builds with,
// including the current op-stream fence (coordinator staging always
// precedes the flush, so a snapshot taken now reflects every op of the
// current epoch).
func (sv *sectionV) shardConfig() shard.Config {
	return shard.Config{Horizon: sv.horizon, Epoch: sv.opEpoch}
}

// aliveIndices lists the shard slots currently serving.
func (sv *sectionV) aliveIndices() []int {
	out := make([]int, 0, len(sv.shards))
	for i, ok := range sv.shardAlive {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// nextAliveShard picks the alive slot at or round-robin after hint.
func (sv *sectionV) nextAliveShard(hint int) int32 {
	n := len(sv.shards)
	for k := 0; k < n; k++ {
		if s := (hint + k) % n; sv.shardAlive[s] {
			return int32(s)
		}
	}
	//lint:allow panic recovery never leaves zero alive slots behind; reaching this is a broken controller invariant
	panic("partition: no alive shard to assign")
}

// assignShards extends the partition → shard map round-robin over any
// partitions created since the last call (skipping quarantined slots).
func (sv *sectionV) assignShards() {
	for len(sv.shardOf) < len(sv.part.parts) {
		sv.shardOf = append(sv.shardOf, sv.nextAliveShard(len(sv.shardOf)))
	}
}

// groupByShard buckets every partition under its owning slot in one
// pass over shardOf.
func (sv *sectionV) groupByShard() [][]int {
	owned := make([][]int, len(sv.shards))
	for p, s := range sv.shardOf {
		owned[s] = append(owned[s], p)
	}
	return owned
}

// nextOpEpoch issues the fence for one remote op flush (single-writer).
func (sv *sectionV) nextOpEpoch() uint64 {
	sv.opEpoch++
	return sv.opEpoch
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
func (sv *sectionV) resetFailoverBudget() { sv.recoveryBudget = failoverBudget }

// engineSource hands shard builds each partition's induced subgraph,
// read off the data graph (shard.Source). A member whose partOf is none
// was deleted: its local id stays, as a tombstone.
type engineSource struct{ sv *sectionV }

func (s engineSource) PartSnapshot(i int) shard.Snapshot {
	p := s.sv.part
	globals := p.parts[i].globals
	snap := shard.Snapshot{Part: i, NumIDs: len(globals)}
	for local, gid := range globals {
		if p.partOf[gid] == none {
			snap.Dead = append(snap.Dead, uint32(local))
			continue
		}
		for _, v := range p.g.Out(gid) {
			if p.partOf[v] == int32(i) {
				snap.Edges = append(snap.Edges, shard.Edge{From: uint32(local), To: p.localOf[v]})
			}
		}
	}
	return snap
}

// planOverlayRows bulk-prefetches every partition's bridge rows ahead
// of a full overlay (re)build — its adjacency fill and the stitched
// rows after it read exactly those rows, so without the plan each one
// would cost a first-miss RPC.
// It runs inside the build's failover boundary (so a retry re-derives
// the demand: recovery reassigns partitions) and records a row_plan
// span so the prefetch cost is visible next to the phases it feeds.
// In-process fleets skip it without a span — there is no RPC to batch.
func (sv *sectionV) planOverlayRows() {
	if !sv.remote {
		return
	}
	start := time.Now()
	sv.prefetchPlannedRows(sv.bridgeRowReqs(sv.allPartIndices()))
	sv.span("row_plan", start)
}

// intraBall visits the intra ball of a partition-local node through the
// owning shard, in whatever order that shard keeps its rows.
func (sv *sectionV) intraBall(pi int32, local uint32, maxD int, reverse bool, fn func(local uint32, d shortest.Dist) bool) {
	idx := int(sv.shardOf[pi])
	if err := sv.shards[idx].Ball(int(pi), local, maxD, reverse, fn); err != nil {
		sv.shardFail(idx, err)
	}
}

// bridgesNear visits the bridge nodes a stitched path can cross x's
// partition boundary at within maxD intra hops: the exits x reaches, or
// with reverse the entries that reach x (x itself at 0 when it is one).
func (sv *sectionV) bridgesNear(x uint32, maxD int, reverse bool, fn func(u uint32, d shortest.Dist)) {
	pi := sv.part.partIndex(x)
	if maxD < 0 || pi == none {
		return
	}
	pt := sv.part.parts[pi]
	sv.intraBall(pi, sv.part.localOf[x], maxD, reverse, func(local uint32, d shortest.Dist) bool {
		if gid := pt.globals[local]; (!reverse && sv.part.isExit(gid)) || (reverse && sv.part.isEntry(gid)) {
			fn(gid, d)
		}
		return true
	})
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
func (sv *sectionV) stitchRow(x uint32, reverse bool) shard.Row {
	k := sv.capHops()
	sc := sv.ballPool.Get().(*ballScratch)
	sc.begin(sv.g.NumIDs())
	merge := sc.merge
	// Intra segment.
	pi := sv.part.partIndex(x)
	pt := sv.part.parts[pi]
	sv.intraBall(pi, sv.part.localOf[x], k, reverse, func(local uint32, d shortest.Dist) bool {
		merge(pt.globals[local], d)
		return true
	})
	// Overlay-mediated segments.
	ovRow, farEnd := sv.ov.fwd, sv.part.isEntry
	if reverse {
		ovRow, farEnd = sv.ov.rev, sv.part.isExit
	}
	sv.bridgesNear(x, k-1, reverse, func(u uint32, du shortest.Dist) {
		ovRow.Row(u, func(b uint32, dov shortest.Dist) bool {
			rem := k - int(du) - int(dov)
			if rem < 0 || !farEnd(b) {
				return true
			}
			bpi := sv.part.partIndex(b)
			bp := sv.part.parts[bpi]
			sv.intraBall(bpi, sv.part.localOf[b], rem, reverse, func(local uint32, d shortest.Dist) bool {
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
	sv.ballPool.Put(sc)
	return row
}

// stageInsertEdge records edge (u,v) in the coordinator's partition
// structures (the graph must already contain it), dirtying the overlay
// anchors for the cross case, and returns the op the owning shard must
// apply.
func (sv *sectionV) stageInsertEdge(u, v uint32) shard.Op {
	op := shard.Op{Kind: shard.OpEdgeInsert, From: u, To: v, Part: -1, Shard: -1}
	pu, pv := sv.part.partIndex(u), sv.part.partIndex(v)
	if pu == pv {
		op.Part, op.Shard, op.LFrom, op.LTo = int(pu), int(sv.shardOf[pu]), sv.part.localOf[u], sv.part.localOf[v]
	} else {
		sv.part.noteCross(u, v, +1)
		sv.dirty.Add(u)
		sv.dirty.Add(v)
	}
	return op
}

// settleOp folds one op's shard-side affected set into the dirty
// overlay anchors: the bridge nodes among its members.
func (sv *sectionV) settleOp(op shard.Op, aff []uint32) {
	if op.Part < 0 || op.Kind == shard.OpNodeInsert {
		return
	}
	pt := sv.part.parts[op.Part]
	for _, local := range aff {
		if gid := pt.globals[local]; sv.part.isOverlay(gid) {
			sv.dirty.Add(gid)
		}
	}
}

// stageDeleteEdge removes edge (u,v) from the coordinator's partition
// structures (the graph must already have dropped it), dirtying its
// endpoints, and returns the op for the owning shard.
func (sv *sectionV) stageDeleteEdge(u, v uint32) shard.Op {
	op := shard.Op{Kind: shard.OpEdgeDelete, From: u, To: v, Part: -1, Shard: -1}
	pu, pv := sv.part.partIndex(u), sv.part.partIndex(v)
	if pu == pv {
		op.Part, op.Shard, op.LFrom, op.LTo = int(pu), int(sv.shardOf[pu]), sv.part.localOf[u], sv.part.localOf[v]
	} else {
		sv.part.noteCross(u, v, -1)
	}
	sv.dirty.Add(u)
	sv.dirty.Add(v)
	return op
}

// stageInsertNode registers id in its label's partition (creating the
// partition — and its shard assignment — if needed) and returns the op
// for the owning shard.
func (sv *sectionV) stageInsertNode(id uint32) shard.Op {
	pi := sv.part.addToPart(id)
	sv.assignShards()
	return shard.Op{
		Kind: shard.OpNodeInsert, Node: id,
		Part: int(pi), Shard: int(sv.shardOf[pi]), Local: sv.part.localOf[id],
	}
}

// stageDeleteNode removes node id from the coordinator's partition
// structures (the graph must already have dropped it and its incident
// edges, passed as removed), dirtying the anchors its cross edges
// moved, and returns the op for the owning shard, whose subgraph drops
// the intra edges with the node.
func (sv *sectionV) stageDeleteNode(id uint32, removed []graph.Edge) shard.Op {
	pi := sv.part.partIndex(id)
	sv.dirty.Add(id)
	for _, ed := range removed {
		if sv.part.partIndex(ed.From) == sv.part.partIndex(ed.To) {
			continue
		}
		sv.part.noteCross(ed.From, ed.To, -1)
		sv.dirty.Add(ed.From)
		sv.dirty.Add(ed.To)
	}
	sv.part.partOf[id] = none
	return shard.Op{
		Kind: shard.OpNodeDelete, Node: id,
		Part: int(pi), Shard: int(sv.shardOf[pi]), Local: sv.part.localOf[id],
	}
}
