package partition

import (
	"sync"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
	"uagpnm/internal/workpool"
)

// ApplyData applies a whole ΔGD sequence to the data graph and the
// substrate and returns the per-update affected sets (Aff_N, for
// DER-II/EH-Tree) plus the batch change log the amendment seeds on: the
// forward log, every source whose forward row d(x,·) may have moved, with
// its depth δ(x).
//
// Each update's affected set is the union of two conservative ball
// halves (affectedHalves): the forward half holds the sources of every
// pair whose distance it may move, the reverse half their targets. For
// an edge (u,v) they are {u} ∪ ReverseBall(u,H−1) and {v} ∪
// ForwardBall(v,H−1); for a node delete {id} ∪ ReverseBall(id,H) and
// {id} ∪ ForwardBall(id,H); for a node insert {id} both. Deletions take
// their balls in the pre-batch state (covering every pair whose original
// shortest path used the deleted element), insertions in the post-batch
// state (covering every pair whose new shortest path uses the inserted
// edge). A pair (x,y) whose distance differs between the original and
// the final state is witnessed by one of the two, and the witness keeps
// the distance. If the final distance is the smaller, the final shortest
// path x ⇝ y uses an inserted edge (u,v); its prefix to the first one
// runs in the final graph, so d(x,u)+1 there is at most the final
// distance, and the insert's post-batch ball holds x at depth d(x,u)+1.
// If the original is the smaller, the original path uses an element the
// batch deleted — an edge (u,v), or a node id; its prefix to the first
// one runs in the original graph, and the deletion's pre-batch ball
// holds x at depth d(x,u)+1 (d(x,id)), at most the original distance. So
// x lies within H−1 of the tail of some updated edge (H of a deleted
// node), x is on the forward log at a depth δ(x) ≤ min(old, new) and y
// on the reverse log, exactly as the same updates applied as one-update
// batches would name them. Every node the batch inserts or deletes is on
// both, at depth 0; a source several updates name keeps its smallest
// depth.
//
// The same argument keeps the materialised ball rows: the batch ends by
// clearing the forward rows of the forward log and the reverse rows of
// the reverse log (dropRows).
//
// Every batch runs four phases under the same span names on either
// substrate: pre_balls; oplog_flush, the graph mutations in update order,
// each staged into the substrate as it lands, then its flush;
// overlay_sync, the substrate's reconcile; post_balls with the row drop.
// The ball phases (1 and 4) are read-only snapshots of a fixed state of
// the engine's own graph, one update per pool worker. No row is built
// here: the amendment that follows builds each row the drop cleared on
// its first read.
//
// This is the substrate's error and failover boundary: on the ball plane
// nothing can fail; a fleet repairs a lost worker and retries the phase
// (recovery.go). Only when that fails is an error wrapping
// shard.ErrSubstrateLost returned, with the engine poisoned (Err reports
// the sticky loss) because the data graph and the intra state may then
// disagree about which prefix of the batch applied. Callers of a
// poisoned engine drain and rebuild.
func (e *Engine) ApplyData(ds []updates.Update, g *graph.Graph) (perUpdate []nodeset.Set, log shortest.ChangeLog, err error) {
	perUpdate, log, _, err = e.applyBatch(ds, g)
	return perUpdate, log, err
}

// ApplyDataBatch is ApplyData with the change log's members only. It is
// kept for benchmark/layers.go (ROADMAP 1 (l)).
func (e *Engine) ApplyDataBatch(ds []updates.Update, g *graph.Graph) (perUpdate []nodeset.Set, changeLog nodeset.Set, err error) {
	perUpdate, log, err := e.ApplyData(ds, g)
	return perUpdate, log.Nodes, err
}

// applyBatch is ApplyData with the reverse log too: the union of the
// applied updates' reverse halves.
func (e *Engine) applyBatch(ds []updates.Update, g *graph.Graph) (perUpdate []nodeset.Set, log shortest.ChangeLog, rev nodeset.Set, err error) {
	if lossErr := e.Err(); lossErr != nil {
		return nil, log, nil, lossErr
	}
	defer RecoverSubstrateLoss(&err)
	e.metrics.Counter("gpnm_batches_total").Inc()
	perUpdate = make([]nodeset.Set, len(ds))
	halves := make([]affected, len(ds)) // empty for a no-op
	H := e.capHops()

	// Phase 1: pre-state balls for deletions (nothing applied yet).
	phaseStart := time.Now()
	workpool.ForEach(len(ds), func(i int) {
		switch u := ds[i]; u.Kind {
		case updates.DataEdgeDelete:
			if g.HasEdge(u.From, u.To) {
				halves[i] = e.affectedHalves(u.From, u.To, H-1, 1)
				perUpdate[i] = halves[i].set()
			}
		case updates.DataNodeDelete:
			if g.Alive(u.Node) {
				halves[i] = e.affectedHalves(u.Node, u.Node, H, 0)
				perUpdate[i] = halves[i].set()
			}
		}
	})
	e.span("pre_balls", phaseStart)

	// Phase 2: structural application in update order, each update the
	// graph took staged into the substrate, then the substrate's flush.
	phaseStart = time.Now()
	applied := make([]bool, len(ds))
	for i, u := range ds {
		removed, ok := updates.ApplyGraph(u, g)
		if applied[i] = ok; ok {
			e.sub.stage(u, removed)
		}
	}
	e.sub.flush()
	e.span("oplog_flush", phaseStart)

	// Phase 3: the substrate's reconcile, once for the whole batch.
	phaseStart = time.Now()
	e.sub.reconcile()
	e.span("overlay_sync", phaseStart)

	// Phase 4: post-state balls for insertions; assemble both logs and
	// clear their rows.
	phaseStart = time.Now()
	workpool.ForEach(len(ds), func(i int) {
		if !applied[i] {
			return
		}
		switch u := ds[i]; u.Kind {
		case updates.DataEdgeInsert:
			halves[i] = e.affectedHalves(u.From, u.To, H-1, 1)
			perUpdate[i] = halves[i].set()
		case updates.DataNodeInsert:
			halves[i] = inserted(u.Node)
			perUpdate[i] = halves[i].ids[:1]
		}
	})
	log, rev = forwardLog(halves, applied, g.NumIDs()), reverseLog(halves, applied, g.NumIDs())
	e.dropRows([2]nodeset.Set{log.Nodes, rev})
	e.span("post_balls", phaseStart)

	return perUpdate, log, rev, nil
}

// forwardLog is the union of the applied updates' forward halves, each
// member at its smallest depth.
func forwardLog(halves []affected, applied []bool, n int) shortest.ChangeLog {
	lb := logBuilders.Get().(*shortest.LogBuilder)
	defer logBuilders.Put(lb)
	lb.Grow(n)
	for i, h := range halves {
		if applied[i] {
			for j, x := range h.ids[:h.nFwd] {
				lb.Add(x, int(h.depth[j]))
			}
		}
	}
	return lb.Log()
}

// reverseLog is the union of the applied updates' reverse halves.
func reverseLog(halves []affected, applied []bool, n int) nodeset.Set {
	members := memberBits.Get().(*nodeset.Bits)
	defer memberBits.Put(members)
	if members.Capacity() < n {
		*members = *nodeset.NewBits(n + n/4) // headroom for the next batches' inserts
	}
	for i, h := range halves {
		if applied[i] {
			for _, x := range h.ids[h.nFwd:] {
				members.Add(x)
			}
		}
	}
	rev := members.Set()
	members.Clear()
	return rev
}

// logBuilders and memberBits recycle the logs' per-id scratch across
// batches and engines.
var (
	logBuilders = sync.Pool{New: func() any { return new(shortest.LogBuilder) }}
	memberBits  = sync.Pool{New: func() any { return nodeset.NewBits(0) }}
)
