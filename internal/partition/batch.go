package partition

import (
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/updates"
	"uagpnm/internal/workpool"
)

// ApplyDataBatch applies a whole ΔGD sequence to the data graph and the
// substrate and returns the per-update affected sets (Aff_N, for
// DER-II/EH-Tree) plus the batch change log the amendment seeds on: the
// forward log, every source whose forward row d(x,·) may have moved.
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
// the final state is witnessed by one of the two: x lies within H−1 of
// the tail of some updated edge, so x is on the forward log and y on the
// reverse log, exactly as the same updates applied as one-update batches
// would name them. Every node the batch inserts or deletes is on both.
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
func (e *Engine) ApplyDataBatch(ds []updates.Update, g *graph.Graph) (perUpdate []nodeset.Set, changeLog nodeset.Set, err error) {
	perUpdate, logs, err := e.applyBatch(ds, g)
	return perUpdate, logs[0], err
}

// applyBatch is ApplyDataBatch with both logs: the forward log (index 0)
// and the reverse log (index 1), the union of the applied updates'
// forward and reverse halves.
func (e *Engine) applyBatch(ds []updates.Update, g *graph.Graph) (perUpdate []nodeset.Set, logs [2]nodeset.Set, err error) {
	if lossErr := e.Err(); lossErr != nil {
		return nil, logs, lossErr
	}
	defer RecoverSubstrateLoss(&err)
	e.metrics.Counter("gpnm_batches_total").Inc()
	perUpdate = make([]nodeset.Set, len(ds))
	halves := make([][2]nodeset.Set, len(ds)) // forward, reverse; nil for a no-op
	H := e.capHops()

	// Phase 1: pre-state balls for deletions (nothing applied yet).
	phaseStart := time.Now()
	workpool.ForEach(len(ds), func(i int) {
		switch u := ds[i]; u.Kind {
		case updates.DataEdgeDelete:
			if g.HasEdge(u.From, u.To) {
				halves[i] = e.affectedHalves(u.From, u.To, H-1)
				perUpdate[i] = halves[i][0].Union(halves[i][1])
			}
		case updates.DataNodeDelete:
			if g.Alive(u.Node) {
				halves[i] = e.affectedHalves(u.Node, u.Node, H)
				perUpdate[i] = halves[i][0].Union(halves[i][1])
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
			halves[i] = e.affectedHalves(u.From, u.To, H-1)
			perUpdate[i] = halves[i][0].Union(halves[i][1])
		case updates.DataNodeInsert:
			perUpdate[i] = nodeset.Set{u.Node}
			halves[i] = [2]nodeset.Set{perUpdate[i], perUpdate[i]}
		}
	})
	for d := range logs {
		logs[d] = batchLog(halves, applied, d)
	}
	e.dropRows(logs)
	e.span("post_balls", phaseStart)

	return perUpdate, logs, nil
}

// batchLog is the union of the applied updates' halves in direction d,
// built as one exact-size slice, sorted and de-duplicated in place.
func batchLog(halves [][2]nodeset.Set, applied []bool, d int) nodeset.Set {
	n := 0
	for i, h := range halves {
		if applied[i] {
			n += len(h[d])
		}
	}
	if n == 0 {
		return nil
	}
	ids := make([]uint32, 0, n)
	for i, h := range halves {
		if applied[i] {
			ids = append(ids, h[d]...)
		}
	}
	return nodeset.FromUnsorted(ids)
}
