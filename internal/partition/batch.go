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
// DER-II/EH-Tree) plus their union (the batch change log the amendment
// seeds on).
//
// Affected sets are the conservative ball supersets: deletions take
// their balls in the pre-batch state (covering every pair whose original
// shortest path used the deleted element), insertions in the post-batch
// state (covering every pair whose new shortest path uses the inserted
// edge). Any pair whose distance differs between the original and final
// state is witnessed by one of the two, so the union seeds the amendment
// exactly as the same updates applied as one-update batches would.
//
// The same argument keeps the materialised ball rows: the batch ends by
// clearing only the change log's rows (dropRows).
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
	if lossErr := e.Err(); lossErr != nil {
		return nil, nil, lossErr
	}
	defer RecoverSubstrateLoss(&err)
	e.metrics.Counter("gpnm_batches_total").Inc()
	perUpdate = make([]nodeset.Set, len(ds))

	// Phase 1: pre-state balls for deletions (nothing applied yet).
	phaseStart := time.Now()
	workpool.ForEach(len(ds), func(i int) {
		switch u := ds[i]; u.Kind {
		case updates.DataEdgeDelete:
			if g.HasEdge(u.From, u.To) {
				perUpdate[i] = e.conservativeEdgeAffected(u.From, u.To)
			}
		case updates.DataNodeDelete:
			if g.Alive(u.Node) {
				perUpdate[i] = e.nodeAffected(u.Node, g.Out(u.Node), g.In(u.Node))
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

	// Phase 4: post-state balls for insertions; assemble the change log
	// and clear its rows.
	phaseStart = time.Now()
	workpool.ForEach(len(ds), func(i int) {
		if !applied[i] {
			return
		}
		switch u := ds[i]; u.Kind {
		case updates.DataEdgeInsert:
			perUpdate[i] = e.conservativeEdgeAffected(u.From, u.To)
		case updates.DataNodeInsert:
			perUpdate[i] = nodeset.New(u.Node)
		}
	})
	var log nodeset.Builder
	for i := range ds {
		if applied[i] {
			log.AddAll(perUpdate[i])
		}
	}
	changeLog = log.Set()
	e.dropRows(changeLog)
	e.span("post_balls", phaseStart)

	return perUpdate, changeLog, nil
}
