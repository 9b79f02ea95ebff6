package partition

import (
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shard"
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
// exactly as the per-update API would.
//
// The same argument keeps the materialised ball rows: a row is d(x,·)
// within the horizon on either shape and moves only if some pair (x,·)
// moves, which puts x in the change log. So the batch ends by clearing
// the change log's rows in place (dropRows) — those sources' rows go,
// every other row stays, however many batches pass without a read.
//
// Both shapes run the same four phases under the same span names. On the
// ball plane they are pre-balls, the graph mutations, an empty phase 3
// and post-balls with the row drop, and nothing can fail. On the
// §V plane phase 2 also stages every update into the coordinator's
// partition structures in update order — handing the in-process shard
// its ops one by one (preserving the monolith's exact interleaving), or
// sending remote shards the whole ordered op log in one epoch-fenced
// flush at the end of the phase (applyOps) — and phase 3 reconciles the
// overlay once for the whole batch, at a fraction of the per-update
// maintenance cost, which is what UA-GPNM's batching buys (§VI). The
// ball phases (1 and 4) are read-only snapshots of a fixed state of the
// coordinator's own graph, one update per pool worker, on either shape:
// no shard holds the data graph, so phase 2's flush is the one call a
// batch makes to a worker. No ball row is built here: the amendment that
// follows reads the rows of the few pairs the batch can change, and
// builds each row the drop cleared on its first read (remote fleets
// bulk-fetch the shard rows those builds need right before the read fan
// — PrefetchBallRows).
//
// This is the substrate's error and failover boundary. Losing a shard
// mid-batch (transport death, subgraph divergence) does not poison by
// default: the dead worker is quarantined, its partitions are rebuilt
// from the coordinator's subgraph mirrors on surviving (or spare)
// workers, and the faulted phase is retried against the repaired
// assignment — the op stream is epoch-fenced so a survivor that had
// already applied the in-flight flush never double-applies, and the
// lost workers' per-op affected sets are compensated by conservatively
// dirtying their partitions' bridge anchors before the overlay
// reconciliation (see recovery.go). Only when no capacity survives or
// the failover budget (failoverBudget) is spent does the terminal
// path fire: an error wrapping shard.ErrSubstrateLost, with the engine
// poisoned (Err reports the sticky loss) because the data graph and the
// intra state may then disagree about which prefix of the batch applied.
// Callers of a poisoned engine drain and rebuild.
func (e *Engine) ApplyDataBatch(ds []updates.Update, g *graph.Graph) (perUpdate []nodeset.Set, changeLog nodeset.Set, err error) {
	if lossErr := e.Err(); lossErr != nil {
		return nil, nil, lossErr
	}
	defer RecoverSubstrateLoss(&err)
	remote := e.Remote()
	if e.sectionV != nil {
		e.resetFailoverBudget()
	}
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

	// Phase 2: structural application in update order. The §V plane
	// stages each applied update and accumulates the overlay anchors it
	// dirtied; remote shards receive the whole ordered op log in one
	// epoch-fenced flush once staging is complete, which settles the
	// shard-side affected sets into dirty (a superset of the per-op
	// translation, since every bridge-status change already dirties its
	// endpoints directly).
	phaseStart = time.Now()
	var dirty nodeset.Builder
	applied := make([]bool, len(ds))
	var staged []shard.Op // remote fleets only
	for i, u := range ds {
		var removed []graph.Edge
		switch u.Kind {
		case updates.DataEdgeInsert:
			applied[i] = g.AddEdge(u.From, u.To)
		case updates.DataEdgeDelete:
			applied[i] = g.RemoveEdge(u.From, u.To)
		case updates.DataNodeInsert:
			if id := g.AddNode(u.Labels...); id != u.Node {
				//lint:allow panic node ids are allocated deterministically by the validated batch; a mismatch means corrupted coordinator state, not bad input
				panic("partition: batch node insert id mismatch")
			}
			applied[i] = true
		case updates.DataNodeDelete:
			removed, applied[i] = g.RemoveNode(u.Node)
		default:
			//lint:allow panic API contract: callers split batches by kind before calling; a pattern update here is a programming error
			panic("partition: ApplyDataBatch on pattern update " + u.String())
		}
		if !applied[i] || e.sectionV == nil {
			continue
		}
		if op := e.stage(u, removed, &dirty); remote {
			staged = append(staged, op)
		} else {
			e.applyOps([]shard.Op{op}, &dirty)
		}
	}
	if remote {
		e.applyOps(staged, &dirty)
	}
	e.span("oplog_flush", phaseStart)

	// Phase 3: reconcile the overlay, once for the whole batch.
	phaseStart = time.Now()
	if e.sectionV != nil {
		e.reconcileOverlay(dirty.Set())
	}
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
