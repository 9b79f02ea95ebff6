package partition

import (
	"sync"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// ApplyData applies a whole ΔGD sequence to the data graph and the
// substrate and returns the batch change log the amendment seeds on: the
// forward log, every source whose forward row d(x,·) may have moved,
// with its depth δ(x).
//
// The logs are the union of every update's two conservative ball halves
// (readHalves, AffectedSets): the forward half holds the sources of
// every pair the update may move, the reverse half their targets. For an
// edge (u,v) they are {u} ∪ ReverseBall(u,H−1) and {v} ∪
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
// No ball is taken per update. Each log is one multi-source
// shortest.Sweep per state: the forward log sweeps along in-edges, the
// reverse log along out-edges, from every deletion's site in the
// pre-batch state and from every insertion's in the post-batch state. A
// deleted node starts at depth 0, an edge's tail (head) at depth 1, and
// the sweep's level of x is the smallest start(s) + d(x,s) over the
// sources s — the smallest δ any one update's half gives x, over the
// same balls (the cap H bounds start(s) + d(x,s) exactly as it bounds
// the halves' sweeps). An inserted node goes on both logs at depth 0
// and is not swept: it has no edges of its own. The pre-batch sweeps
// take every delete whose element the pre-batch state holds, applied or
// not; one that did not apply adds nothing, because the update that
// voided it — an earlier delete of the same element, or of an endpoint,
// whose radius-H balls hold the edge's — is on the logs with the same or
// a wider ball at no greater depth.
//
// The same argument keeps the materialised ball rows: the batch ends by
// clearing the forward rows of the forward log and the reverse rows of
// the reverse log (dropRows).
//
// Every batch runs four phases under the same span names on either
// substrate: pre_balls, the pre-batch sweeps; oplog_flush, the graph
// mutations in update order, each staged into the substrate as it lands,
// then its flush; overlay_sync, the substrate's reconcile; post_balls,
// the post-batch sweeps with the row drop. The sweeps run serially on
// the calling goroutine and read the engine's own graph in a fixed
// state. No row is built here: the amendment that follows builds each
// row the drop cleared on its first read.
//
// This is the substrate's error and failover boundary: on the ball plane
// nothing can fail; a fleet repairs a lost worker and retries the phase
// (recovery.go). Only when that fails is an error wrapping
// shard.ErrSubstrateLost returned, with the engine poisoned (Err reports
// the sticky loss) because the data graph and the intra state may then
// disagree about which prefix of the batch applied. Callers of a
// poisoned engine drain and rebuild.
func (e *Engine) ApplyData(ds []updates.Update, g *graph.Graph) (shortest.ChangeLog, error) {
	log, _, err := e.applyBatch(ds, g)
	return log, err
}

// ApplyDataBatch is ApplyData with the change log's members only, and
// each update's Aff_N (AffectedSets) besides: the deletions' halves read
// before the batch lands, the applied insertions' after. It is kept for
// benchmark/layers.go (ROADMAP 1 (l)).
func (e *Engine) ApplyDataBatch(ds []updates.Update, g *graph.Graph) (perUpdate []nodeset.Set, changeLog nodeset.Set, err error) {
	perUpdate, applied := make([]nodeset.Set, len(ds)), applies(ds, g)
	readHalves(perUpdate, ds, applied, g, e.capHops(), true)
	log, err := e.ApplyData(ds, g)
	if err != nil {
		return nil, nil, err
	}
	readHalves(perUpdate, ds, applied, g, e.capHops(), false)
	return perUpdate, log.Nodes, nil
}

// applyBatch is ApplyData with the reverse log too.
func (e *Engine) applyBatch(ds []updates.Update, g *graph.Graph) (log shortest.ChangeLog, rev nodeset.Set, err error) {
	if lossErr := e.Err(); lossErr != nil {
		return log, nil, lossErr
	}
	defer RecoverSubstrateLoss(&err)
	e.metrics.Counter("gpnm_batches_total").Inc()
	sc := batchScratches.Get().(*batchScratch)
	H := e.capHops()

	// Phase 1: the deletions' sweeps in the pre-state (nothing applied
	// yet).
	phaseStart := time.Now()
	for _, u := range ds {
		switch u.Kind {
		case updates.DataEdgeDelete:
			if g.HasEdge(u.From, u.To) {
				sc.tails, sc.heads = append(sc.tails, u.From), append(sc.heads, u.To)
			}
		case updates.DataNodeDelete:
			if g.Alive(u.Node) {
				sc.nodes = append(sc.nodes, u.Node)
			}
		}
	}
	sc.sweepLogs(g, H)
	e.span("pre_balls", phaseStart)

	// Phase 2: structural application in update order, each update the
	// graph took staged into the substrate, then the substrate's flush.
	// An applied insertion leaves its sources for phase 4; an inserted
	// node goes straight onto both logs.
	phaseStart = time.Now()
	for _, u := range ds {
		removed, ok := updates.ApplyGraph(u, g)
		if !ok {
			continue
		}
		e.sub.stage(u, removed)
		switch u.Kind {
		case updates.DataEdgeInsert:
			sc.tails, sc.heads = append(sc.tails, u.From), append(sc.heads, u.To)
		case updates.DataNodeInsert:
			sc.log.Add(u.Node, 0)
			sc.rev.Add(u.Node)
		}
	}
	e.sub.flush()
	e.span("oplog_flush", phaseStart)

	// Phase 3: the substrate's reconcile, once for the whole batch.
	phaseStart = time.Now()
	e.sub.reconcile()
	e.span("overlay_sync", phaseStart)

	// Phase 4: the insertions' sweeps in the post-state; hand both logs
	// out and clear their rows.
	phaseStart = time.Now()
	sc.sweepLogs(g, H)
	log = sc.log.Log()
	rev = sc.rev.Set()
	sc.rev.Clear()
	e.dropRows([2]nodeset.Set{log.Nodes, rev})
	e.span("post_balls", phaseStart)

	// A batch that unwinds above leaves its scratch to the collector.
	batchScratches.Put(sc)
	return log, rev, nil
}

// batchScratch is what one batch assembles its logs in: the forward log
// (log) and the reverse log's members (rev), the sources of the next two
// sweeps, and the sweep itself. It is pooled across batches and engines,
// so a batch allocates only the logs it hands out.
type batchScratch struct {
	log shortest.LogBuilder
	rev *nodeset.Bits

	// The next sweeps' sources: deleted nodes at depth 0, edge tails
	// (forward log) and heads (reverse log) at depth 1.
	nodes, tails, heads []uint32

	sw  shortest.Sweep
	ids []uint32 // readHalves' union of one update's two sweeps
}

var batchScratches = sync.Pool{New: func() any {
	return &batchScratch{rev: nodeset.NewBits(0)}
}}

// sweepLogs runs the two sweeps of one state of g from the pending
// sources and adds what they reach to the logs: the reverse sweep's
// nodes to the forward log at their level, the forward sweep's to the
// reverse log. The sources are consumed.
func (s *batchScratch) sweepLogs(g *graph.Graph, hops int) {
	s.sw.Run(g, s.nodes, s.tails, hops, true)
	for i, x := range s.sw.Reached {
		s.log.Add(x, int(s.sw.Level[i]))
	}
	s.sw.Run(g, s.nodes, s.heads, hops, false)
	for _, x := range s.sw.Reached {
		s.rev.Add(x)
	}
	s.nodes, s.tails, s.heads = s.nodes[:0], s.tails[:0], s.heads[:0]
}
