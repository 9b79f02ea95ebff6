package partition

import (
	"time"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/shard"
	"uagpnm/internal/workpool"
)

// Row-demand planning for remote shards.
//
// Every stitched read the engine performs — overlay Dijkstras and
// stitched ball rows — decomposes into full-horizon intra rows of a
// closed class: the forward rows of each partition's entry
// bridges, the reverse rows of its exit bridges, and the two rows of
// whatever source the query starts from. The planner derives that
// demand ahead of each read phase and fetches it in ONE bulk /rows RPC
// per shard (all shards in parallel), so the phase itself runs against
// a warm client cache instead of paying one HTTP round trip per row.
// The client keeps a row until a flush reports that its source moved,
// so a plan costs the wire only what the last batch changed. Rows the
// plan misses still resolve one by one (a one-element /rows call each)
// and show up as gpnm_rpc_rows_missed_total — the planner's scorecard.

// bridgeRowReqs returns, grouped by owning shard slot, the bridge-row
// demand of the given partitions: entries forward, exits reverse.
// These are exactly the rows the overlay's adjacency fill (entries
// forward) and the far ends of stitched ball queries read; the client
// drops a row only when a flush moved it, so only partitions whose
// subgraphs changed (or that the caller is building fresh) need
// planning.
func (sv *sectionV) bridgeRowReqs(parts []int) [][]shard.RowReq {
	reqs := make([][]shard.RowReq, len(sv.shards))
	planned := 0
	for _, pi := range parts {
		pt := sv.part.parts[pi]
		s := sv.shardOf[pi]
		for _, gid := range pt.entries {
			reqs[s] = append(reqs[s], shard.RowReq{Part: pi, Src: sv.part.localOf[gid]})
		}
		for _, gid := range pt.exits {
			reqs[s] = append(reqs[s], shard.RowReq{Part: pi, Src: sv.part.localOf[gid], Reverse: true})
		}
		planned += len(pt.entries) + len(pt.exits)
	}
	if planned > 0 {
		sv.metrics.Counter("gpnm_rows_planned_total").Add(uint64(planned))
	}
	return reqs
}

// sourceRowReqs returns, grouped by owning shard slot, the source-row
// demand of the given change log: both directions of every live
// member's own intra row. The amendment that follows a batch asks
// ForwardBall for the members that carry a pattern label and
// ReverseBall for those that enter or leave a match; wave 1 of each
// stitched row is the source's own intra row, and wave 2 reads only
// bridge rows (already planned).
func (sv *sectionV) sourceRowReqs(ids nodeset.Set) [][]shard.RowReq {
	reqs := make([][]shard.RowReq, len(sv.shards))
	planned := 0
	for _, x := range ids {
		pi := sv.part.partIndex(x)
		if pi == none {
			continue
		}
		s := sv.shardOf[pi]
		local := sv.part.localOf[x]
		reqs[s] = append(reqs[s],
			shard.RowReq{Part: int(pi), Src: local},
			shard.RowReq{Part: int(pi), Src: local, Reverse: true})
		planned += 2
	}
	if planned > 0 {
		sv.metrics.Counter("gpnm_rows_planned_total").Add(uint64(planned))
	}
	return reqs
}

// PrefetchBallRows bulk-fetches, one /rows RPC per alive shard, the
// shard rows a read fan over the given nodes' balls will touch: both
// directions of every live member's own intra row (wave 1 of each
// stitched ball; wave 2 reads bridge rows, which the build-time plan
// and the op-flush warm piggyback keep cached). Callers front-load
// this before fanning ball reads — the hub runs it on a pattern's
// label candidates before the initial simulation and on the union of a
// batch's affected sets before the amendment pass — so the fan
// resolves from the warm client cache instead of paying one round trip
// per cache miss. Rows the cascade reaches beyond this first wave are
// still fetched one by one and counted by gpnm_rpc_rows_missed_total.
// No-op on in-process substrates. Timed as the row_plan phase.
func (e *Engine) PrefetchBallRows(ids nodeset.Set) { e.sub.prefetch(ids) }

func (sv *sectionV) prefetch(ids nodeset.Set) {
	if !sv.remote || len(ids) == 0 {
		return
	}
	sv.ensureUsable()
	start := time.Now()
	sv.withFailover(nil, func() {
		sv.prefetchPlannedRows(sv.sourceRowReqs(ids))
	})
	sv.span("row_plan", start)
}

// allPartIndices returns every current partition index.
func (sv *sectionV) allPartIndices() []int {
	parts := make([]int, len(sv.part.parts))
	for i := range parts {
		parts[i] = i
	}
	return parts
}

// opsRowDemand returns the warm demand an op flush should piggyback:
// the bridge rows of every partition the ops touch — their subgraphs
// changed, so some of their cached rows are about to drop (the client
// marks the ones it holds, and the worker re-sends only those the flush
// moved) — plus the partitions of cross-edge endpoints, whose subgraphs
// are untouched but whose bridge sets may have gained members with no
// cached row yet, plus the source rows (both directions) of every live
// op endpoint — the post-flush affected-ball phase starts its reads
// exactly there. The demand is evaluated against post-staging
// coordinator state (the entries/exits lists already reflect the
// batch), which is what the overlay reconciliation and ball reads that
// follow the flush will see.
func (sv *sectionV) opsRowDemand(ops []shard.Op) [][]shard.RowReq {
	need := make(map[int]bool)
	var ends nodeset.Builder
	for _, op := range ops {
		switch op.Kind {
		case shard.OpEdgeInsert, shard.OpEdgeDelete:
			ends.Add(op.From)
			ends.Add(op.To)
		case shard.OpNodeInsert, shard.OpNodeDelete:
			ends.Add(op.Node) // delete: partIndex is gone, sourceRowReqs skips it
		}
		if op.Part >= 0 {
			need[op.Part] = true
			continue
		}
		if op.Kind != shard.OpEdgeInsert && op.Kind != shard.OpEdgeDelete {
			continue
		}
		for _, end := range [2]uint32{op.From, op.To} {
			if pi := sv.part.partIndex(end); pi != none {
				need[int(pi)] = true
			}
		}
	}
	parts := make([]int, 0, len(need))
	for pi := range need {
		if pi < len(sv.part.parts) {
			parts = append(parts, pi)
		}
	}
	reqs := sv.bridgeRowReqs(parts)
	for s, rs := range sv.sourceRowReqs(ends.Set()) {
		reqs[s] = append(reqs[s], rs...)
	}
	return sv.dedupeRowReqs(reqs)
}

// dedupeRowReqs drops repeated row requests from a merged plan, in
// place. The bridge and source planners overlap exactly when an op
// endpoint IS a bridge node of a planned partition — its forward (or
// reverse) row is then demanded twice, and before this pass each copy
// was serialised, shipped and answered in the bulk RPC. Dropped copies
// are counted by gpnm_rpc_rows_deduped_total (they remain in
// gpnm_rows_planned_total: the planners did plan them).
func (sv *sectionV) dedupeRowReqs(reqs [][]shard.RowReq) [][]shard.RowReq {
	duplicates := 0
	seen := make(map[shard.RowReq]bool)
	for s, rs := range reqs {
		if len(rs) < 2 {
			continue
		}
		clear(seen)
		kept := rs[:0]
		for _, r := range rs {
			if seen[r] {
				duplicates++
				continue
			}
			seen[r] = true
			kept = append(kept, r)
		}
		reqs[s] = kept
	}
	if duplicates > 0 {
		sv.metrics.Counter("gpnm_rpc_rows_deduped_total").Add(uint64(duplicates))
	}
	return reqs
}

// prefetchPlannedRows issues one bulk Rows call per shard slot with
// demand, all alive slots in parallel. A slot that fails unwinds as a
// repairable *shardFault like any other remote read — callers run it
// inside withFailover and re-plan on retry (recovery reassigns
// partitions, so the old grouping is stale). Only a fleet plans rows:
// both callers check.
func (sv *sectionV) prefetchPlannedRows(reqs [][]shard.RowReq) {
	alive := sv.aliveIndices()
	workpool.ForEachBlocking(len(alive), func(k int) {
		i := alive[k]
		if i >= len(reqs) || len(reqs[i]) == 0 {
			return
		}
		if _, err := sv.shards[i].Rows(reqs[i]); err != nil {
			sv.shardFail(i, err)
		}
	})
}
