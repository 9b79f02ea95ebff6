package partition

import (
	"slices"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// AffectedSets is the per-update affected set of the data batch ds that
// took a graph from pre to post, at hop horizon horizon (0 = exact): the
// paper's Aff_N, which DER-II and the EH-Tree read. Update i's set is the
// union of its two conservative ball halves (readHalves): an edge
// delete's and a node delete's read in pre, when pre holds the element;
// an edge insert's and a node insert's read in post, when the insert
// applied. Every other entry is nil. pre is only read.
//
// No batch computes these: ApplyData returns only the change logs, which
// equal the union of the halves (batch.go). Session.Elimination on a
// partition engine and ApplyDataBatch ask for them.
func AffectedSets(ds []updates.Update, pre, post *graph.Graph, horizon int) []nodeset.Set {
	sets, applied := make([]nodeset.Set, len(ds)), applies(ds, pre)
	readHalves(sets, ds, applied, pre, shortest.CapHops(horizon), true)
	readHalves(sets, ds, applied, post, shortest.CapHops(horizon), false)
	return sets
}

// readHalves sets sets[i] to update i's Aff_N for every update of ds
// whose halves read g: with pre, every delete whose element g holds;
// otherwise every insert that applied (applied, from applies). An
// update's halves are two sweeps of g up to hops: the sources whose
// forward row it may move along in-edges, the targets whose reverse row
// it may move along out-edges. An edge (u,v) starts them at u and at v,
// at depth 1 — for an insertion the balls are identical before and
// after the update (a new path to u via (u,v) would cycle through u);
// for a deletion they are read in the pre-delete state, which covers
// every pair whose old shortest path used the edge. A node delete starts
// both at id, at depth 0, in the pre-delete state, which holds its
// neighbours' balls of radius hops−1. A node insert is {id}. The
// sweeps' levels are the depths batch.go's proof gives; a set keeps only
// the members.
func readHalves(sets []nodeset.Set, ds []updates.Update, applied []bool, g *graph.Graph, hops int, pre bool) {
	s := batchScratches.Get().(*batchScratch)
	for i, u := range ds {
		switch {
		case pre && u.Kind == updates.DataEdgeDelete && g.HasEdge(u.From, u.To),
			!pre && u.Kind == updates.DataEdgeInsert && applied[i]:
			s.tails, s.heads = append(s.tails, u.From), append(s.heads, u.To)
		case pre && u.Kind == updates.DataNodeDelete && g.Alive(u.Node):
			s.nodes = append(s.nodes, u.Node)
		case !pre && u.Kind == updates.DataNodeInsert && applied[i]:
			sets[i] = nodeset.Set{u.Node}
			continue
		default:
			continue
		}
		s.sw.Run(g, s.nodes, s.tails, hops, true)
		s.ids = append(s.ids[:0], s.sw.Reached...)
		s.sw.Run(g, s.nodes, s.heads, hops, false)
		s.ids = append(s.ids, s.sw.Reached...)
		sets[i] = nodeset.FromUnsorted(slices.Clone(s.ids))
		s.nodes, s.tails, s.heads = s.nodes[:0], s.tails[:0], s.heads[:0]
	}
	batchScratches.Put(s)
}

// applies reports which updates of ds change the graph when applied to
// pre in order, by the rules of updates.ApplyGraph, without touching pre:
// it tracks only the nodes and edges ds names. A node insert always
// applies; ids are never reused, so a node ds deletes stays dead and
// takes its edges with it.
func applies(ds []updates.Update, pre *graph.Graph) []bool {
	alive := map[uint32]bool{}
	edges := map[graph.Edge]bool{}
	isAlive := func(x uint32) bool {
		if a, ok := alive[x]; ok {
			return a
		}
		return pre.Alive(x)
	}
	hasEdge := func(e graph.Edge) bool {
		if !isAlive(e.From) || !isAlive(e.To) {
			return false
		}
		if h, ok := edges[e]; ok {
			return h
		}
		return pre.HasEdge(e.From, e.To)
	}
	applied := make([]bool, len(ds))
	for i, u := range ds {
		e := graph.Edge{From: u.From, To: u.To}
		switch u.Kind {
		case updates.DataEdgeInsert:
			if applied[i] = u.From != u.To && isAlive(u.From) && isAlive(u.To) && !hasEdge(e); applied[i] {
				edges[e] = true
			}
		case updates.DataEdgeDelete:
			if applied[i] = hasEdge(e); applied[i] {
				edges[e] = false
			}
		case updates.DataNodeInsert:
			applied[i], alive[u.Node] = true, true
		case updates.DataNodeDelete:
			applied[i], alive[u.Node] = isAlive(u.Node), false
		}
	}
	return applied
}
