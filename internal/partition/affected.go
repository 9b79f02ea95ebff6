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
// union of its two conservative ball halves (updateHalves): an edge
// delete's and a node delete's read in pre, when pre holds the element;
// an edge insert's and a node insert's read in post, when the insert
// applied. Every other entry is nil. pre is only read.
//
// No batch computes these: ApplyData returns only the change logs, which
// equal the union of the halves (batch.go). Session.Elimination on a
// partition engine and ApplyDataBatch ask for them.
func AffectedSets(ds []updates.Update, pre, post *graph.Graph, horizon int) []nodeset.Set {
	b := preHalves(ds, pre, capOf(horizon))
	b.post(post)
	return b.sets()
}

// batchHalves is a batch's per-update halves: halves[i] is update i's,
// empty when it has none.
type batchHalves struct {
	ds      []updates.Update
	hops    int // the cap
	applied []bool
	halves  []affected
}

// preHalves reads the deletions' halves off pre, and which updates of ds
// apply to it.
func preHalves(ds []updates.Update, pre *graph.Graph, hops int) *batchHalves {
	b := &batchHalves{ds: ds, hops: hops, applied: applies(ds, pre), halves: make([]affected, len(ds))}
	for i, u := range ds {
		switch u.Kind {
		case updates.DataEdgeDelete:
			if pre.HasEdge(u.From, u.To) {
				b.halves[i] = updateHalves(pre, u.From, u.To, hops-1, 1)
			}
		case updates.DataNodeDelete:
			if pre.Alive(u.Node) {
				b.halves[i] = updateHalves(pre, u.Node, u.Node, hops, 0)
			}
		}
	}
	return b
}

// post reads the applied insertions' halves off post.
func (b *batchHalves) post(post *graph.Graph) {
	for i, u := range b.ds {
		if !b.applied[i] {
			continue
		}
		switch u.Kind {
		case updates.DataEdgeInsert:
			b.halves[i] = updateHalves(post, u.From, u.To, b.hops-1, 1)
		case updates.DataNodeInsert:
			b.halves[i] = affected{ids: []uint32{u.Node, u.Node}, nFwd: 1, depth: []uint8{0}}
		}
	}
}

// sets is each update's Aff_N, the union of its halves.
func (b *batchHalves) sets() []nodeset.Set {
	sets := make([]nodeset.Set, len(b.halves))
	for i, a := range b.halves {
		if len(a.ids) > 0 {
			sets[i] = nodeset.FromUnsorted(slices.Clone(a.ids))
		}
	}
	return sets
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

// affected is one update's affected set as its two halves, each in
// visit order: ids[:nFwd] the forward half, at depths depth, then the
// reverse half.
type affected struct {
	ids   []uint32
	nFwd  int
	depth []uint8
}

// updateHalves is the conservative affected set of an update as its two
// halves, read off g: {u} ∪ ReverseBall(u,radius), the sources whose
// forward row it may move, and {v} ∪ ForwardBall(v,radius), the targets
// whose reverse row it may move. An edge (u,v) takes radius H−1: for an
// insertion these balls are identical before and after the update (a
// new path to u via (u,v) would cycle through u); for a deletion they
// are read in the pre-delete state, which covers every pair whose old
// shortest path used the edge. A node delete is u = v = id at radius H
// in the pre-delete state, which holds the H−1 balls of its neighbours.
// Each source x keeps its depth δ(x) = d(x,u) + step: every pair (x,y)
// the update moves ran (or now runs) x ⇝ u and then step more hops at
// least — 1 across the edge, 0 for a node delete — so neither its old
// nor its new distance is below δ(x). A dead endpoint is its half alone.
func updateHalves(g *graph.Graph, u, v uint32, radius, step int) affected {
	fb := graphBalls.Get().(*shortest.GraphBall)
	rb := graphBalls.Get().(*shortest.GraphBall)
	defer graphBalls.Put(fb)
	defer graphBalls.Put(rb)
	srcs, dists := fb.Row(g, u, radius, true)
	tgts := rb.Ball(g, v, radius, false)
	// A live source heads its own ball at distance 0; a dead one is added.
	a := affected{
		ids:   make([]uint32, 0, max(len(srcs), 1)+max(len(tgts), 1)),
		depth: make([]uint8, 0, max(len(srcs), 1)),
	}
	if len(srcs) == 0 {
		a.ids, a.depth = append(a.ids, u), append(a.depth, uint8(step))
	}
	for i, x := range srcs {
		a.ids = append(a.ids, x)
		a.depth = append(a.depth, uint8(min(int(dists[i])+step, shortest.MaxDepth)))
	}
	a.nFwd = len(a.ids)
	if len(tgts) == 0 {
		a.ids = append(a.ids, v)
	}
	a.ids = append(a.ids, tgts...)
	return a
}
