package shortest

import "uagpnm/internal/graph"

// GraphBall runs a bounded BFS directly over the graph's adjacency and
// returns the ids within maxHops of src (src included), following
// out-edges, or in-edges when reverse is set. It answers "who is near
// this update site" against whatever state the graph is currently in —
// the cheap primitive behind conservative affected sets, costing
// O(ball·degree) with no dependence on any SLen substrate.
type GraphBall struct {
	sc *bfsScratch
	// src and zero back the one-entry row of a 0-hop ball.
	src  [1]uint32
	zero [1]Dist
}

// NewGraphBall returns a reusable traversal helper (not safe for
// concurrent use).
func NewGraphBall() *GraphBall { return &GraphBall{sc: newBFSScratch(0)} }

// Ball returns the node ids within maxHops of src in visit order (not
// sorted — affected-set builders normalise later anyway). The result
// aliases internal scratch and is valid until the next call.
func (b *GraphBall) Ball(g *graph.Graph, src uint32, maxHops int, reverse bool) []uint32 {
	cols, _ := b.Row(g, src, maxHops, reverse)
	return cols
}

// Row returns the (id, distance) pairs within maxHops of src in BFS
// visit order — distances never decrease along the row — an exact
// capped SLen row read straight off the graph. A 0-hop row is src alone
// (nothing for a dead src), a negative one empty. The results alias
// internal scratch and are valid until the next call.
func (b *GraphBall) Row(g *graph.Graph, src uint32, maxHops int, reverse bool) ([]uint32, []Dist) {
	switch {
	case maxHops < 0:
		return nil, nil
	case maxHops == 0: // the scratch BFS reads 0 hops as unbounded
		if !g.Alive(src) {
			return nil, nil
		}
		b.src[0] = src
		return b.src[:], b.zero[:]
	}
	return b.sc.runOrdered(g, src, maxHops, reverse, false)
}
